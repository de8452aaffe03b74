// Shared scaffolding for the command-line tools: dataset selection from
// the common --dataset / --train-file / --test-file flags and the
// backbone factory behind the common --backbone flag (every tool), plus
// the one flag parser the two serving tools (bslrec_serve,
// bslrec_served) share for their model, scoring, runtime and
// front-door flag groups. Keeping these here means a new preset,
// backbone or serving flag shows up in every tool at once instead of
// drifting.
#ifndef BSLREC_TOOLS_TOOL_UTIL_H_
#define BSLREC_TOOLS_TOOL_UTIL_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "data/dataset.h"
#include "data/loaders.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "models/checkpoint.h"
#include "models/contrastive.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "models/ngcf.h"
#include "serve/serving_frontend.h"

namespace bslrec::tools {

// Loads interaction files when given, otherwise generates the named
// synthetic preset (yelp|amazon|gowalla|ml1m). Returns nullopt with a
// stderr diagnostic on bad flags.
inline std::optional<Dataset> LoadDatasetFromFlags(
    const std::string& dataset, const std::string& train_file,
    const std::string& test_file, uint64_t seed) {
  if (!train_file.empty()) {
    if (test_file.empty()) {
      std::fprintf(stderr, "--train-file requires --test-file\n");
      return std::nullopt;
    }
    return LoadInteractions(train_file, test_file);
  }
  if (dataset == "yelp") {
    return GenerateSynthetic(Yelp18Synth(seed)).dataset;
  }
  if (dataset == "amazon") {
    return GenerateSynthetic(AmazonSynth(seed)).dataset;
  }
  if (dataset == "gowalla") {
    return GenerateSynthetic(GowallaSynth(seed)).dataset;
  }
  if (dataset == "ml1m") {
    return GenerateSynthetic(Movielens1MSynth(seed)).dataset;
  }
  std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
  return std::nullopt;
}

// Builds the backbone named by --backbone
// (mf|ngcf|lightgcn|sgl|simgcl|lightgcl); nullptr with a stderr
// diagnostic on an unknown name.
inline std::unique_ptr<EmbeddingModel> MakeBackbone(
    const std::string& backbone, const BipartiteGraph& graph, size_t dim,
    int layers, Rng& rng) {
  if (backbone == "mf") {
    return std::make_unique<MfModel>(graph.num_users(), graph.num_items(),
                                     dim, rng);
  }
  if (backbone == "ngcf") {
    return std::make_unique<NgcfModel>(graph, dim, layers, rng);
  }
  if (backbone == "lightgcn") {
    return std::make_unique<LightGcnModel>(graph, dim, layers, rng);
  }
  ContrastiveConfig cc;
  cc.num_layers = layers;
  if (backbone == "sgl") {
    cc.kind = AugmentationKind::kEdgeDropout;
  } else if (backbone == "simgcl") {
    cc.kind = AugmentationKind::kEmbeddingNoise;
  } else if (backbone == "lightgcl") {
    cc.kind = AugmentationKind::kSvdView;
  } else {
    std::fprintf(stderr, "unknown backbone '%s'\n", backbone.c_str());
    return nullptr;
  }
  return std::make_unique<ContrastiveModel>(graph, dim, cc, rng);
}

// ---- Shared flags of the serving tools ----

// Reads a flag value as a non-negative decimal integer that fits T.
// Empty, signed, non-numeric and out-of-range values print a diagnostic
// naming the flag and return false — the caller turns that into a
// usage error.
template <typename T>
bool ReadCount(const std::string& key, const std::string& value, T* out) {
  constexpr uint64_t max = std::numeric_limits<T>::max();
  uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc() || ptr != end || v > max) {
    std::fprintf(stderr,
                 "--%s needs a non-negative integer <= %llu (got '%s')\n",
                 key.c_str(), static_cast<unsigned long long>(max),
                 value.c_str());
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

enum class FlagResult { kUnknown, kOk, kBad };

// The flag groups bslrec_serve and bslrec_served both take: model,
// scoring, runtime and front door. Each tool parses its own extra flags
// (request source, transport) next to these.
struct ServingFlags {
  // ---- model ----
  std::string dataset = "yelp";  // yelp|amazon|gowalla|ml1m
  std::string train_file;
  std::string test_file;
  std::string backbone = "mf";  // mf|ngcf|lightgcn|sgl|simgcl|lightgcl
  size_t dim = 32;
  int layers = 2;
  std::string load_path;
  // ---- scoring ----
  uint32_t k = 10;       // default cutoff for requests that name none
  uint32_t max_k = 100;  // cache / prefix-reuse depth
  uint32_t shard_items = serve::CatalogScorer::kDefaultItemsPerShard;
  bool no_cache = false;
  bool ann = false;       // IVF approximate retrieval
  bool quantize = false;  // int8 IVF lists (needs ann)
  uint32_t nlist = 0;     // coarse lists (0 = ceil(sqrt(num_items)))
  uint32_t nprobe = serve::kDefaultNprobe;
  // ---- runtime ----
  size_t threads = 0;  // 0 = hardware concurrency, 1 = serial
  uint64_t seed = 42;
  // ---- front door ----
  size_t batch = 32;               // (micro-)batch size
  uint32_t flush_us = 200;         // micro-batch flush deadline (us)
  size_t max_queue = 0;            // bounded queue depth (0 = unbounded)
  std::string overflow = "block";  // block|shed-newest|shed-oldest
  uint32_t deadline_us = 0;        // default per-request SLO (0 = none)
  uint32_t brownout_nprobe = 0;    // > 0 enables brownout degradation

  // Consumes `--key[=value]` when it belongs to a shared group.
  FlagResult Parse(const std::string& key, const std::string& value) {
    bool ok = true;
    if (key == "dataset") {
      dataset = value;
    } else if (key == "train-file") {
      train_file = value;
    } else if (key == "test-file") {
      test_file = value;
    } else if (key == "backbone") {
      backbone = value;
    } else if (key == "dim") {
      ok = ReadCount(key, value, &dim);
    } else if (key == "layers") {
      ok = ReadCount(key, value, &layers);
    } else if (key == "load") {
      load_path = value;
    } else if (key == "k") {
      ok = ReadCount(key, value, &k);
    } else if (key == "max-k") {
      ok = ReadCount(key, value, &max_k);
    } else if (key == "shard-items") {
      ok = ReadCount(key, value, &shard_items);
    } else if (key == "no-cache") {
      no_cache = true;
    } else if (key == "ann") {
      ann = true;
    } else if (key == "quantize") {
      quantize = true;
    } else if (key == "nlist") {
      ok = ReadCount(key, value, &nlist);
    } else if (key == "nprobe") {
      ok = ReadCount(key, value, &nprobe);
    } else if (key == "threads") {
      ok = ReadCount(key, value, &threads);
    } else if (key == "seed") {
      ok = ReadCount(key, value, &seed);
    } else if (key == "batch") {
      ok = ReadCount(key, value, &batch);
    } else if (key == "flush-us") {
      ok = ReadCount(key, value, &flush_us);
    } else if (key == "max-queue") {
      ok = ReadCount(key, value, &max_queue);
    } else if (key == "overflow") {
      overflow = value;
    } else if (key == "deadline-us") {
      ok = ReadCount(key, value, &deadline_us);
    } else if (key == "brownout-nprobe") {
      ok = ReadCount(key, value, &brownout_nprobe);
    } else {
      return FlagResult::kUnknown;
    }
    return ok ? FlagResult::kOk : FlagResult::kBad;
  }

  // Cross-flag checks of the shared groups.
  bool Validate() const {
    if (k == 0 || max_k == 0 || batch == 0 || shard_items == 0) {
      std::fprintf(stderr,
                   "--k, --max-k, --batch, --shard-items must be > 0\n");
      return false;
    }
    if (overflow != "block" && overflow != "shed-newest" &&
        overflow != "shed-oldest") {
      std::fprintf(stderr,
                   "--overflow must be block, shed-newest, or shed-oldest\n");
      return false;
    }
    if (quantize && !ann) {
      std::fprintf(stderr,
                   "--quantize selects int8 IVF lists and needs --ann\n");
      return false;
    }
    if (ann && nprobe == 0) {
      std::fprintf(stderr, "--nprobe must be >= 1\n");
      return false;
    }
    return true;
  }

  serve::ServeConfig ToServeConfig() const {
    serve::ServeConfig cfg;
    cfg.max_k = max_k;
    cfg.items_per_shard = shard_items;
    cfg.cache_rankings = !no_cache;
    cfg.quantize = quantize;
    cfg.exact = !ann;
    cfg.nprobe = nprobe;
    cfg.ivf.nlist = nlist;
    cfg.runtime.num_threads = threads;
    return cfg;
  }

  serve::FrontEndConfig ToFrontEndConfig() const {
    serve::FrontEndConfig fe;
    fe.max_batch = batch;
    fe.flush_deadline_us = flush_us;
    fe.max_queue_depth = max_queue;
    if (overflow == "shed-newest") {
      fe.overflow = serve::OverflowPolicy::kShedNewest;
    } else if (overflow == "shed-oldest") {
      fe.overflow = serve::OverflowPolicy::kShedOldest;
    }
    fe.default_deadline_us = deadline_us;
    if (brownout_nprobe > 0) {
      fe.brownout.enable = true;
      fe.brownout.nprobe = brownout_nprobe;
    }
    fe.serve = ToServeConfig();
    return fe;
  }

  // Short tag for the active scoring mode in the snapshot-ready line.
  const char* ModeSuffix() const {
    if (!ann) return "";
    return quantize ? ", ivf index, int8 lists" : ", ivf index";
  }
};

// Help text of the shared flag groups (both serving tools print it).
inline constexpr const char* kServingFlagsHelp =
    "Model flags:\n"
    "--dataset, --train-file, --test-file, --backbone, --dim, --layers\n"
    "               as in bslrec_train\n"
    "--load:        checkpoint from bslrec_train --save (without it\n"
    "               the model serves its random initialization)\n"
    "\n"
    "Scoring flags:\n"
    "--k:           cutoff for requests that name no k\n"
    "--max-k:       per-user rankings are cached at this depth and\n"
    "               smaller cutoffs served as prefixes\n"
    "--shard-items: catalog items per scoring shard (per-worker\n"
    "               score-buffer size)\n"
    "--no-cache:    score every request from scratch\n"
    "--ann:         approximate retrieval through an IVF coarse index\n"
    "               built at snapshot time: score --nlist centroids,\n"
    "               visit the top --nprobe lists, rank the gathered\n"
    "               candidates by exact fp32 score. Responses are\n"
    "               deterministic (bit-identical for any --threads /\n"
    "               --batch / --shard-items) but may miss items\n"
    "               outside the probed lists\n"
    "--quantize:    (--ann only) scan the probed lists' int8 codes and\n"
    "               exact fp32 re-rank the best k + 64 candidates\n"
    "--nlist:       coarse lists in the IVF index\n"
    "               (0 = ceil(sqrt(num_items)))\n"
    "--nprobe:      lists visited per query (clamped to [1, nlist]);\n"
    "               higher = better recall, slower\n"
    "--threads:     worker count (0 = one per hardware thread,\n"
    "               1 = serial). Results are bit-identical for any\n"
    "               value.\n"
    "--seed:        dataset and model-initialization seed\n"
    "\n"
    "Front-door flags:\n"
    "--batch:       (micro-)batch size; responses are identical for\n"
    "               any batch size\n"
    "--flush-us:    micro-batch flush deadline in microseconds\n"
    "--max-queue:   bound the front-door queue at N requests\n"
    "               (0 = unbounded); at capacity --overflow applies\n"
    "--overflow:    what a full queue does to the overflowing request:\n"
    "               'block' makes the producer wait (backpressure),\n"
    "               'shed-newest' refuses the incoming request,\n"
    "               'shed-oldest' evicts the oldest queued one (bulk\n"
    "               lane first). Shed requests fail with a retriable\n"
    "               overload error\n"
    "--deadline-us: per-request SLO in microseconds measured from\n"
    "               submission; a request past its deadline fails fast\n"
    "               instead of being scored\n"
    "--brownout-nprobe: enable brownout degradation: under queue\n"
    "               pressure the dispatcher serves through the\n"
    "               snapshot's IVF index at P probes (building the\n"
    "               index at freeze time) and recovers when the\n"
    "               backlog clears. Degraded responses are\n"
    "               bit-identical to the synchronous path at the\n"
    "               degraded tier\n";

// Parses argv: each `--key[=value]` goes to `flags` first, then to
// `extra(key, value)` (a tool's own flags, returning a FlagResult).
// --help prints `usage` and exits 0. Returns false on a bad or unknown
// flag or a failed shared cross-flag check; the caller prints usage.
template <typename Extra>
bool ParseServingArgs(int argc, char** argv, ServingFlags& flags,
                      Extra&& extra, void (*usage)()) {
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string key = arg, value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    if (key == "help") {
      usage();
      std::exit(0);
    }
    FlagResult r = flags.Parse(key, value);
    if (r == FlagResult::kUnknown) r = extra(key, value);
    if (r == FlagResult::kUnknown) {
      std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
    }
    if (r != FlagResult::kOk) return false;
  }
  return flags.Validate();
}

// The dataset, graph and model a serving tool scores. The graph lives
// on the heap next to the model that may reference it.
struct ServingModel {
  std::optional<Dataset> data;
  std::unique_ptr<BipartiteGraph> graph;
  std::unique_ptr<EmbeddingModel> model;
};

// Loads the dataset and backbone named by the model flags, restores
// --load when given, and runs Forward so the final embeddings exist for
// a snapshot. False (with a stderr diagnostic) on any failure.
inline bool LoadServingModel(const ServingFlags& flags, ServingModel& out) {
  out.data = LoadDatasetFromFlags(flags.dataset, flags.train_file,
                                  flags.test_file, flags.seed);
  if (!out.data.has_value()) return false;
  std::fprintf(stderr, "data: %u users, %u items, %zu train interactions\n",
               out.data->num_users(), out.data->num_items(),
               out.data->num_train());
  out.graph = std::make_unique<BipartiteGraph>(*out.data);
  Rng rng(flags.seed);
  out.model =
      MakeBackbone(flags.backbone, *out.graph, flags.dim, flags.layers, rng);
  if (out.model == nullptr) return false;
  if (!flags.load_path.empty()) {
    if (!LoadModelParams(*out.model, flags.load_path)) return false;
    std::fprintf(stderr, "loaded checkpoint %s\n", flags.load_path.c_str());
  } else {
    std::fprintf(stderr,
                 "warning: no --load given, serving random-init %s model\n",
                 flags.backbone.c_str());
  }
  out.model->Forward(rng);  // materialize final embeddings for a snapshot
  return true;
}

// Prints the front door's overload counters (front door, admission,
// deadlines, lanes, brownout) to stderr.
inline void ReportFrontEndStats(const serve::FrontEndStats& st) {
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  constexpr size_t kInteractive =
      static_cast<size_t>(serve::RequestLane::kInteractive);
  constexpr size_t kBulk = static_cast<size_t>(serve::RequestLane::kBulk);
  std::fprintf(stderr,
               "front door: %llu batches (%llu size / %llu deadline / "
               "%llu drain flushes), largest batch %llu\n",
               u(st.batches), u(st.size_flushes), u(st.deadline_flushes),
               u(st.drain_flushes), u(st.max_batch_served));
  std::fprintf(stderr,
               "admission: %llu submitted, depth high-water %llu, "
               "%llu blocked submits, %llu shed-newest, %llu shed-oldest\n",
               u(st.submitted), u(st.queue_depth_high_water),
               u(st.blocked_submits), u(st.shed_newest), u(st.shed_oldest));
  std::fprintf(stderr,
               "deadlines: %llu admission / %llu queue / %llu batch "
               "expiries\n",
               u(st.expired_admission), u(st.expired_queue),
               u(st.expired_batch));
  std::fprintf(stderr,
               "lanes: interactive %llu/%llu served, bulk %llu/%llu served\n",
               u(st.lane_served[kInteractive]),
               u(st.lane_submitted[kInteractive]), u(st.lane_served[kBulk]),
               u(st.lane_submitted[kBulk]));
  std::fprintf(stderr,
               "brownout: %llu entries / %llu exits, %.1f ms degraded, "
               "%llu degraded responses\n",
               u(st.brownout_entries), u(st.brownout_exits),
               static_cast<double>(st.brownout_us) / 1000.0,
               u(st.degraded_served));
}

}  // namespace bslrec::tools

#endif  // BSLREC_TOOLS_TOOL_UTIL_H_
