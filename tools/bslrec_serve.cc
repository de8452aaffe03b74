// bslrec_serve — batched top-k inference service CLI.
//
// Loads a dataset and a model checkpoint, freezes the model into a
// serving snapshot, and answers top-k recommendation requests from
// stdin (or --requests=FILE), batching consecutive requests for
// throughput.
//
// Requests are parsed through the shared wire grammar (serve/wire.h —
// the same grammar serve::NetServer speaks on a socket), one request
// per line:
//   <user> [<k>] [all]                        (legacy CLI form)
//   TOPK <user> <k> [FILTER=..] [LANE=..] ...  (wire form)
// where <user> is the user id, <k> overrides the default cutoff and
// the literal word "all" disables seen-item filtering (train positives
// are masked by default). Blank lines and lines starting with '#' are
// skipped. Responses are printed one line per request, in input order:
//   user=<u> k=<k> items=<item>:<score>,...
// (--verbose appends ' degraded=<mode> seq=<n>' in --concurrent mode.)
//
// With --concurrent the tool routes every request through the
// serve::ServingFrontEnd (MPMC queue + adaptive micro-batcher) instead
// of the single-driver InferenceService: --producers client threads
// submit concurrently, the dispatcher forms batches of up to --batch
// requests flushed after at most --flush-us microseconds, and output
// is still printed in input order. Responses are bit-identical to the
// synchronous path for any producer count.
//
// Examples:
//   bslrec_train --dataset=yelp --loss=BSL --save=model.ckpt
//   echo "3 10" | bslrec_serve --dataset=yelp --load=model.ckpt
//   bslrec_serve --dataset=yelp --load=model.ckpt
//                --requests=reqs.txt --batch=256 --threads=8
//   bslrec_serve --dataset=yelp --load=model.ckpt --requests=reqs.txt
//                --concurrent --producers=8 --flush-us=200
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/inference_service.h"
#include "serve/serving_frontend.h"
#include "serve/wire.h"
#include "tool_util.h"

namespace {

using namespace bslrec;  // NOLINT: tool-local convenience

// Flags of this tool alone; the model, scoring, runtime and front-door
// groups are tools::ServingFlags.
struct Options {
  std::string requests_file;  // empty = stdin
  bool recall = false;        // replay against an exact reference
  bool concurrent = false;    // route through serve::ServingFrontEnd
  size_t producers = 4;       // client threads in --concurrent mode
  std::string lane = "interactive";  // interactive|bulk
  bool verbose = false;  // append degraded=/seq= per response line

  tools::FlagResult Parse(const std::string& key, const std::string& value) {
    bool ok = true;
    if (key == "requests") {
      requests_file = value;
    } else if (key == "recall") {
      recall = true;
    } else if (key == "concurrent") {
      concurrent = true;
    } else if (key == "producers") {
      ok = tools::ReadCount(key, value, &producers);
    } else if (key == "lane") {
      lane = value;
    } else if (key == "verbose") {
      verbose = true;
    } else {
      return tools::FlagResult::kUnknown;
    }
    return ok ? tools::FlagResult::kOk : tools::FlagResult::kBad;
  }
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: bslrec_serve [--dataset=yelp|amazon|gowalla|ml1m]\n"
      "                    [--train-file=F --test-file=F]\n"
      "                    [--backbone=mf|ngcf|lightgcn|sgl|simgcl|lightgcl]\n"
      "                    [--dim=N] [--layers=N] [--load=CKPT]\n"
      "                    [--requests=FILE] [--k=N] [--max-k=N]\n"
      "                    [--batch=N] [--shard-items=N] [--no-cache]\n"
      "                    [--ann] [--quantize] [--nlist=N] [--nprobe=P]\n"
      "                    [--recall] [--threads=N] [--seed=N]\n"
      "                    [--concurrent] [--producers=N] [--flush-us=D]\n"
      "                    [--max-queue=N] "
      "[--overflow=block|shed-newest|shed-oldest]\n"
      "                    [--deadline-us=D] [--lane=interactive|bulk]\n"
      "                    [--brownout-nprobe=P] [--verbose]\n"
      "\n"
      "Serves top-k recommendations from a frozen model snapshot.\n"
      "Requests are read from --requests (default: stdin), one per\n"
      "line: '<user> [<k>] [all]' — k defaults to --k; 'all' disables\n"
      "seen-item filtering for that request. Output, in input order:\n"
      "  user=<u> k=<k> items=<item>:<score>,...\n"
      "Every count flag takes a non-negative integer.\n"
      "\n"
      "%s"
      "\n"
      "Tool flags:\n"
      "--recall:      (--ann only) after serving, replay every request\n"
      "               against an exact reference scorer and report\n"
      "               measured recall-vs-exact on stderr\n"
      "--concurrent:  serve through the concurrent front door\n"
      "               (serve::ServingFrontEnd): --producers client\n"
      "               threads submit into an MPMC queue and a\n"
      "               dispatcher forms micro-batches of up to --batch\n"
      "               requests, flushing a partial batch --flush-us\n"
      "               microseconds after its oldest request arrived.\n"
      "               Output order and every response are identical\n"
      "               to the synchronous path. --max-queue,\n"
      "               --deadline-us and --brownout-nprobe need it;\n"
      "               overload and deadline failures print as\n"
      "               'error=overload' / 'error=deadline' lines\n"
      "--producers:   client threads in --concurrent mode (>= 1)\n"
      "--lane:        admission lane for every request: 'interactive'\n"
      "               (drained first under the weighted-fair policy)\n"
      "               or 'bulk' (replay traffic; first shed victim)\n"
      "--verbose:     (--concurrent only) append ' degraded=<mode>\n"
      "               seq=<n>' to every response line so degraded\n"
      "               responses and the snapshot publication that\n"
      "               served them are attributable per request\n",
      tools::kServingFlagsHelp);
}

bool ParseFlags(int argc, char** argv, tools::ServingFlags& flags,
                Options& opts) {
  const auto extra = [&](const std::string& key, const std::string& value) {
    return opts.Parse(key, value);
  };
  if (!tools::ParseServingArgs(argc, argv, flags, extra, Usage)) return false;
  if (opts.concurrent && opts.producers == 0) {
    std::fprintf(stderr, "--producers must be >= 1\n");
    return false;
  }
  if (opts.lane != "interactive" && opts.lane != "bulk") {
    std::fprintf(stderr, "--lane must be interactive or bulk\n");
    return false;
  }
  if (!opts.concurrent &&
      (flags.max_queue != 0 || flags.deadline_us != 0 ||
       flags.brownout_nprobe != 0)) {
    std::fprintf(stderr,
                 "--max-queue, --deadline-us, and --brownout-nprobe are "
                 "admission policy and need --concurrent\n");
    return false;
  }
  if (opts.verbose && !opts.concurrent) {
    std::fprintf(stderr,
                 "--verbose reports front-door response attribution "
                 "(degrade tier, snapshot seq) and needs --concurrent\n");
    return false;
  }
  if (opts.recall && !flags.ann) {
    std::fprintf(stderr,
                 "--recall needs the approximate mode (--ann); exact "
                 "responses match the reference by construction\n");
    return false;
  }
  return true;
}

// Parses one request line through the shared wire grammar (wire.h);
// returns false (with the historical stderr diagnostic) on malformed
// input or an out-of-range user.
bool ParseRequest(const std::string& line, const tools::ServingFlags& flags,
                  const Options& opts, uint32_t num_users,
                  serve::TopKRequest& req) {
  serve::wire::ParseOptions parse_opts;
  parse_opts.num_users = num_users;
  parse_opts.default_k = flags.k;
  parse_opts.default_lane = opts.lane == "bulk"
                                ? serve::RequestLane::kBulk
                                : serve::RequestLane::kInteractive;
  serve::wire::ParsedRequest parsed;
  const serve::ServeStatus status =
      serve::wire::ParseRequest(line, parse_opts, &parsed);
  if (!status.ok()) {
    std::fprintf(stderr, "bad request '%s': %s\n", line.c_str(),
                 status.detail.c_str());
    return false;
  }
  req = parsed.topk;
  return true;
}

void PrintResponses(const std::vector<serve::TopKRequest>& reqs,
                    const std::vector<serve::TopKResponse>& resps) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    std::printf("%s\n",
                serve::wire::FormatCliResponse(reqs[i], resps[i]).c_str());
  }
}

// Replays `reqs` against an exact reference service built from the same
// model/threads and reports the mean per-request overlap fraction
// |approx ∩ exact| / |exact| — the measured recall of the approximate
// responses in `resps`. Exact scoring is deterministic, so this is the
// same reference bench_serve sweeps against.
void ReportRecall(const tools::ServingFlags& flags, const Dataset& data,
                  const EmbeddingModel& model,
                  const std::vector<serve::TopKRequest>& reqs,
                  const std::vector<serve::TopKResponse>& resps) {
  serve::ServeConfig ref_cfg = flags.ToServeConfig();
  ref_cfg.quantize = false;
  ref_cfg.exact = true;
  ref_cfg.ivf = serve::IvfBuildOptions{};
  serve::InferenceService ref(data, model, ref_cfg);
  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < reqs.size(); i += flags.batch) {
    const size_t n = std::min(flags.batch, reqs.size() - i);
    const std::vector<serve::TopKResponse> exact =
        ref.HandleBatch({reqs.data() + i, n});
    for (size_t j = 0; j < n; ++j) {
      if (exact[j].items.empty()) continue;
      size_t hits = 0;
      for (uint32_t item : resps[i + j].items) {
        for (uint32_t e : exact[j].items) {
          if (e == item) {
            ++hits;
            break;
          }
        }
      }
      sum += static_cast<double>(hits) /
             static_cast<double>(exact[j].items.size());
      ++counted;
    }
  }
  std::fprintf(stderr, "measured recall@%u vs exact: %.4f (%zu requests)\n",
               flags.k,
               counted > 0 ? sum / static_cast<double>(counted) : 1.0,
               counted);
}

// Scorer counters of the mode that ran, for the stderr summary.
void ReportScanStats(const serve::CatalogScorer& scorer) {
  if (scorer.options().exact) return;
  const serve::CatalogScorer::Stats st = scorer.stats();
  std::fprintf(stderr,
               "ivf probe: %llu queries, %llu lists visited, %llu "
               "candidates gathered, %llu re-ranked\n",
               static_cast<unsigned long long>(st.ivf_queries),
               static_cast<unsigned long long>(st.ivf_lists),
               static_cast<unsigned long long>(st.ivf_candidates),
               static_cast<unsigned long long>(st.ivf_reranked));
}

// --concurrent mode: replay every request through the front door from
// --producers client threads. Requests are read up front (producer
// threads must not interleave stream reads); each future is stored at
// its request's original index so output stays in input order. With
// admission control configured a future can carry an overload or
// deadline error instead of a ranking; those print as error= lines.
int ServeConcurrent(const tools::ServingFlags& flags, const Options& opts,
                    const Dataset& data, const EmbeddingModel& model,
                    std::istream& in) {
  const serve::FrontEndConfig fe = flags.ToFrontEndConfig();
  serve::ServingFrontEnd frontend(data, model, fe);
  std::fprintf(stderr,
               "snapshot ready (%u users x %u items, dim %zu%s), "
               "front door: max_batch=%zu flush-us=%u\n",
               frontend.current_snapshot()->num_users(),
               frontend.current_snapshot()->num_items(),
               frontend.current_snapshot()->dim(), flags.ModeSuffix(),
               fe.max_batch, fe.flush_deadline_us);
  if (fe.max_queue_depth > 0 || fe.default_deadline_us > 0 ||
      fe.brownout.enable) {
    std::fprintf(stderr,
                 "admission: max-queue=%zu overflow=%s deadline-us=%u "
                 "lane=%s brownout-nprobe=%u\n",
                 fe.max_queue_depth, flags.overflow.c_str(),
                 fe.default_deadline_us, opts.lane.c_str(),
                 fe.brownout.enable ? fe.brownout.nprobe : 0u);
  }

  std::vector<serve::TopKRequest> reqs;
  size_t malformed = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (serve::wire::IsIgnorableLine(line)) continue;
    serve::TopKRequest req;
    if (!ParseRequest(line, flags, opts, data.num_users(), req)) {
      ++malformed;
      continue;
    }
    reqs.push_back(req);
  }

  const size_t producers =
      std::max<size_t>(1, std::min(opts.producers, reqs.size()));
  std::vector<std::future<serve::ServedResponse>> futures(reqs.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    clients.emplace_back([&, p] {
      // Strided slice: producer p submits requests p, p+P, p+2P, ...
      for (size_t i = p; i < reqs.size(); i += producers) {
        futures[i] = frontend.Submit(reqs[i]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // Harvest in input order. Under admission control a future may carry
  // a typed error instead of a ranking; keep a placeholder response so
  // indices stay aligned and record the ErrorCode for printing (one
  // enum switch via StatusFromException — no catch cascade).
  std::vector<serve::TopKResponse> resps(reqs.size());
  std::vector<serve::ErrorCode> codes(reqs.size(), serve::ErrorCode::kOk);
  std::vector<serve::DegradeMode> modes(reqs.size(), serve::DegradeMode::kNone);
  std::vector<uint64_t> seqs(reqs.size(), 0);
  size_t served = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    try {
      serve::ServedResponse r = futures[i].get();  // users/k pre-validated
      resps[i] = std::move(r.topk);
      modes[i] = r.degrade_mode;
      seqs[i] = r.snapshot_seq;
      ++served;
    } catch (...) {
      codes[i] =
          serve::StatusFromException(std::current_exception()).code;
    }
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  for (size_t i = 0; i < reqs.size(); ++i) {
    if (codes[i] != serve::ErrorCode::kOk) {
      std::printf("user=%u k=%u error=%s\n", reqs[i].user, reqs[i].k,
                  serve::wire::CliErrorToken(codes[i]));
      continue;
    }
    const std::string rendered =
        opts.verbose
            ? serve::wire::FormatCliResponse(reqs[i], resps[i], modes[i],
                                             seqs[i])
            : serve::wire::FormatCliResponse(reqs[i], resps[i]);
    std::printf("%s\n", rendered.c_str());
  }
  std::fprintf(
      stderr,
      "served %zu/%zu requests from %zu producers in %.1f ms (%.0f req/s), "
      "%zu malformed\n",
      served, reqs.size(), producers, secs * 1000.0,
      secs > 0.0 ? static_cast<double>(served) / secs : 0.0, malformed);
  tools::ReportFrontEndStats(frontend.stats());
  if (opts.recall) {
    // Recall is only meaningful for fulfilled rankings — drop shed or
    // expired slots before replaying against the exact reference.
    std::vector<serve::TopKRequest> ok_reqs;
    std::vector<serve::TopKResponse> ok_resps;
    ok_reqs.reserve(served);
    ok_resps.reserve(served);
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (codes[i] != serve::ErrorCode::kOk) continue;
      ok_reqs.push_back(reqs[i]);
      ok_resps.push_back(resps[i]);
    }
    ReportRecall(flags, data, model, ok_reqs, ok_resps);
  }
  return malformed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  tools::ServingFlags flags;
  Options opts;
  if (!ParseFlags(argc, argv, flags, opts)) {
    Usage();
    return 2;
  }

  tools::ServingModel m;
  if (!tools::LoadServingModel(flags, m)) return 1;
  const Dataset& data = *m.data;
  const EmbeddingModel& model = *m.model;

  std::ifstream req_file;
  if (!opts.requests_file.empty()) {
    req_file.open(opts.requests_file);
    if (!req_file) {
      std::fprintf(stderr, "cannot open --requests file '%s'\n",
                   opts.requests_file.c_str());
      return 1;
    }
  }
  std::istream& in = opts.requests_file.empty() ? std::cin : req_file;

  if (opts.concurrent) return ServeConcurrent(flags, opts, data, model, in);

  serve::InferenceService service(data, model, flags.ToServeConfig());
  std::fprintf(stderr, "snapshot ready (%u users x %u items, dim %zu%s)\n",
               service.snapshot().num_users(), service.snapshot().num_items(),
               service.snapshot().dim(), flags.ModeSuffix());

  size_t served = 0, malformed = 0;
  double total_secs = 0.0;
  std::vector<serve::TopKRequest> batch;
  // --recall retains every request/response pair for the reference
  // replay after serving.
  std::vector<serve::TopKRequest> all_reqs;
  std::vector<serve::TopKResponse> all_resps;
  const auto flush = [&]() {
    if (batch.empty()) return;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::TopKResponse> resps =
        service.HandleBatch(batch);
    total_secs += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    PrintResponses(batch, resps);
    if (opts.recall) {
      all_reqs.insert(all_reqs.end(), batch.begin(), batch.end());
      all_resps.insert(all_resps.end(), resps.begin(), resps.end());
    }
    served += batch.size();
    batch.clear();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (serve::wire::IsIgnorableLine(line)) continue;
    serve::TopKRequest req;
    if (!ParseRequest(line, flags, opts, data.num_users(), req)) {
      ++malformed;
      continue;
    }
    batch.push_back(req);
    if (batch.size() >= flags.batch) flush();
  }
  flush();

  std::fprintf(stderr,
               "served %zu requests in %.1f ms (%.0f req/s), %zu malformed\n",
               served, total_secs * 1000.0,
               total_secs > 0.0 ? static_cast<double>(served) / total_secs
                                : 0.0,
               malformed);
  ReportScanStats(service.scorer());
  if (opts.recall) ReportRecall(flags, data, model, all_reqs, all_resps);
  return malformed == 0 ? 0 : 1;
}
