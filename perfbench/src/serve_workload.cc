// serve_scan and serve_light.
//
// serve_scan: 100k items x dim 128, users uniform, TOPK k=20 — the
// catalog scan is nearly all the work, so a kernel or scorer change
// shows here and a front-door change should not.
// serve_light: 2k items x dim 64, Zipf users (the ranking cache hits),
// ~10% bulk unfiltered k=100, snapshots published every few seconds —
// scoring is cheap, so the front door, wire, transport and cache
// dominate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <thread>

#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "math/rng.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "serve_stack.h"
#include "train/trainer.h"
#include "train_stack.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct ServeShape {
  uint32_t dim = 0;
  InteractionShape interactions;  // seen lists + evaluation users
  Mix mix;
  double nominal_rps = 0;
  double limit_ms = 0;       // p99 latency limit for goodput
  double ladder_base_rps = 0;
  int ladder_points = 0;     // rates base * 1.05^j, j < points
  int snapshots = 1;         // pre-frozen; > 1 = published in turn
  double publish_every_s = 0;
};

ServeShape ShapeFor(const Args& args) {
  ServeShape s;
  if (args.workload == "serve_scan") {
    s.dim = args.tiny ? 32 : 128;
    s.interactions = {args.tiny ? 1000u : 20000u, args.tiny ? 3000u : 100000u, 8, 2,
                      args.tiny ? 64u : 256u, 100};
    s.mix.k_interactive = 20;
    s.nominal_rps = args.tiny ? 200 : 40;
    s.limit_ms = 100;
    s.ladder_base_rps = 10;
    s.ladder_points = 100;
  } else {
    s.dim = args.tiny ? 16 : 64;
    s.interactions = {args.tiny ? 1000u : 20000u, args.tiny ? 500u : 2000u, 8, 1, 0, 20};
    s.mix.zipf_alpha = 1.1;
    s.mix.bulk_share = 0.1;
    s.mix.k_interactive = 10;
    s.mix.k_bulk = 100;
    // Long enough never to expire at any probed rate: the deadline
    // bookkeeping stays on the path and no request fails.
    s.mix.deadline_us = 10'000'000;
    s.nominal_rps = args.tiny ? 300 : 1000;
    s.limit_ms = 100;
    s.ladder_base_rps = 500;
    s.ladder_points = 100;
    s.snapshots = 3;
    s.publish_every_s = args.tiny ? 0.5 : 3.0;
  }
  return s;
}

double LadderRate(const ServeShape& s, int j) {
  return s.ladder_base_rps * std::pow(1.05, j);
}

// Everything a serve workload builds before traffic starts.
struct ServeSetup {
  std::unique_ptr<bslrec::Dataset> data;
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> snaps;
  std::unique_ptr<ServeStack> stack;
  std::vector<double> freeze_ms;
};

void BuildServe(const Args& args, const ServeShape& shape, size_t scorer_threads,
                bslrec::runtime::ThreadPool& pool, ServeSetup& out) {
  out.stack.reset();
  out.snaps.clear();
  out.data = std::make_unique<bslrec::Dataset>(
      GenerateInteractions(shape.interactions, args.seed));
  for (int k = 0; k < shape.snapshots; ++k) {
    bslrec::Rng rng(args.seed * 1000003ULL + static_cast<uint64_t>(k));
    bslrec::MfModel model(shape.interactions.users, shape.interactions.items, shape.dim,
                          rng);
    model.Forward(rng);
    const int64_t t0 = NowNs();
    out.snaps.push_back(std::make_shared<const serve::ModelSnapshot>(model, pool));
    out.freeze_ms.push_back((NowNs() - t0) * 1e-6);
  }
  out.stack = std::make_unique<ServeStack>(*out.data, out.snaps[0],
                                           ServedDefaults(scorer_threads));
}

// Publishes the pre-frozen snapshots in turn at seeded times until
// stopped; every publication is logged by its seq.
class Publisher {
 public:
  Publisher(ServeSetup& setup, double every_s, uint64_t seed)
      : setup_(setup), every_s_(every_s), rng_(seed ^ 0x7075626cULL) {
    if (setup_.snaps.size() > 1) thread_ = std::thread([this] { Loop(); });
  }
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  size_t published() const { return published_; }
  // False when a publication got another seq than the one recorded for
  // it beforehand (someone else published).
  bool seqs_as_recorded() const { return seqs_as_recorded_; }

 private:
  void Loop() {
    size_t next = 1;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      const double wait_s = every_s_ * (0.75 + 0.5 * rng_.NextDouble());
      if (cv_.wait_for(lock, std::chrono::duration<double>(wait_s),
                       [this] { return stop_; })) {
        return;
      }
      // Recorded before it is published, so no reply can name a seq
      // the checks do not know yet.
      const auto& snap = setup_.snaps[next];
      const uint64_t expected = setup_.stack->frontend.current_seq() + 1;
      setup_.stack->snapshots.Add(expected, snap);
      if (setup_.stack->frontend.PublishSnapshot(snap) != expected) seqs_as_recorded_ = false;
      ++published_;
      next = (next + 1) % setup_.snaps.size();
    }
  }

  ServeSetup& setup_;
  double every_s_;
  bslrec::Rng rng_;  // publisher thread only
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  size_t published_ = 0;          // read after Stop()
  bool seqs_as_recorded_ = true;  // read after Stop()
  std::thread thread_;  // last: starts after the state above
};

// A ladder probe passes when >= 99% of its requests got an OK within the
// limit and its backlog did not grow.
bool ProbePasses(const PhaseResult& r) {
  return !r.backlog_grew &&
         static_cast<double>(r.within_limit) >= 0.99 * static_cast<double>(r.sent);
}

void ReportPhase(Report& report, const std::string& name, double rate,
                 const PhaseResult& r) {
  report.Count(r.sent, r.failed());
  report.Note("phase %-10s offered %8.1f req/s: sent %llu ok %llu err %llu "
              "unanswered %llu within-limit %llu backlog-at-end %llu%s, p50 %.4f ms "
              "p99 %.4f ms (n=%zu), gen lag p99 %.4f ms",
              name.c_str(), rate, (unsigned long long)r.sent, (unsigned long long)r.ok,
              (unsigned long long)r.err, (unsigned long long)r.unanswered,
              (unsigned long long)r.within_limit, (unsigned long long)r.backlog_at_end,
              r.backlog_grew ? " BACKLOG GREW" : "", Median(r.latency_ms),
              Percentile(r.latency_ms, 99), r.latency_ms.size(),
              Percentile(r.lag_ms, 99));
}

double EvalPass(const bslrec::Dataset& data,
                std::shared_ptr<const serve::ModelSnapshot> snap,
                bslrec::runtime::ThreadPool& pool, Report& report) {
  const bslrec::Evaluator evaluator(data, 20, &pool);
  std::vector<double> pass_s;
  const int64_t budget_end = NowNs() + 2'000'000'000;
  for (int rep = 0; rep < 3 || (rep < 7 && NowNs() < budget_end); ++rep) {
    const int64_t t0 = NowNs();
    const bslrec::TopKMetrics m = evaluator.BeginPassOn(snap).Evaluate();
    pass_s.push_back((NowNs() - t0) * 1e-9);
    if (m.num_users != data.TestUsers().size() || !std::isfinite(m.ndcg)) {
      report.Fail("evaluation pass covered " + std::to_string(m.num_users) + " users");
    }
  }
  return Median(pass_s);
}

}  // namespace

void RunServe(const Args& args, Tracer& tracer, Report& report) {
  const ServeShape shape = ShapeFor(args);
  const size_t hw = HardwareThreads();
  const size_t scorer_threads = std::max<size_t>(1, hw - 1);
  const size_t conns = std::min<size_t>(4, hw);
  bslrec::runtime::ThreadPool pool(hw);

  // Set-up, five times; the median is setup_s and the last one serves.
  ServeSetup setup;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    BuildServe(args, shape, scorer_threads, pool, setup);
    setup_s.push_back((NowNs() - t0) * 1e-9);
  }
  const bslrec::Dataset& data = *setup.data;
  ServeStack& stack = *setup.stack;
  const serve::ServeConfig& cfg = stack.frontend.config().serve;
  report.Note("%s: %u users x %u items, dim %u, %zu seen edges, %zu eval users, "
              "%zu snapshots; setup %.3f s (median of 5)",
              args.workload.c_str(), data.num_users(), data.num_items(), shape.dim,
              data.num_train(), data.TestUsers().size(), setup.snaps.size(),
              Median(setup_s));

  if (args.trace) {
    const Schedule s = MakeSchedule(args.seed, "trace", shape.nominal_rps,
                                    0.15 * args.seconds, shape.mix, data.num_users());
    report.Metric("tail.p99_ms",
                  WindowedP99(ReplayServeLayers(args.workload, s, stack, data, args.seed,
                                                args.tiny, tracer, report)),
                  "ms");
    ReplayKernelAndRuntime(shape.dim, scorer_threads, tracer, report);
    report.Metric("snapshot.freeze_ms", Median(setup.freeze_ms), "ms");
    const double eval_s = EvalPass(data, stack.frontend.current_snapshot(), pool, report);
    report.Metric("eval.users_per_s", data.TestUsers().size() / eval_s, "1/s");

    // Training layers, off this workload's serving path, on a slice of
    // its interactions (4 batches) over the whole catalog.
    const size_t batch = args.tiny ? 256 : 1024;
    std::vector<bslrec::Edge> slice_edges = data.train_edges();
    slice_edges.resize(std::min(slice_edges.size(), 4 * batch));
    const bslrec::Dataset slice(data.num_users(), data.num_items(), std::move(slice_edges),
                                {});
    const bslrec::BipartiteGraph graph(slice);
    bslrec::Rng rng(args.seed);
    bslrec::LightGcnModel model(graph, shape.dim, 2, rng);
    const bslrec::BilateralSoftmaxLoss loss(kTau1, kTau2);
    double epoch_s = 0;
    uint64_t epoch_span = 0;
    {
      const StepClockSampler sampler(slice);
      bslrec::TrainConfig tc;
      tc.batch_size = batch;
      tc.num_negatives = kNegatives;
      tc.seed = args.seed;
      tc.runtime.num_threads = hw;
      bslrec::Trainer trainer(slice, model, loss, sampler, tc);
      const int64_t t0 = NowNs();
      trainer.RunEpoch(0);
      const int64_t t1 = NowNs();
      epoch_s = (t1 - t0) * 1e-9;
      epoch_span = tracer.Record("trainer.epoch", t0, t1);
    }
    ReplayTrainLayers(args.workload, slice, model, pool, loss, batch, args.seed, epoch_s,
                      epoch_span, args.tiny ? 0.3 : 1.0, tracer, report);
    return;
  }

  LoadClient client(stack.server.port(), conns);
  if (!client.connected()) {
    report.Fail("cannot connect to the server");
    return;
  }
  Publisher publisher(setup, shape.publish_every_s, args.seed);
  // Runs one phase, reports its counts and checks its replies at once
  // (then drops them: the ladder's probes send up to 10^5 requests).
  const auto run_phase = [&](const std::string& tag, double rate, double duration_s,
                             size_t max_checked, bool probe) {
    const Schedule s = MakeSchedule(args.seed, tag, rate, duration_s, shape.mix,
                                    data.num_users());
    PhaseResult r = client.Run(s, shape.limit_ms);
    ReportPhase(report, probe ? tag + (ProbePasses(r) ? "+" : "-") : tag, rate, r);
    CheckReplies(s, r, data, stack.snapshots, cfg, args.seed, max_checked,
                 args.corrupt_reference, report);
    r.lines = {};
    return r;
  };

  // Warm-up (checked, not timed), then the nominal phase.
  run_phase("warm", shape.nominal_rps, 0.03 * args.seconds, 20, false);
  const bool scan = data.num_items() > 10000;  // reference checks cost a catalog scan
  const PhaseResult nom = run_phase("nominal", shape.nominal_rps, 0.45 * args.seconds,
                                    scan ? 100 : 2000, false);
  const double p50 = Median(nom.latency_ms);
  const double p99 = WindowedP99(nom.latency_ms);
  // Memory through set-up and the nominal phase; the ladder's overload
  // probes queue far more than a served workload ever holds.
  const double peak_rss_mb = PeakRssMb();

  // Goodput: bisection over the fixed rate ladder for the highest rate
  // whose probe passes. A step fails only when two probes at its rate
  // fail: a burst of CPU time taken from the machine can sink one probe
  // far below the knee.
  int lo = -1, hi = shape.ladder_points;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = LadderRate(shape, mid);
    bool pass = false;
    for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
      std::string tag = "L";
      tag += std::to_string(mid) + "a" + std::to_string(attempt);
      pass = ProbePasses(run_phase(tag, rate, 0.035 * args.seconds, scan ? 20 : 50, true));
    }
    (pass ? lo : hi) = mid;
  }
  publisher.Stop();
  if (!publisher.seqs_as_recorded()) report.Fail("a publication got an unexpected seq");
  const double goodput = lo >= 0 ? LadderRate(shape, lo) : 0.0;
  report.Note("goodput %.1f req/s (limit p99 <= %.1f ms); %zu snapshots published "
              "during traffic",
              goodput, shape.limit_ms, publisher.published());

  const double eval_s = EvalPass(data, stack.frontend.current_snapshot(), pool, report);

  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  report.Metric("p50_ms", p50, "ms");
  report.Metric("goodput_per_s", goodput, "1/s");
  report.Metric("eval_pass_s", eval_s, "s");
  report.Note("nominal phase: p50 %.4f ms, p99 %.4f ms (windowed; not gated) over %zu samples; eval pass "
              "%.3f s",
              p50, p99, nom.latency_ms.size(), eval_s);
}

}  // namespace perfbench
