// train_lgn: LightGCN (2 layers) trained with BSL (tau1 != tau2) on
// 64 sampled negatives per positive (Algorithm 1), batch 1024, dim 64,
// ~8k users x 8k items, trainer pool at every hardware thread; some
// epochs, then one full-ranking Trainer::Evaluate. The only workload
// that runs sampling, the loss, graph propagation, the optimizer and
// the evaluator.
#include <algorithm>
#include <cmath>
#include <memory>

#include "graph/bipartite_graph.h"
#include "math/rng.h"
#include "models/lightgcn.h"
#include "serve_stack.h"
#include "train/trainer.h"
#include "train_stack.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct TrainSetup {
  std::unique_ptr<bslrec::Dataset> data;
  std::unique_ptr<bslrec::BipartiteGraph> graph;
  std::unique_ptr<bslrec::LightGcnModel> model;
  std::unique_ptr<StepClockSampler> sampler;
  std::unique_ptr<bslrec::Trainer> trainer;
};

const bslrec::BilateralSoftmaxLoss kLoss(kTau1, kTau2);

void BuildTrain(const Args& args, size_t batch, TrainSetup& out) {
  out.trainer.reset();
  out.sampler.reset();
  out.model.reset();
  out.graph.reset();
  const InteractionShape shape =
      args.tiny ? InteractionShape{400, 400, 10, 3, 0, 8}
                : InteractionShape{8000, 8000, 20, 5, 0, 50};
  out.data = std::make_unique<bslrec::Dataset>(GenerateInteractions(shape, args.seed));
  out.graph = std::make_unique<bslrec::BipartiteGraph>(*out.data);
  bslrec::Rng rng(args.seed);
  out.model = std::make_unique<bslrec::LightGcnModel>(*out.graph, args.tiny ? 16 : 64, 2,
                                                      rng);
  out.sampler = std::make_unique<StepClockSampler>(*out.data);
  bslrec::TrainConfig tc;
  tc.batch_size = batch;
  tc.num_negatives = kNegatives;
  tc.metric_k = 20;
  tc.seed = args.seed;
  tc.runtime.num_threads = HardwareThreads();
  out.trainer =
      std::make_unique<bslrec::Trainer>(*out.data, *out.model, kLoss, *out.sampler, tc);
}

// Finite, strictly decreasing epoch losses and NDCG@20 at least twice
// the random-ranking floor.
void CheckTraining(const std::vector<double>& losses, const bslrec::TopKMetrics& m,
                   const bslrec::Dataset& data, Report& report) {
  for (size_t e = 0; e < losses.size(); ++e) {
    if (!std::isfinite(losses[e])) report.Fail("epoch " + std::to_string(e) + " loss is not finite");
    if (e > 0 && !(losses[e] < losses[e - 1])) {
      report.Fail("epoch loss did not decrease: " + std::to_string(losses[e - 1]) + " -> " +
                  std::to_string(losses[e]));
    }
  }
  const double floor = RandomNdcgFloor(data, 20);
  if (!(m.ndcg > 2.0 * floor) || m.num_users != data.TestUsers().size()) {
    report.Fail("NDCG@20 " + std::to_string(m.ndcg) + " over " + std::to_string(m.num_users) +
                " users is not above twice the random floor " + std::to_string(floor));
  }
  report.Note("NDCG@20 %.4f (random floor %.4f), Recall@20 %.4f over %zu users", m.ndcg, floor,
              m.recall, m.num_users);
}

}  // namespace

void RunTrain(const Args& args, Tracer& tracer, Report& report) {
  const size_t batch = args.tiny ? 128 : 1024;
  TrainSetup setup;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    BuildTrain(args, batch, setup);
    setup_s.push_back((NowNs() - t0) * 1e-9);
  }
  const bslrec::Dataset& data = *setup.data;
  report.Note("train_lgn: %u users x %u items, %zu train / %zu test edges, dim %zu, "
              "batch %zu, N- %zu; setup %.3f s (median of 5)",
              data.num_users(), data.num_items(), data.num_train(), data.num_test(),
              setup.model->dim(), batch, kNegatives, Median(setup_s));

  std::vector<double> losses, epoch_s, steps_ms, eval_s;
  bslrec::TopKMetrics m;
  std::vector<uint64_t> epoch_spans;
  const double train_budget_s = 0.55 * args.seconds;
  double trained_s = 0;
  for (int e = 0; e < 3 && (e < 2 || trained_s < train_budget_s); ++e) {
    // At most three epochs (two when the budget is spent). The traced
    // run trains two and records the second's steps as spans, from the
    // sampler's step clock that the untraced run keeps too.
    if (args.trace && e == 2) break;
    const int64_t t0 = NowNs();
    const bslrec::EpochStats st = setup.trainer->RunEpoch(e);
    const int64_t t1 = NowNs();
    std::vector<double> steps = setup.sampler->TakeStepsMs();
    if (args.trace && e == 1) {
      const uint64_t span = tracer.Record("trainer.epoch", t0, t1, 0, 1);
      epoch_spans.push_back(span);
      int64_t at = t0;
      for (size_t i = 0; i < steps.size(); ++i) {
        const int64_t len = static_cast<int64_t>(steps[i] * 1e6);
        tracer.Record("trainer.step", at, at + len, span, i);
        at += len;
      }
    }
    steps_ms.insert(steps_ms.end(), steps.begin(), steps.end());
    losses.push_back(st.avg_loss);
    epoch_s.push_back((t1 - t0) * 1e-9);
    // A full-ranking evaluation after every epoch (each freezes a new
    // snapshot); eval_pass_s is their median.
    const int64_t v0 = NowNs();
    m = setup.trainer->Evaluate();
    eval_s.push_back((NowNs() - v0) * 1e-9);
    trained_s += epoch_s.back() + eval_s.back();
    report.Note("epoch %d: loss %.6f, %.3f s, %.0f samples/s; eval %.3f s, NDCG@20 %.4f", e,
                st.avg_loss, epoch_s.back(), data.num_train() / epoch_s.back(), eval_s.back(),
                m.ndcg);
  }
  report.Count(steps_ms.size() + losses.size(), 0);
  CheckTraining(losses, m, data, report);

  if (!args.trace) {
    double total = 0;
    for (double s : epoch_s) total += s;
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    report.Metric("p50_ms", Median(steps_ms), "ms");
    report.Metric("goodput_per_s", data.num_train() * losses.size() / total, "1/s");
    report.Metric("eval_pass_s", Median(eval_s), "s");
    report.Note("%zu epochs, %zu timed steps (p99 %.4f ms, not gated), eval pass %.3f s "
                "(median of %zu)",
                losses.size(), steps_ms.size(), WindowedP99(steps_ms), Median(eval_s),
                eval_s.size());
    return;
  }

  // Traced run: the evaluator, then every training layer, then the
  // serving stack over the trained model.
  const size_t hw = HardwareThreads();
  report.Metric("eval.users_per_s", m.num_users / Median(eval_s), "1/s");
  report.Metric("tail.p99_ms", WindowedP99(steps_ms), "ms");
  setup.trainer.reset();  // detaches its pool from the model
  bslrec::runtime::ThreadPool pool(hw);
  ReplayTrainLayers("train_lgn", data, *setup.model, pool, kLoss, batch, args.seed,
                    epoch_s[1], epoch_spans[0], args.tiny ? 0.3 : 2.0, tracer, report);
  ReplayKernelAndRuntime(setup.model->dim(), hw, tracer, report);

  bslrec::Rng rng(args.seed);
  setup.model->Forward(rng);
  std::vector<double> freeze_ms;
  std::shared_ptr<const serve::ModelSnapshot> snap;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t f0 = NowNs();
    snap = std::make_shared<const serve::ModelSnapshot>(*setup.model, pool);
    const int64_t f1 = NowNs();
    tracer.Record("snapshot.freeze", f0, f1);
    freeze_ms.push_back((f1 - f0) * 1e-6);
  }
  report.Metric("snapshot.freeze_ms", Median(freeze_ms), "ms");

  // Serving the trained model: Zipf users, k = 20, at a rate the
  // front door never saturates.
  ServeStack stack(data, snap, ServedDefaults(std::max<size_t>(1, hw - 1)));
  Mix mix;
  mix.zipf_alpha = 1.1;
  const Schedule s = MakeSchedule(args.seed, "trace", args.tiny ? 300 : 1000,
                                  args.tiny ? 0.5 : 2.0, mix, data.num_users());
  ReplayServeLayers("train_lgn", s, stack, data, args.seed, args.tiny, tracer, report);
}

}  // namespace perfbench
