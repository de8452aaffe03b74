// The training side of the benchmark: the seeded interaction
// generator, a negative sampler that timestamps every training step,
// and the layer-by-layer replay of one epoch's batches (sampling ->
// loss -> forward -> backward -> optimizer) that the traced run reports.
#ifndef PERFBENCH_TRAIN_STACK_H_
#define PERFBENCH_TRAIN_STACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/losses.h"
#include "data/dataset.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "sampling/negative_sampler.h"
#include "trace.h"

namespace perfbench {

// Clustered implicit feedback: each user prefers one of `clusters` item
// groups (80% of its interactions, head-skewed inside the group), the
// rest uniform. Every user gets `train_per_user` distinct train items
// and `test_per_user` distinct held-out items. Built through the
// Dataset edge-list constructor in O(edges).
struct InteractionShape {
  uint32_t users = 0;
  uint32_t items = 0;
  uint32_t train_per_user = 0;
  uint32_t test_per_user = 0;
  uint32_t test_users = 0;  // users that get test items (0 = all)
  uint32_t clusters = 1;
};
bslrec::Dataset GenerateInteractions(const InteractionShape& shape,
                                     uint64_t seed);

// Expected NDCG@k of a uniformly random ranking of each test user's
// unseen items: the floor a trained model must beat.
double RandomNdcgFloor(const bslrec::Dataset& data, uint32_t k);

// Uniform negatives (Algorithm 1). The trainer binds Dispatch() once
// per batch, so its timestamps delimit the training steps.
class StepClockSampler : public bslrec::NegativeSampler {
 public:
  explicit StepClockSampler(const bslrec::Dataset& data) : inner_(data) {}
  void Sample(uint32_t u, size_t n, bslrec::Rng& rng,
              std::vector<uint32_t>& out) const override {
    inner_.Sample(u, n, rng, out);
  }
  bslrec::SamplerDispatch Dispatch() const override {
    stamps_.push_back(NowNs());
    return inner_.Dispatch();
  }
  // Step durations (ms) between consecutive Dispatch calls made since
  // the last call; each covers one whole training step.
  std::vector<double> TakeStepsMs() const;

 private:
  bslrec::UniformNegativeSampler inner_;
  mutable std::vector<int64_t> stamps_;  // the trainer thread only
};

inline constexpr size_t kNegatives = 64;  // bslrec_train's default N-
// BSL temperatures: tau1 on the positive term, tau2 on the negatives;
// tau1 != tau2 is what separates BSL from plain softmax loss.
inline constexpr double kTau1 = 0.15;
inline constexpr double kTau2 = 0.1;

// Replays up to `budget_s` worth of the batches of one epoch of `data`
// layer by layer on `model` (its runtime set to `pool`), with the
// trainer's batch size and N-. Emits sampling.draws_per_s,
// loss.compute_ns, models.forward_ms, models.backward_ms,
// optimizer.step_ms, trainer.epoch_s (= `epoch_s`, measured by the
// caller around Trainer::RunEpoch) and trainer.self_share, and prints
// the epoch's blocking-path share table.
void ReplayTrainLayers(const std::string& workload, const bslrec::Dataset& data,
                       bslrec::EmbeddingModel& model,
                       bslrec::runtime::ThreadPool& pool,
                       const bslrec::LossFunction& loss, size_t batch_size,
                       uint64_t seed, double epoch_s, uint64_t epoch_span,
                       double budget_s, Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_TRAIN_STACK_H_
