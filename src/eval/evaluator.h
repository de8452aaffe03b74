// Full-ranking top-K evaluator.
//
// Implements the paper's protocol: for every user with test interactions,
// rank the *entire* catalog by cosine score, mask the user's training
// positives, and average Recall@K / NDCG@K / Precision@K / HitRate@K over
// users. Also provides the popularity-group NDCG decomposition behind the
// fairness figures and raw top-K lists for analysis.
//
// Per-user scoring and ranking fan out across a runtime::ThreadPool
// through serve::CatalogScorer's (user block x item shard) tasks, and
// every per-user ranking lands in its own output slot before a serial
// reduction, so all metrics are bit-identical for any worker count
// (see runtime/thread_pool.h and serve/topk_scorer.h).
//
// An evaluation *pass* (`BeginPass`) freezes the model's current final
// embeddings into a read-only `serve::ModelSnapshot` (the same snapshot
// type the inference service ships to production) and shares it
// across every query on the pass. Rankings come from `serve/` too —
// test users are ranked in chunks through the same
// `CatalogScorer::BatchTopK` that answers served requests — so offline
// metrics and served responses agree bit-for-bit by construction. The
// single-shot `Evaluate`/`GroupNdcg`/... wrappers each open a one-query
// pass; callers issuing several queries against the same model state
// should hold a pass instead.
//
// `BeginPassOn(snapshot)` opens a pass over an *already frozen*
// snapshot instead of freezing one itself. That is the seam async
// evaluation rides: the trainer freezes the snapshot on its own pool,
// then a background AsyncEvaluator scores it on a different pool —
// and because ranking is thread-count invariant, the metrics are
// bit-identical to a synchronous pass over the same snapshot.
//
// Every pass ranks by the exact full-catalog scan — the paper's
// protocol. Approximate serving tiers (IVF) are measured against the
// exact lists in bench_serve, not through the evaluator.
#ifndef BSLREC_EVAL_EVALUATOR_H_
#define BSLREC_EVAL_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "serve/model_snapshot.h"

namespace bslrec {

// One completed evaluation, tagged with the epoch whose model state it
// measured. The trainer records these in epoch order — identically for
// synchronous and asynchronous evaluation.
struct EvalRecord {
  int epoch = 0;
  TopKMetrics metrics;
};

class Evaluator {
 public:
  // `data` must outlive the evaluator. The evaluator owns a pool sized
  // from `runtime` (default: one worker per hardware thread).
  Evaluator(const Dataset& data, uint32_t k,
            runtime::RuntimeConfig runtime = {});
  // Borrows an external pool (e.g. the trainer's) instead of owning
  // one; `pool` must be non-null and outlive the evaluator.
  Evaluator(const Dataset& data, uint32_t k, runtime::ThreadPool* pool);

  uint32_t k() const { return k_; }

  // One evaluation pass over a fixed model state. The pass copies the
  // final embeddings into its snapshot at construction, so the model
  // may keep training while the pass is queried.
  class Pass {
   public:
    // Aggregate metrics at cutoff evaluator k() / an arbitrary cutoff.
    TopKMetrics Evaluate();
    TopKMetrics EvaluateAtK(uint32_t k);

    // Mean per-group NDCG contributions over test users; summing the
    // vector gives overall NDCG@k(). Larger group id = more popular.
    std::vector<double> GroupNdcg(uint32_t num_groups);

    // Top-k()-ranked items for one user (train positives masked).
    std::vector<uint32_t> TopKForUser(uint32_t user);

    // How often each item appears in the top-k() lists across all test
    // users ("exposure"). Feed to GiniCoefficient for a concentration
    // summary of the recommendation policy.
    std::vector<double> ItemExposure();

    // The frozen embeddings this pass scores against — the same
    // snapshot type serve::InferenceService answers traffic from.
    const serve::ModelSnapshot& snapshot() const { return *snapshot_; }

   private:
    friend class Evaluator;
    Pass(const Evaluator& eval, const EmbeddingModel& model);
    Pass(const Evaluator& eval,
         std::shared_ptr<const serve::ModelSnapshot> snapshot);

    // Top-k ids of each user (train positives masked), ranked through
    // serve::CatalogScorer::BatchTopK in fixed-size user chunks.
    std::vector<std::vector<uint32_t>> RankUsers(
        std::span<const uint32_t> users, uint32_t k) const;
    // Cached RankUsers(test users, k()): Evaluate/GroupNdcg/ItemExposure all
    // consume the same rankings, so the O(users x items x dim) scoring
    // runs once per pass no matter how many queries follow.
    const std::vector<std::vector<uint32_t>>& RankingsAtDefaultK();
    TopKMetrics MetricsOverRankings(
        const std::vector<std::vector<uint32_t>>& rankings, uint32_t k);

    const Evaluator& eval_;
    // Normalized tables, frozen once (shared so an in-flight async pass
    // keeps its snapshot alive however long the producer lives).
    std::shared_ptr<const serve::ModelSnapshot> snapshot_;
    std::vector<std::vector<uint32_t>> rankings_k_;  // per test user
    bool rankings_cached_ = false;
  };

  Pass BeginPass(const EmbeddingModel& model) const;
  // Opens a pass over a snapshot frozen elsewhere (possibly on another
  // pool). The snapshot's shape must match this evaluator's dataset.
  Pass BeginPassOn(
      std::shared_ptr<const serve::ModelSnapshot> snapshot) const;

  // Single-shot conveniences; each opens a fresh pass.
  TopKMetrics Evaluate(const EmbeddingModel& model) const;
  TopKMetrics EvaluateAtK(const EmbeddingModel& model, uint32_t k) const;
  std::vector<double> GroupNdcg(const EmbeddingModel& model,
                                uint32_t num_groups) const;
  std::vector<uint32_t> TopKForUser(const EmbeddingModel& model,
                                    uint32_t user) const;
  std::vector<double> ItemExposure(const EmbeddingModel& model) const;

 private:
  friend class Pass;

  const Dataset& data_;
  uint32_t k_;
  std::vector<uint32_t> test_users_;  // users with >= 1 test item
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  runtime::ThreadPool* pool_;  // owned_pool_.get() or the borrowed pool
};

}  // namespace bslrec

#endif  // BSLREC_EVAL_EVALUATOR_H_
