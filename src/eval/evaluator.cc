#include "eval/evaluator.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "math/check.h"
#include "serve/topk_scorer.h"

namespace bslrec {
namespace {

// Test users ranked per CatalogScorer::BatchTopK call. Large enough
// that every worker gets full query blocks of every item shard, small
// enough that the scorer's per-(user, worker) top-k heaps stay small.
constexpr size_t kRankChunk = 256;

}  // namespace

Evaluator::Evaluator(const Dataset& data, uint32_t k,
                     runtime::RuntimeConfig runtime)
    : data_(data),
      k_(k),
      test_users_(data.TestUsers()),
      owned_pool_(
          std::make_unique<runtime::ThreadPool>(runtime.num_threads)),
      pool_(owned_pool_.get()) {
  BSLREC_CHECK(k > 0);
}

Evaluator::Evaluator(const Dataset& data, uint32_t k,
                     runtime::ThreadPool* pool)
    : data_(data), k_(k), test_users_(data.TestUsers()), pool_(pool) {
  BSLREC_CHECK(k > 0);
  BSLREC_CHECK(pool != nullptr);
}

Evaluator::Pass::Pass(const Evaluator& eval, const EmbeddingModel& model)
    : Pass(eval,
           std::make_shared<const serve::ModelSnapshot>(model, *eval.pool_)) {}

Evaluator::Pass::Pass(const Evaluator& eval,
                      std::shared_ptr<const serve::ModelSnapshot> snapshot)
    : eval_(eval), snapshot_(std::move(snapshot)) {
  BSLREC_CHECK(snapshot_ != nullptr);
  BSLREC_CHECK_MSG(snapshot_->num_users() == eval_.data_.num_users() &&
                       snapshot_->num_items() == eval_.data_.num_items(),
                   "snapshot shape does not match the evaluator's dataset");
}

std::vector<std::vector<uint32_t>> Evaluator::Pass::RankUsers(
    std::span<const uint32_t> users, uint32_t k) const {
  // Candidates exclude each user's train positives entirely: a
  // recommendation list must never contain already-consumed items.
  // Scoring, selection and tie-breaking are the serve core's, so
  // evaluator rankings and served responses are the same lists by
  // construction.
  const serve::CatalogScorer scorer(*snapshot_, *eval_.pool_);
  std::vector<std::vector<uint32_t>> rankings(users.size());
  std::vector<serve::ScoreQuery> queries;
  for (size_t lo = 0; lo < users.size(); lo += kRankChunk) {
    const size_t hi = std::min(users.size(), lo + kRankChunk);
    queries.clear();
    for (size_t t = lo; t < hi; ++t) {
      queries.push_back({snapshot_->UserVec(users[t]), k,
                         eval_.data_.TrainItems(users[t])});
    }
    const std::vector<std::vector<serve::ScoredItem>> tops =
        scorer.BatchTopK(queries);
    for (size_t t = lo; t < hi; ++t) {
      rankings[t].reserve(tops[t - lo].size());
      for (const serve::ScoredItem& c : tops[t - lo]) {
        rankings[t].push_back(c.item);
      }
    }
  }
  return rankings;
}

const std::vector<std::vector<uint32_t>>&
Evaluator::Pass::RankingsAtDefaultK() {
  if (!rankings_cached_) {
    rankings_k_ = RankUsers(eval_.test_users_, eval_.k_);
    rankings_cached_ = true;
  }
  return rankings_k_;
}

TopKMetrics Evaluator::Pass::MetricsOverRankings(
    const std::vector<std::vector<uint32_t>>& rankings, uint32_t k) {
  // Serial aggregation in test-user order: bit-identical for any worker
  // count (the parallelism lives in the ranking computation). Rankings
  // longer than k are truncated — the sorted lists have the prefix
  // property, so the first k entries of a top-k' list (k <= k') are
  // exactly the top-k ranking.
  TopKMetrics agg;
  for (size_t t = 0; t < rankings.size(); ++t) {
    const auto test_items = eval_.data_.TestItems(eval_.test_users_[t]);
    const std::span<const uint32_t> ranking(
        rankings[t].data(),
        std::min<size_t>(k, rankings[t].size()));
    agg.recall += RecallAtK(ranking, test_items);
    agg.ndcg += NdcgAtK(ranking, test_items, k);
    agg.precision += PrecisionAtK(ranking, test_items, k);
    agg.hit_rate += HitAtK(ranking, test_items);
    ++agg.num_users;
  }
  if (agg.num_users > 0) {
    const double n = static_cast<double>(agg.num_users);
    agg.recall /= n;
    agg.ndcg /= n;
    agg.precision /= n;
    agg.hit_rate /= n;
  }
  return agg;
}

TopKMetrics Evaluator::Pass::Evaluate() { return EvaluateAtK(eval_.k_); }

TopKMetrics Evaluator::Pass::EvaluateAtK(uint32_t k) {
  // Cutoffs <= k() are served from the cached top-k() rankings (prefix
  // property); only larger cutoffs need a fresh scoring pass.
  if (k <= eval_.k_) return MetricsOverRankings(RankingsAtDefaultK(), k);
  return MetricsOverRankings(RankUsers(eval_.test_users_, k), k);
}

std::vector<double> Evaluator::Pass::GroupNdcg(uint32_t num_groups) {
  const std::vector<uint32_t> item_group =
      eval_.data_.PopularityGroups(num_groups);
  const std::vector<std::vector<uint32_t>>& rankings = RankingsAtDefaultK();
  std::vector<double> acc(num_groups, 0.0);
  for (size_t t = 0; t < rankings.size(); ++t) {
    const auto test_items = eval_.data_.TestItems(eval_.test_users_[t]);
    AccumulateGroupNdcg(rankings[t], test_items, eval_.k_, item_group, acc);
  }
  if (!rankings.empty()) {
    for (double& x : acc) x /= static_cast<double>(rankings.size());
  }
  return acc;
}

std::vector<uint32_t> Evaluator::Pass::TopKForUser(uint32_t user) {
  return RankUsers({&user, 1}, eval_.k_)[0];
}

std::vector<double> Evaluator::Pass::ItemExposure() {
  const std::vector<std::vector<uint32_t>>& rankings = RankingsAtDefaultK();
  std::vector<double> exposure(eval_.data_.num_items(), 0.0);
  for (const std::vector<uint32_t>& ranking : rankings) {
    for (uint32_t item : ranking) exposure[item] += 1.0;
  }
  return exposure;
}

Evaluator::Pass Evaluator::BeginPass(const EmbeddingModel& model) const {
  return Pass(*this, model);
}

Evaluator::Pass Evaluator::BeginPassOn(
    std::shared_ptr<const serve::ModelSnapshot> snapshot) const {
  return Pass(*this, std::move(snapshot));
}

TopKMetrics Evaluator::Evaluate(const EmbeddingModel& model) const {
  return BeginPass(model).Evaluate();
}

TopKMetrics Evaluator::EvaluateAtK(const EmbeddingModel& model,
                                   uint32_t k) const {
  return BeginPass(model).EvaluateAtK(k);
}

std::vector<double> Evaluator::GroupNdcg(const EmbeddingModel& model,
                                         uint32_t num_groups) const {
  return BeginPass(model).GroupNdcg(num_groups);
}

std::vector<uint32_t> Evaluator::TopKForUser(const EmbeddingModel& model,
                                             uint32_t user) const {
  return BeginPass(model).TopKForUser(user);
}

std::vector<double> Evaluator::ItemExposure(const EmbeddingModel& model) const {
  return BeginPass(model).ItemExposure();
}

}  // namespace bslrec
