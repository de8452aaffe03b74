// Tests for the serving layer: snapshot construction, the sharded
// top-k scoring core, and the inference service's batching, seen-item
// filtering, cutoff-prefix reuse, and thread-count determinism.
#include "serve/inference_service.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "math/vec.h"
#include "models/mf.h"
#include "serve/model_snapshot.h"
#include "serve/topk_scorer.h"
#include "test_util.h"

namespace bslrec {
namespace {

using serve::CatalogScorer;
using serve::InferenceService;
using serve::ModelSnapshot;
using serve::ScoredItem;
using serve::ServeConfig;
using serve::TopKRequest;
using serve::TopKResponse;

// A dataset big enough that item shards and thread counts both matter.
Dataset MediumDataset(uint64_t seed = 11) {
  SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_clusters = 5;
  cfg.avg_items_per_user = 10.0;
  cfg.seed = seed;
  return GenerateSynthetic(cfg).dataset;
}

ServeConfig Config(size_t threads, uint32_t items_per_shard = 16,
                   uint32_t max_k = 20, bool cache = true) {
  ServeConfig cfg;
  cfg.max_k = max_k;
  cfg.items_per_shard = items_per_shard;
  cfg.cache_rankings = cache;
  cfg.runtime.num_threads = threads;
  return cfg;
}

TopKRequest Req(uint32_t user, uint32_t k, bool filter_seen = true,
                std::span<const uint32_t> extra_seen = {}) {
  TopKRequest req;
  req.user = user;
  req.k = k;
  req.filter_seen = filter_seen;
  req.extra_seen = extra_seen;
  return req;
}

void ExpectSameResponse(const TopKResponse& a, const TopKResponse& b,
                        const std::string& what) {
  ASSERT_EQ(a.items.size(), b.items.size()) << what;
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i], b.items[i]) << what << " rank " << i;
    // Bit-identical, not approximately equal: the determinism contract.
    EXPECT_EQ(a.scores[i], b.scores[i]) << what << " rank " << i;
  }
}

TEST(ModelSnapshot, RowsAreUnitNorm) {
  const Dataset d = MediumDataset();
  Rng rng(1);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(2);
  const ModelSnapshot snap(model, pool);
  EXPECT_EQ(snap.num_users(), d.num_users());
  EXPECT_EQ(snap.num_items(), d.num_items());
  EXPECT_EQ(snap.dim(), 8u);
  for (uint32_t u = 0; u < snap.num_users(); ++u) {
    const float n = vec::Dot(snap.UserVec(u), snap.UserVec(u), snap.dim());
    EXPECT_NEAR(n, 1.0f, 1e-5f) << "user " << u;
  }
  for (uint32_t i = 0; i < snap.num_items(); ++i) {
    const float n = vec::Dot(snap.ItemVec(i), snap.ItemVec(i), snap.dim());
    EXPECT_NEAR(n, 1.0f, 1e-5f) << "item " << i;
  }
}

TEST(ModelSnapshot, IsImmutableCopyOfTheModel) {
  const Dataset d = testing::TinyDataset();
  Rng rng(2);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(1);
  const ModelSnapshot snap(model, pool);
  const std::vector<float> before(snap.ItemVec(0), snap.ItemVec(0) + 4);
  // Clobber the model; the snapshot must not move.
  for (ParamGrad& pg : model.Params()) pg.value->SetZero();
  model.Forward(rng);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(snap.ItemVec(0)[c], before[c]);
  }
}

TEST(TopKScorer, SelectTopKOrdersAndExcludes) {
  const float scores[] = {0.1f, 0.9f, 0.9f, 0.5f, -0.2f};
  const std::vector<uint32_t> exclude = {1};
  const std::vector<ScoredItem> top =
      serve::SelectTopK(scores, 0, 5, 3, exclude);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 2u);  // 0.9, id 1 excluded
  EXPECT_EQ(top[1].item, 3u);  // 0.5
  EXPECT_EQ(top[2].item, 0u);  // 0.1
}

// The non-excluded items of the scored block [lo, hi), in id order.
std::vector<ScoredItem> EligibleItems(const float* scores, uint32_t lo,
                                      uint32_t hi,
                                      std::span<const uint32_t> exclude) {
  std::vector<ScoredItem> all;
  for (uint32_t i = lo; i < hi; ++i) {
    if (!std::binary_search(exclude.begin(), exclude.end(), i)) {
      all.push_back({i, scores[i - lo]});
    }
  }
  return all;
}

void ExpectSameItems(const std::vector<ScoredItem>& got,
                     const std::vector<ScoredItem>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << what << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

TEST(TopKScorer, BoundedSelectorMatchesPartialSortOracle) {
  // Scores drawn from 5 values, so most items tie and the id
  // tie-break decides; the block starts at a non-zero id; exclusions
  // sit on both block edges, inside it and outside it on both sides.
  Rng rng(31);
  const uint32_t lo = 100, hi = 164;
  std::vector<float> scores(hi - lo);
  for (float& x : scores) x = 0.25f * static_cast<float>(rng.NextIndex(5));
  const std::vector<uint32_t> exclude = {3, 99, 100, 117, 118, 140, 163, 164,
                                         900};
  const uint32_t eligible = (hi - lo) - 5;  // 100, 117, 118, 140, 163
  std::vector<ScoredItem> scratch(7, {1, 1.0f}), out(3, {2, 2.0f});
  for (uint32_t k : {0u, 1u, 2u, 17u, eligible - 1, eligible, eligible + 1,
                     1000u}) {
    std::vector<ScoredItem> want =
        EligibleItems(scores.data(), lo, hi, exclude);
    const size_t kk = std::min<size_t>(k, want.size());
    std::partial_sort(want.begin(), want.begin() + kk, want.end(),
                      serve::ScoredBefore);
    want.resize(kk);
    EXPECT_EQ(want.size(), std::min(k, eligible));
    const std::string what = "k=" + std::to_string(k);
    ExpectSameItems(serve::SelectTopK(scores.data(), lo, hi, k, exclude),
                    want, what);
    serve::SelectTopKInto(scores.data(), lo, hi, k, exclude, scratch, out);
    ExpectSameItems(out, want, what + " (Into)");
    // Splitting the block into sorted lists and merging them back
    // gives the same k-set.
    std::vector<std::vector<ScoredItem>> lists;
    for (uint32_t a = lo; a < hi; a += 23) {
      const uint32_t b = std::min(hi, a + 23);
      lists.push_back(
          serve::SelectTopK(scores.data() + (a - lo), a, b, k, exclude));
    }
    ExpectSameItems(serve::MergeTopK(lists, k), want, what + " (merged)");
  }
  // All-excluded and empty blocks select nothing.
  std::vector<uint32_t> every(hi - lo);
  for (uint32_t i = lo; i < hi; ++i) every[i - lo] = i;
  EXPECT_TRUE(serve::SelectTopK(scores.data(), lo, hi, 5, every).empty());
  EXPECT_TRUE(serve::SelectTopK(scores.data(), lo, lo, 5, {}).empty());
}

// Scorer at dims the 16-lane tree really blocks (40 = two blocks plus a
// tail of 8, 128 = eight full blocks): BatchTopK of 1..17 queries must
// equal per-query TopK and a naive oracle (ref::Dot + full sort),
// bitwise, at every pool size and shard grain — which together change
// the query block size and the shards each worker scans.
void CheckScorerAgainstOracle(size_t dim) {
  const uint32_t num_items = 300;
  Rng rng(40 + dim);
  MfModel model(17, num_items, dim, rng);
  // Every odd item from 37 on repeats item (i % 37)'s embedding, so
  // scores tie across shards and worker heaps, and the id tie-break
  // decides between them.
  Matrix& item_table = *model.Params()[1].value;
  for (uint32_t i = 37; i < num_items; i += 2) {
    std::copy(item_table.Row(i % 37), item_table.Row(i % 37) + dim,
              item_table.Row(i));
  }
  model.Forward(rng);
  runtime::ThreadPool build_pool(2);
  const ModelSnapshot snap(model, build_pool);

  std::vector<std::vector<uint32_t>> excludes(17);
  std::vector<serve::ScoreQuery> queries;
  std::vector<std::vector<ScoredItem>> want;
  std::vector<float> scores(num_items);
  for (uint32_t u = 0; u < 17; ++u) {
    // Shard edges of grain 7 and 64, the catalog edges, and a few
    // random ids.
    excludes[u] = {0, 6, 7, 63, 64, num_items - 1};
    for (int e = 0; e < 4; ++e) {
      excludes[u].push_back(static_cast<uint32_t>(rng.NextIndex(num_items)));
    }
    std::sort(excludes[u].begin(), excludes[u].end());
    excludes[u].erase(std::unique(excludes[u].begin(), excludes[u].end()),
                      excludes[u].end());
    const uint32_t k = u == 16 ? num_items : 1 + (u * 7) % 40;
    queries.push_back({snap.UserVec(u), k, excludes[u]});
    for (uint32_t i = 0; i < num_items; ++i) {
      scores[i] = vec::ref::Dot(snap.UserVec(u), snap.ItemVec(i), dim);
    }
    std::vector<ScoredItem> all =
        EligibleItems(scores.data(), 0, num_items, excludes[u]);
    std::sort(all.begin(), all.end(), serve::ScoredBefore);
    all.resize(std::min<size_t>(k, all.size()));
    want.push_back(std::move(all));
  }

  for (size_t threads : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(threads);
    for (uint32_t grain : {1u, 7u, 64u, 2048u}) {
      const CatalogScorer scorer(snap, pool, grain);
      const std::string cfg = "dim " + std::to_string(dim) + ", " +
                              std::to_string(threads) + " threads, grain " +
                              std::to_string(grain);
      for (size_t nq = 1; nq <= queries.size(); ++nq) {
        const std::vector<std::vector<ScoredItem>> got =
            scorer.BatchTopK({queries.data(), nq});
        ASSERT_EQ(got.size(), nq);
        for (size_t q = 0; q < nq; ++q) {
          const std::string what = cfg + ", batch " + std::to_string(nq) +
                                   ", query " + std::to_string(q);
          ExpectSameItems(got[q], want[q], what);
          if (nq == queries.size()) {
            ExpectSameItems(scorer.TopK(queries[q]), want[q], what);
          }
        }
      }
    }
  }
}

TEST(TopKScorer, BatchMatchesPerQueryAndOracleAtDim40) {
  CheckScorerAgainstOracle(40);
}

TEST(TopKScorer, BatchMatchesPerQueryAndOracleAtDim128) {
  CheckScorerAgainstOracle(128);
}

TEST(TopKScorer, ShardSizeNeverChangesTheResult) {
  const Dataset d = MediumDataset();
  Rng rng(3);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(2);
  const ModelSnapshot snap(model, pool);
  const std::vector<uint32_t> exclude = d.TestUsers();  // arbitrary ids
  const serve::ScoreQuery query{snap.UserVec(7), 12, exclude};
  const CatalogScorer reference(snap, pool, d.num_items() + 1);
  const std::vector<ScoredItem> want = reference.TopK(query);
  ASSERT_EQ(want.size(), 12u);
  for (uint32_t shard : {1u, 7u, 16u, 64u}) {
    const CatalogScorer scorer(snap, pool, shard);
    const std::vector<ScoredItem> got = scorer.TopK(query);
    ASSERT_EQ(got.size(), want.size()) << "shard " << shard;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].item, want[i].item) << "shard " << shard;
      EXPECT_EQ(got[i].score, want[i].score) << "shard " << shard;
    }
  }
}

TEST(InferenceService, MatchesEvaluatorRankingsOnTheSameSnapshot) {
  const Dataset d = MediumDataset();
  Rng rng(4);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const uint32_t k = 15;
  const Evaluator eval(d, k, runtime::RuntimeConfig{2});
  Evaluator::Pass pass = eval.BeginPass(model);
  InferenceService service(d, model, Config(2));
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    const std::vector<uint32_t> want = pass.TopKForUser(u);
    const TopKResponse got = service.Handle(Req(u, k));
    ASSERT_EQ(got.items.size(), want.size()) << "user " << u;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.items[i], want[i]) << "user " << u << " rank " << i;
    }
  }
}

TEST(InferenceService, BatchedMatchesSingleRequests) {
  const Dataset d = MediumDataset();
  Rng rng(5);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  // Mixed batch: repeats, different cutoffs, a custom-filtered request.
  const std::vector<uint32_t> extra = {3, 40, 41};
  std::vector<TopKRequest> reqs;
  reqs.push_back(Req(5, 10));
  reqs.push_back(Req(9, 4));
  reqs.push_back(Req(5, 4));              // same user, smaller cutoff
  reqs.push_back(Req(12, 8, false));      // unfiltered
  reqs.push_back(Req(17, 6, true, extra));  // extra seen ids
  reqs.push_back(Req(5, 10));             // exact repeat

  InferenceService batched(d, model, Config(2));
  InferenceService single(d, model, Config(2));
  const std::vector<TopKResponse> got = batched.HandleBatch(reqs);
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t r = 0; r < reqs.size(); ++r) {
    ExpectSameResponse(got[r], single.Handle(reqs[r]),
                       "request " + std::to_string(r));
  }
}

TEST(InferenceService, BitIdenticalAcrossThreadCounts) {
  const Dataset d = MediumDataset();
  Rng rng(6);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  std::vector<TopKRequest> reqs;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    reqs.push_back(Req(u, 1 + u % 19));
  }
  InferenceService baseline(d, model, Config(1));
  const std::vector<TopKResponse> want = baseline.HandleBatch(reqs);
  for (size_t threads : {2u, 8u}) {
    InferenceService service(d, model, Config(threads));
    const std::vector<TopKResponse> got = service.HandleBatch(reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      ExpectSameResponse(got[r], want[r],
                         std::to_string(threads) + " threads, request " +
                             std::to_string(r));
    }
  }
}

TEST(InferenceService, FiltersSeenItemsPerRequest) {
  const Dataset d = MediumDataset();
  Rng rng(7);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(2));
  const uint32_t full_k = d.num_items();
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    // Default: no train positive may appear, and everything else does.
    const TopKResponse filtered = service.Handle(Req(u, full_k));
    EXPECT_EQ(filtered.items.size(),
              d.num_items() - d.TrainItems(u).size());
    for (uint32_t item : filtered.items) {
      EXPECT_FALSE(d.IsTrainPositive(u, item)) << "user " << u;
    }
    // Unfiltered: the whole catalog comes back.
    const TopKResponse all = service.Handle(Req(u, full_k, false));
    EXPECT_EQ(all.items.size(), d.num_items());
  }
  // extra_seen masks on top of the train positives.
  const TopKResponse base = service.Handle(Req(0, 5));
  const std::vector<uint32_t> extra = {base.items[0]};
  const TopKResponse masked = service.Handle(Req(0, 5, true, extra));
  for (uint32_t item : masked.items) {
    EXPECT_NE(item, extra[0]);
  }
  // With the top item masked, the rest of the list shifts up by one.
  ASSERT_GE(masked.items.size(), 4u);
  for (size_t i = 0; i + 1 < base.items.size() && i < masked.items.size();
       ++i) {
    EXPECT_EQ(masked.items[i], base.items[i + 1]);
  }
}

TEST(InferenceService, SmallerCutoffsArePrefixesAndReuseTheCache) {
  const Dataset d = MediumDataset();
  Rng rng(8);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  InferenceService warm(d, model, Config(2, 16, 20));
  const TopKResponse deep = warm.Handle(Req(4, 20));
  ASSERT_EQ(deep.items.size(), 20u);
  for (uint32_t k : {1u, 3u, 12u}) {
    const TopKResponse prefix = warm.Handle(Req(4, k));
    ASSERT_EQ(prefix.items.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(prefix.items[i], deep.items[i]) << "k " << k;
      EXPECT_EQ(prefix.scores[i], deep.scores[i]) << "k " << k;
    }
  }
  // A cold service answering the small cutoff directly must agree with
  // the warm cache-served prefix, and so must a cache-disabled one.
  InferenceService cold(d, model, Config(2, 16, 20));
  ExpectSameResponse(cold.Handle(Req(4, 12)), warm.Handle(Req(4, 12)), "cold");
  InferenceService uncached(d, model, Config(2, 16, 20, false));
  ExpectSameResponse(uncached.Handle(Req(4, 12)), warm.Handle(Req(4, 12)),
                     "uncached");
  // Cutoffs beyond max_k bypass the cache but stay consistent prefixes.
  const TopKResponse deeper = warm.Handle(Req(4, 30));
  ASSERT_EQ(deeper.items.size(), 30u);
  for (size_t i = 0; i < deep.items.size(); ++i) {
    EXPECT_EQ(deeper.items[i], deep.items[i]);
  }
}

TEST(InferenceService, CutoffLargerThanCatalogIsClamped) {
  const Dataset d = testing::TinyDataset();
  Rng rng(9);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(2, 4, 100));
  const TopKResponse resp = service.Handle(Req(0, 1000));
  EXPECT_EQ(resp.items.size(), d.num_items() - d.TrainItems(0).size());
  std::vector<uint32_t> sorted = resp.items;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(InferenceService, ServesWhileTheModelKeepsChanging) {
  const Dataset d = testing::TinyDataset();
  Rng rng(10);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(2, 4));
  const TopKResponse before = service.Handle(Req(1, 3));
  for (ParamGrad& pg : model.Params()) pg.value->SetZero();
  model.Forward(rng);
  ExpectSameResponse(service.Handle(Req(1, 3)), before, "after model change");
}

TEST(InferenceService, EmptyBatchIsANoOp) {
  const Dataset d = testing::TinyDataset();
  Rng rng(11);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(1, 4));
  EXPECT_TRUE(service.HandleBatch({}).empty());
}

}  // namespace
}  // namespace bslrec
