// Sharded full-catalog top-k scoring.
//
// The scoring core behind both the inference service and the offline
// evaluator: cosine-score every catalog item of a `ModelSnapshot`
// against a unit query vector and select the k best under the strict
// total order (score descending, item id ascending), optionally
// skipping an excluded (already seen) item set.
//
// `CatalogScorer` parallelizes one or many queries over a
// `runtime::ThreadPool` by splitting the catalog into *fixed-grain item
// shards* and the batch into *query blocks*: each (block, shard) task
// scores its shard's `items_per_shard` items against every query of
// the block into a per-worker buffer (each item row is read once per
// block, while it is in L1) and offers each query's scores to a bounded
// top-k heap that its worker keeps for that query across every shard
// it scans; a query's worker heaps are then merged. Every score is the
// same `vec::Dot` whatever the block, and a query's answer is the
// top-k of the union of all its eligible items — unique under the
// strict order below, whichever worker scanned which shard — so
// results are bit-identical for any `num_threads`, block size and
// schedule (the determinism contract of runtime/thread_pool.h).
// A worker never needs a score buffer larger than one block of shards,
// so catalogs bigger than any single buffer still serve fine.
//
// This is the one place that departs from thread_pool.h's "one output
// slot per shard" pattern: the pattern exists to fix the order of
// floating-point reductions, and top-k selection has none — the result
// is a set fixed by a total order, not a sum. Keeping one heap per
// worker instead of one per shard means a worker admits only the items
// that beat the best k it has seen in *all* its shards so far.
//
// Because (score, id) is a strict total order over the catalog, the
// global top-k is unique and has the *prefix property*: the top-k list
// is exactly the first k entries of any top-k' list with k' >= k. The
// inference service's cutoff-prefix reuse and the evaluator's cached
// rankings both lean on this.
//
// There are two scoring paths: this exact sharded scan, which every
// ranking is measured against, and IVF below, the one approximate tier
// on the measured (recall, req/s) frontier (bench_serve sweeps it).
//
// ---- IVF approximate retrieval (ScorerOptions::exact = false) ----
//
// With a snapshot built with SnapshotOptions::ivf, BatchTopK routes
// each query through the snapshot's IvfIndex (ivf_index.h) instead of
// the sharded full scan:
//
//   1. score all nlist centroids with one fused vec::DotBatch;
//   2. visit the top-nprobe lists under (score desc, centroid id asc);
//   3. scan each list's grouped rows contiguously — fp32 by default,
//      or the index's int8 codes (vec::DotBatchI8) under
//      ScorerOptions::quantize, in which case the top
//      k + kDefaultCandidateMargin of the gathered pool by approximate
//      score are kept;
//   4. exact fp32 re-rank the surviving candidates and emit the top-k
//      under the same (score desc, item id asc) total order.
//
// Items outside the probed lists are invisible, so ANN responses may
// diverge from the exact ranking — recall@k-vs-exact is the quality
// metric (bench_serve sweeps (nlist, nprobe) for both list forms).
// Determinism, however, stays absolute: the index is frozen at
// snapshot time, each query's probe/scan/re-rank runs serially into
// its own output slot, and the pool only parallelizes *across*
// queries — so ANN responses are bit-identical across thread counts,
// shard grains (items_per_shard is not used at all), and batch
// packings: same index => same lists => same candidates => same total
// order. With nprobe >= nlist and fp32 lists, every item is visible
// and the response equals the exact scan's bitwise.
#ifndef BSLREC_SERVE_TOPK_SCORER_H_
#define BSLREC_SERVE_TOPK_SCORER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/thread_pool.h"
#include "serve/model_snapshot.h"

namespace bslrec::serve {

// One catalog item with its cosine score for some query.
struct ScoredItem {
  uint32_t item;
  float score;
};

// Strict total order used everywhere: higher score first, ties broken
// by ascending item id (deterministic).
inline bool ScoredBefore(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

// Serial scoring kernel: out[i - lo] = cos(q_hat, item i) for every
// item in [lo, hi) — bitwise the scores CatalogScorer's exact scan
// ranks by. `q_hat` must be unit-norm with snapshot dim.
void ScoreItemRange(const ModelSnapshot& snapshot, const float* q_hat,
                    uint32_t lo, uint32_t hi, float* out);

// Selects the top-k of a scored block: `scores[i - lo]` is item i's
// score for i in [lo, hi). Ids listed in `exclude` (sorted ascending;
// entries outside the block are ignored) are skipped. Returns at most
// k items ordered by ScoredBefore. A bounded k-heap keeps the best
// items seen so far; an item enters only if it beats the worst of
// them, so a block costs one comparison per item plus O(log k) per
// admission, with no block-sized copy.
std::vector<ScoredItem> SelectTopK(const float* scores, uint32_t lo,
                                   uint32_t hi, uint32_t k,
                                   std::span<const uint32_t> exclude);

// Allocation-free form: the heap lives in caller-owned `scratch` and
// the result lands in `out` (both cleared on entry, capacity reused).
void SelectTopKInto(const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
                    std::span<const uint32_t> exclude,
                    std::vector<ScoredItem>& scratch,
                    std::vector<ScoredItem>& out);

// Reduction of top-k candidate lists, each sorted by ScoredBefore (as
// SelectTopK returns them), into the global top-k. The result is the
// unique ScoredBefore-minimal k-set, so it is independent of how
// candidates were partitioned into lists.
std::vector<ScoredItem> MergeTopK(
    std::span<const std::vector<ScoredItem>> lists, uint32_t k);

// One full-catalog top-k query against a snapshot.
struct ScoreQuery {
  const float* q_hat;  // unit query vector, snapshot dim
  uint32_t k;
  std::span<const uint32_t> exclude;  // sorted ascending ids to skip
};

// Candidates beyond k that survive an int8 IVF list scan into the
// exact fp32 re-rank. Larger margins recover more near-boundary items
// at the cost of more fp32 re-scores.
inline constexpr uint32_t kDefaultCandidateMargin = 64;

// Default coarse lists visited per ANN query.
inline constexpr uint32_t kDefaultNprobe = 8;

struct ScorerOptions {
  // Catalog items per scoring shard (per-worker buffer size); exact
  // mode only.
  uint32_t items_per_shard = 2048;
  // Scan the IVF lists' int8 codes instead of their fp32 rows, then
  // exact fp32 re-rank the top k + kDefaultCandidateMargin. ANN only:
  // rejected when exact.
  bool quantize = false;
  // false = ANN: retrieve through the snapshot's IVF index (the
  // snapshot must have been built with SnapshotOptions::ivf.build)
  // instead of scanning the full catalog.
  bool exact = true;
  // Coarse lists visited per ANN query (clamped to [1, nlist]);
  // ignored when exact.
  uint32_t nprobe = kDefaultNprobe;
};

// Reusable per-worker buffers for one task stream; also accumulates the
// owner's scan statistics. All buffers keep their capacity across
// calls, so steady-state scanning allocates nothing.
struct ShardScratch {
  std::vector<float> scores;       // fp32 scores (shard / centroid / list)
  std::vector<int32_t> idot;       // one integer dot per int8 list row
  std::vector<ScoredItem> approx;  // eligible ANN candidates
  std::vector<ScoredItem> cand;    // SelectTopKInto heap scratch
  std::vector<ScoredItem> probes;  // top-nprobe centroids (ivf)
  std::vector<int8_t> q_codes;     // int8 query codes (ivf)
  // Per-mode counters (summed into CatalogScorer::Stats):
  uint64_t exact_shards = 0;       // exact fp32 (query, shard) scans
  uint64_t ivf_queries = 0;        // ANN queries answered
  uint64_t ivf_lists = 0;          // coarse lists probed (incl. empty)
  uint64_t ivf_candidates = 0;     // eligible candidates gathered
  uint64_t ivf_reranked = 0;       // candidates exact fp32 re-ranked
};

class CatalogScorer {
 public:
  // Items per scoring shard; the per-worker score buffer holds one
  // shard per query of a block.
  static constexpr uint32_t kDefaultItemsPerShard = 2048;

  // Per-mode scan counters, cumulative since construction (or the last
  // ResetStats). Each scoring mode ticks only its own counters, so a
  // scorer's stats identify the path it actually ran.
  struct Stats {
    uint64_t exact_shards = 0;     // exact fp32 (query, shard) scans
    uint64_t ivf_queries = 0;      // ANN queries answered
    uint64_t ivf_lists = 0;        // coarse lists probed (incl. empty)
    uint64_t ivf_candidates = 0;   // eligible list candidates gathered
    // Phase-2 exact re-scores of ANN candidates. Zero in fp32 ANN mode,
    // where the list scan itself already produced exact scores.
    uint64_t ivf_reranked = 0;
  };

  // `snapshot` and `pool` must outlive the scorer. The pool is driven
  // from the calling thread — one TopK/BatchTopK at a time (they are
  // const but share mutable per-worker scratch).
  CatalogScorer(const ModelSnapshot& snapshot, runtime::ThreadPool& pool,
                uint32_t items_per_shard = kDefaultItemsPerShard);
  CatalogScorer(const ModelSnapshot& snapshot, runtime::ThreadPool& pool,
                const ScorerOptions& options);

  const ScorerOptions& options() const { return options_; }
  // Sums the per-worker counters. Reset semantics: counters accumulate
  // across calls until ResetStats() zeroes them; both must be called
  // from the scorer's single driving thread *between* scoring calls
  // (they read/write the same per-worker scratch the scans use).
  Stats stats() const;
  // const like the scoring calls: it touches only the mutable
  // per-worker scratch, under the same one-driver contract.
  void ResetStats() const;

  // Full-catalog top-k for one query.
  std::vector<ScoredItem> TopK(const ScoreQuery& query) const;

  // Batched queries: parallelizes over the (query block x item-shard)
  // task grid, so a single large query and many small ones saturate
  // the pool equally well (ANN: one serial task per query). A block
  // holds clamp(queries x shards / workers, 1, 8) queries, so small
  // batches over few shards still spread across every worker. Result i
  // answers queries[i], bit-identically to TopK(queries[i]).
  std::vector<std::vector<ScoredItem>> BatchTopK(
      std::span<const ScoreQuery> queries) const;

 private:
  const ModelSnapshot& snapshot_;
  runtime::ThreadPool& pool_;
  ScorerOptions options_;
  // Per-worker buffers and per-call structures, hoisted out of
  // BatchTopK so steady-state scanning performs no allocation (slots
  // and scratch keep their capacity across calls). Mutable because
  // scoring is logically const; guarded by the one-call-at-a-time
  // contract above.
  mutable std::vector<ShardScratch> scratch_;        // one per worker
  // Running top-k heap of each (query, worker) pair, at
  // [query * num_workers + worker].
  mutable std::vector<std::vector<ScoredItem>> worker_tops_;
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_TOPK_SCORER_H_
