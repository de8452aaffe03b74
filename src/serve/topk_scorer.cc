#include "serve/topk_scorer.h"

#include <algorithm>

#include "math/check.h"
#include "math/vec.h"

namespace bslrec::serve {

void ScoreItemRange(const ModelSnapshot& snapshot, const float* q_hat,
                    uint32_t lo, uint32_t hi, float* out) {
  const size_t d = snapshot.dim();
  for (uint32_t i = lo; i < hi; ++i) {
    out[i - lo] = vec::Dot(q_hat, snapshot.ItemVec(i), d);
  }
}

namespace {

// Largest query block of an exact (block, shard) task: 8 query rows of
// dim 128 are 4 KiB, so a block and the item row being scored stay in
// L1 together.
constexpr size_t kMaxQueryBlock = 8;

// Bounded top-k: `heap` keeps the k ScoredBefore-best items offered so
// far as a max-heap under ScoredBefore, so its front is the worst item
// kept and an offer costs one comparison unless it beats that item.
void Offer(std::vector<ScoredItem>& heap, size_t k, ScoredItem c) {
  if (heap.size() < k) {
    heap.push_back(c);
    std::push_heap(heap.begin(), heap.end(), ScoredBefore);
  } else if (ScoredBefore(c, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), ScoredBefore);
    heap.back() = c;
    std::push_heap(heap.begin(), heap.end(), ScoredBefore);
  }
}

// Offers every non-excluded item of a scored block to `heap`, a bounded
// top-k heap that may already hold items of other blocks.
void OfferBlock(const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
                std::span<const uint32_t> exclude,
                std::vector<ScoredItem>& heap) {
  if (k == 0) return;
  auto ex = std::lower_bound(exclude.begin(), exclude.end(), lo);
  for (uint32_t i = lo; i < hi; ++i) {
    const ScoredItem c{i, scores[i - lo]};
    if (heap.size() == k && !ScoredBefore(c, heap.front())) continue;
    while (ex != exclude.end() && *ex < i) ++ex;
    if (ex != exclude.end() && *ex == i) continue;
    Offer(heap, k, c);
  }
}

// Fills `heap` with the top-k non-excluded items of the scored block,
// sorted by ScoredBefore.
void SelectTopKHeap(const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
                    std::span<const uint32_t> exclude,
                    std::vector<ScoredItem>& heap) {
  heap.clear();
  OfferBlock(scores, lo, hi, k, exclude, heap);
  std::sort_heap(heap.begin(), heap.end(), ScoredBefore);
}

}  // namespace

std::vector<ScoredItem> SelectTopK(const float* scores, uint32_t lo,
                                   uint32_t hi, uint32_t k,
                                   std::span<const uint32_t> exclude) {
  std::vector<ScoredItem> top;
  SelectTopKHeap(scores, lo, hi, k, exclude, top);
  return top;
}

void SelectTopKInto(const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
                    std::span<const uint32_t> exclude,
                    std::vector<ScoredItem>& scratch,
                    std::vector<ScoredItem>& out) {
  SelectTopKHeap(scores, lo, hi, k, exclude, scratch);
  out.assign(scratch.begin(), scratch.end());
}

namespace {

// One serial ANN query through the snapshot's IVF index: probes the
// top-nprobe lists, scans them (fp32 rows, or int8 codes under
// options.quantize), exact fp32 re-ranks the int8 candidates, and
// writes the top-k into `out`.
void IvfTopKInto(const ModelSnapshot& snapshot, const float* q_hat,
                 uint32_t k, std::span<const uint32_t> exclude,
                 const ScorerOptions& options, ShardScratch& ws,
                 std::vector<ScoredItem>& out) {
  const IvfIndex* ivf = snapshot.ivf();
  BSLREC_CHECK_MSG(ivf != nullptr,
                   "ANN scoring needs a snapshot built with "
                   "SnapshotOptions::ivf.build");
  const size_t d = snapshot.dim();
  const uint32_t nlist = ivf->nlist();
  ++ws.ivf_queries;
  out.clear();
  if (nlist == 0 || k == 0) return;

  // 1. Score every centroid with one fused scan, then pick the
  // top-nprobe lists under (score desc, centroid id asc).
  const uint32_t nprobe =
      std::min<uint32_t>(std::max<uint32_t>(options.nprobe, 1), nlist);
  ws.scores.resize(nlist);
  vec::DotBatch(q_hat, ivf->Centroids(), nlist, d, ws.scores.data());
  SelectTopKInto(ws.scores.data(), 0, nlist, nprobe, {}, ws.cand, ws.probes);

  // 2. Gather eligible candidates from the probed lists. Candidates
  // carry their grouped *position* in `item` until the final sort so
  // phase 2 can read the index's contiguous rows.
  float q_scale = 0.0f;
  if (options.quantize) {
    ws.q_codes.resize(d);
    q_scale = vec::QuantizeRow(q_hat, d, ws.q_codes.data());
  }
  ws.approx.clear();
  for (const ScoredItem& probe : ws.probes) {
    ++ws.ivf_lists;
    const uint32_t begin = ivf->ListOffset(probe.item);
    const uint32_t end = ivf->ListOffset(probe.item + 1);
    if (begin == end) continue;  // empty list
    const uint32_t m = end - begin;
    ws.scores.resize(m);
    if (options.quantize) {
      ws.idot.resize(m);
      vec::DotBatchI8(ws.q_codes.data(), ivf->Codes(begin), m, d,
                      ws.idot.data());
      for (uint32_t j = 0; j < m; ++j) {
        ws.scores[j] = static_cast<float>(ws.idot[j]) *
                       (q_scale * ivf->Scale(begin + j));
      }
    } else {
      vec::DotBatch(q_hat, ivf->Row(begin), m, d, ws.scores.data());
    }
    // Exclusion merge: list ids and the exclude span are both sorted
    // ascending, so one forward walk per list suffices.
    const uint32_t* ids = ivf->ItemIds(begin);
    auto ex = std::lower_bound(exclude.begin(), exclude.end(), ids[0]);
    for (uint32_t j = 0; j < m; ++j) {
      const uint32_t id = ids[j];
      while (ex != exclude.end() && *ex < id) ++ex;
      if (ex != exclude.end() && *ex == id) continue;
      ws.approx.push_back({begin + j, ws.scores[j]});
    }
  }
  ws.ivf_candidates += ws.approx.size();

  // 3. int8 lists: keep the top c = k + margin of the whole candidate
  // pool by approximate score (position tie-break — a fixed property
  // of the index, so still deterministic), then exact fp32 re-rank the
  // survivors. fp32 lists scored exactly already.
  size_t cc = ws.approx.size();
  if (options.quantize) {
    const uint32_t c = k > UINT32_MAX - kDefaultCandidateMargin
                           ? UINT32_MAX
                           : k + kDefaultCandidateMargin;
    cc = std::min<size_t>(c, ws.approx.size());
    std::partial_sort(ws.approx.begin(),
                      ws.approx.begin() + static_cast<long>(cc),
                      ws.approx.end(), ScoredBefore);
    for (size_t j = 0; j < cc; ++j) {
      ws.approx[j].score = vec::Dot(q_hat, ivf->Row(ws.approx[j].item), d);
    }
    ws.ivf_reranked += cc;
  }

  // 4. Map positions back to item ids, then the final top-k under the
  // strict (score desc, id asc) total order.
  for (size_t j = 0; j < cc; ++j) {
    ws.approx[j].item = ivf->ItemIdAt(ws.approx[j].item);
  }
  const size_t kk = std::min<size_t>(k, cc);
  std::partial_sort(ws.approx.begin(),
                    ws.approx.begin() + static_cast<long>(kk),
                    ws.approx.begin() + static_cast<long>(cc), ScoredBefore);
  out.assign(ws.approx.begin(), ws.approx.begin() + static_cast<long>(kk));
}

}  // namespace

std::vector<ScoredItem> MergeTopK(
    std::span<const std::vector<ScoredItem>> lists, uint32_t k) {
  std::vector<ScoredItem> heap;
  if (k == 0) return heap;
  for (const std::vector<ScoredItem>& list : lists) {
    for (const ScoredItem& c : list) {
      // Each list is sorted, so once an item is not kept, none after
      // it in the same list can be.
      if (heap.size() == k && !ScoredBefore(c, heap.front())) break;
      Offer(heap, k, c);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), ScoredBefore);
  return heap;
}

CatalogScorer::CatalogScorer(const ModelSnapshot& snapshot,
                             runtime::ThreadPool& pool,
                             uint32_t items_per_shard)
    : CatalogScorer(snapshot, pool,
                    ScorerOptions{.items_per_shard = items_per_shard}) {}

CatalogScorer::CatalogScorer(const ModelSnapshot& snapshot,
                             runtime::ThreadPool& pool,
                             const ScorerOptions& options)
    : snapshot_(snapshot),
      pool_(pool),
      options_(options),
      scratch_(pool.num_workers()) {
  BSLREC_CHECK(options.items_per_shard > 0);
  BSLREC_CHECK_MSG(!(options.quantize && options.exact),
                   "ScorerOptions::quantize selects int8 IVF lists and "
                   "needs exact = false");
  BSLREC_CHECK_MSG(options.exact || snapshot.ivf() != nullptr,
                   "ScorerOptions::exact = false requires a snapshot built "
                   "with SnapshotOptions::ivf.build");
}

CatalogScorer::Stats CatalogScorer::stats() const {
  Stats s;
  for (const ShardScratch& ws : scratch_) {
    s.exact_shards += ws.exact_shards;
    s.ivf_queries += ws.ivf_queries;
    s.ivf_lists += ws.ivf_lists;
    s.ivf_candidates += ws.ivf_candidates;
    s.ivf_reranked += ws.ivf_reranked;
  }
  return s;
}

void CatalogScorer::ResetStats() const {
  for (ShardScratch& ws : scratch_) {
    ws.exact_shards = 0;
    ws.ivf_queries = 0;
    ws.ivf_lists = 0;
    ws.ivf_candidates = 0;
    ws.ivf_reranked = 0;
  }
}

std::vector<ScoredItem> CatalogScorer::TopK(const ScoreQuery& query) const {
  return BatchTopK({&query, 1})[0];
}

std::vector<std::vector<ScoredItem>> CatalogScorer::BatchTopK(
    std::span<const ScoreQuery> queries) const {
  const uint32_t n = snapshot_.num_items();
  const uint32_t items_per_shard = options_.items_per_shard;
  const size_t num_shards =
      (static_cast<size_t>(n) + items_per_shard - 1) / items_per_shard;
  std::vector<std::vector<ScoredItem>> out(queries.size());
  if (queries.empty()) return out;

  if (!options_.exact) {
    // ANN: each query is one serial probe/scan/re-rank unit writing its
    // own output slot; the pool only fans out *across* queries, so the
    // responses are bit-identical for any thread count, shard grain
    // (unused here), or batch packing.
    runtime::ParallelFor(
        pool_, 0, queries.size(), 1,
        [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
          ShardScratch& ws = scratch_[worker];
          for (size_t qi = lo; qi < hi; ++qi) {
            IvfTopKInto(snapshot_, queries[qi].q_hat, queries[qi].k,
                        queries[qi].exclude, options_, ws, out[qi]);
          }
        });
    return out;
  }
  if (num_shards == 0) return out;

  // (query block x item shard) task grid. A task scores every item row
  // of its shard against every query of its block while the row is in
  // L1 (vec::DotTile), then offers each query's scores to the running
  // top-k heap its worker keeps for that query across all the shards it
  // scans, so a worker pays one bounded selection per query instead of
  // one per shard. Blocks are as large as keeps every worker busy, up
  // to kMaxQueryBlock.
  //
  // Which worker scans which shard varies from run to run, but each
  // score is the same vec::Dot whatever the block, and a query's answer
  // is the top-k of the union of its workers' heaps — unique under the
  // strict (score, id) order whichever way the items were split — so
  // neither the worker count, the block size nor scheduling ever
  // changes a result. Buffers live in per-worker scratch and
  // worker_tops_, so steady-state scanning allocates nothing.
  const size_t nq = queries.size();
  const size_t workers = pool_.num_workers();
  const size_t block =
      std::clamp<size_t>(nq * num_shards / workers, 1, kMaxQueryBlock);
  const size_t num_blocks = (nq + block - 1) / block;
  const size_t d = snapshot_.dim();
  worker_tops_.resize(nq * workers);
  for (std::vector<ScoredItem>& top : worker_tops_) top.clear();
  runtime::ParallelFor(
      pool_, 0, num_blocks * num_shards, 1,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
        ShardScratch& ws = scratch_[worker];
        for (size_t t = lo; t < hi; ++t) {
          const size_t shard = t % num_shards;
          const size_t q_lo = (t / num_shards) * block;
          const size_t q_hi = std::min(nq, q_lo + block);
          const uint32_t item_lo =
              static_cast<uint32_t>(shard * items_per_shard);
          const uint32_t item_hi =
              std::min<uint32_t>(n, item_lo + items_per_shard);
          const size_t m = item_hi - item_lo;
          const float* q_hats[kMaxQueryBlock];
          for (size_t qi = q_lo; qi < q_hi; ++qi) {
            q_hats[qi - q_lo] = queries[qi].q_hat;
          }
          ws.exact_shards += q_hi - q_lo;
          ws.scores.resize((q_hi - q_lo) * m);
          vec::DotTile(q_hats, q_hi - q_lo, snapshot_.ItemVec(item_lo), m, d,
                       ws.scores.data(), m);
          for (size_t qi = q_lo; qi < q_hi; ++qi) {
            OfferBlock(ws.scores.data() + (qi - q_lo) * m, item_lo, item_hi,
                       queries[qi].k, queries[qi].exclude,
                       worker_tops_[qi * workers + worker]);
          }
        }
      });
  // Per-query merges touch only their own query's heaps and output
  // slot. They run on the pool when there are several queries and
  // several shards; with one shard each query has one non-empty heap,
  // and a pool round trip would cost more than sorting it.
  const auto merge = [&](size_t qi) {
    std::vector<ScoredItem>* tops = worker_tops_.data() + qi * workers;
    for (size_t w = 0; w < workers; ++w) {
      std::sort_heap(tops[w].begin(), tops[w].end(), ScoredBefore);
    }
    out[qi] = MergeTopK({tops, workers}, queries[qi].k);
  };
  if (nq > 1 && num_shards > 1) {
    runtime::ParallelFor(pool_, 0, nq, 1,
                         [&](size_t lo, size_t /*hi*/, size_t /*shard*/,
                             size_t /*worker*/) { merge(lo); });
  } else {
    for (size_t qi = 0; qi < nq; ++qi) merge(qi);
  }
  return out;
}

}  // namespace bslrec::serve
