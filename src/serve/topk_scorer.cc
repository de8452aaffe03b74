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

// Fills `cand` with the non-excluded items of the scored block and
// partially sorts its top-min(k, size) prefix; returns the prefix size.
size_t SortTopCandidates(const float* scores, uint32_t lo, uint32_t hi,
                         uint32_t k, std::span<const uint32_t> exclude,
                         std::vector<ScoredItem>& cand) {
  cand.clear();
  cand.reserve(hi - lo);
  auto ex = exclude.begin();
  for (uint32_t i = lo; i < hi; ++i) {
    while (ex != exclude.end() && *ex < i) ++ex;
    if (ex != exclude.end() && *ex == i) continue;
    cand.push_back({i, scores[i - lo]});
  }
  const size_t kk = std::min<size_t>(k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + kk, cand.end(),
                    ScoredBefore);
  return kk;
}

}  // namespace

std::vector<ScoredItem> SelectTopK(const float* scores, uint32_t lo,
                                   uint32_t hi, uint32_t k,
                                   std::span<const uint32_t> exclude) {
  std::vector<ScoredItem> cand;
  cand.resize(SortTopCandidates(scores, lo, hi, k, exclude, cand));
  return cand;
}

std::vector<ScoredItem> SelectTopKWithScratch(
    const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
    std::span<const uint32_t> exclude, std::vector<ScoredItem>& scratch) {
  const size_t kk = SortTopCandidates(scores, lo, hi, k, exclude, scratch);
  return std::vector<ScoredItem>(scratch.begin(),
                                 scratch.begin() + static_cast<long>(kk));
}

void SelectTopKInto(const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
                    std::span<const uint32_t> exclude,
                    std::vector<ScoredItem>& scratch,
                    std::vector<ScoredItem>& out) {
  const size_t kk = SortTopCandidates(scores, lo, hi, k, exclude, scratch);
  out.assign(scratch.begin(), scratch.begin() + static_cast<long>(kk));
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
    std::span<const std::vector<ScoredItem>> shard_tops, uint32_t k) {
  size_t total = 0;
  for (const std::vector<ScoredItem>& st : shard_tops) total += st.size();
  std::vector<ScoredItem> all;
  all.reserve(total);
  for (const std::vector<ScoredItem>& st : shard_tops) {
    all.insert(all.end(), st.begin(), st.end());
  }
  const size_t kk = std::min<size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + kk, all.end(), ScoredBefore);
  all.resize(kk);
  return all;
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

  // Flat (query, item-shard) task grid with one per-shard output slot
  // per task and shard-sized buffers per worker (hoisted into scorer
  // scratch — steady-state scanning allocates nothing). Each slot is
  // written by exactly one task, so no synchronization is needed and
  // the serial per-query merge below is deterministic.
  shard_tops_.resize(queries.size() * num_shards);
  runtime::ParallelFor(
      pool_, 0, shard_tops_.size(), 1,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
        ShardScratch& ws = scratch_[worker];
        for (size_t t = lo; t < hi; ++t) {
          const size_t qi = t / num_shards;
          const ScoreQuery& q = queries[qi];
          const uint32_t item_lo =
              static_cast<uint32_t>((t % num_shards) * items_per_shard);
          const uint32_t item_hi =
              std::min<uint32_t>(n, item_lo + items_per_shard);
          ++ws.exact_shards;
          ws.scores.resize(items_per_shard);
          ScoreItemRange(snapshot_, q.q_hat, item_lo, item_hi,
                         ws.scores.data());
          SelectTopKInto(ws.scores.data(), item_lo, item_hi, q.k, q.exclude,
                         ws.cand, shard_tops_[t]);
        }
      });
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    out[qi] = MergeTopK(
        std::span<const std::vector<ScoredItem>>(
            shard_tops_.data() + qi * num_shards, num_shards),
        queries[qi].k);
  }
  return out;
}

}  // namespace bslrec::serve
