// Read-only model snapshot for scoring.
//
// A `ModelSnapshot` freezes the state an inference request needs: the
// L2-normalized final user and item tables copied out of an
// `EmbeddingModel` at a single point in time. Once built, the snapshot
// is immutable and fully self-contained — the source model may keep
// training, be checkpointed, or be destroyed without invalidating
// outstanding readers.
//
// Both the `InferenceService` (serving traffic) and the `Evaluator`
// (offline metrics) consume the same snapshot type, so "what the
// evaluator measured" and "what the service returns" are the same
// numbers by construction: cosine scores are Dot(user_row, item_row)
// over rows normalized by the identical `vec::Normalize` kernel.
//
// Construction normalizes both tables in parallel over a
// `runtime::ThreadPool`; rows are independent, so the fill is
// bit-identical for any worker count.
//
// `SnapshotOptions::ivf` additionally builds an IVF coarse index
// (ivf_index.h) over the normalized item table at freeze time. It
// drives ANN retrieval (`ScorerOptions::exact = false`) and carries its
// own grouped fp32 rows and int8 codes, so the snapshot itself holds
// only the fp32 tables.
#ifndef BSLREC_SERVE_MODEL_SNAPSHOT_H_
#define BSLREC_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "math/matrix.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "serve/ivf_index.h"

namespace bslrec::serve {

struct SnapshotOptions {
  // With ivf.build, also build the IVF coarse index over the item table
  // (enables ScorerOptions::exact = false). See ivf_index.h.
  IvfBuildOptions ivf;
};

class ModelSnapshot {
 public:
  // Copies and normalizes `model`'s final embeddings (the model must
  // have run Forward). `pool` is only used during construction.
  ModelSnapshot(const EmbeddingModel& model, runtime::ThreadPool& pool,
                SnapshotOptions options = {});

  uint32_t num_users() const { return num_users_; }
  uint32_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }

  // Unit-norm embedding rows (zero vectors stay zero). Each table is
  // one contiguous row-major block: ItemVec(i) == ItemVec(0) + i * dim().
  const float* UserVec(uint32_t u) const { return user_normed_.Row(u); }
  const float* ItemVec(uint32_t i) const { return item_normed_.Row(i); }

  // IVF coarse index (non-null iff built with ivf.build).
  const IvfIndex* ivf() const { return ivf_.get(); }

 private:
  uint32_t num_users_;
  uint32_t num_items_;
  size_t dim_;
  Matrix user_normed_;
  Matrix item_normed_;
  std::unique_ptr<const IvfIndex> ivf_;
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_MODEL_SNAPSHOT_H_
