// Locks the graph::PropagationEngine determinism contract
// (graph/propagation.h design notes): the sharded kernels are bit
// identical to the serial ones for any worker count, and every graph
// backbone's forward, backward, and training history are invariant to
// the thread budget.
#include "graph/propagation.h"

#include <cstring>
#include <memory>
#include <vector>

#include "core/losses.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "gtest/gtest.h"
#include "models/contrastive.h"
#include "models/lightgcn.h"
#include "models/ngcf.h"
#include "sampling/negative_sampler.h"
#include "test_util.h"
#include "train/trainer.h"

namespace bslrec {
namespace {

SparseMatrix RandomSparse(size_t rows, size_t cols, size_t nnz, Rng& rng) {
  std::vector<uint32_t> r, c;
  std::vector<float> v;
  for (size_t k = 0; k < nnz; ++k) {
    r.push_back(static_cast<uint32_t>(rng.NextIndex(rows)));
    c.push_back(static_cast<uint32_t>(rng.NextIndex(cols)));
    v.push_back(static_cast<float>(rng.NextGaussian()));
  }
  return SparseMatrix(rows, cols, r, c, v);
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(SparseMatrixParallel, MultiplyMatchesSerialBitwise) {
  Rng rng(1);
  const SparseMatrix a = RandomSparse(300, 211, 2500, rng);
  Matrix x(211, 7);
  x.InitGaussian(rng, 1.0f);
  Matrix serial(300, 7);
  a.Multiply(x, serial);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    runtime::ThreadPool pool(threads);
    for (size_t grain : {size_t{17}, size_t{128}}) {
      Matrix out(300, 7);
      a.Multiply(x, out, pool, grain);
      ExpectBitIdentical(serial, out);
    }
  }
}

TEST(SparseMatrixParallel, TransposeMultiplyMatchesSerialBitwise) {
  Rng rng(2);
  const SparseMatrix a = RandomSparse(180, 260, 2000, rng);
  Matrix x(180, 5);
  x.InitGaussian(rng, 1.0f);
  Matrix serial(260, 5);
  a.TransposeMultiply(x, serial);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    runtime::ThreadPool pool(threads);
    Matrix out(260, 5);
    a.TransposeMultiply(x, out, pool, 31);
    ExpectBitIdentical(serial, out);
  }
}

TEST(SparseMatrixParallel, TransposeGatherMatchesDenseReference) {
  // The CSC gather must compute the same product as an explicit dense
  // transpose — protects the transpose-index construction.
  Rng rng(3);
  const SparseMatrix a = RandomSparse(40, 30, 300, rng);
  Matrix x(40, 3);
  x.InitGaussian(rng, 1.0f);
  Matrix out(30, 3);
  a.TransposeMultiply(x, out);
  // Dense reference in double precision.
  std::vector<double> dense(30 * 3, 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k) {
      const size_t c = a.col_indices()[k];
      for (size_t j = 0; j < 3; ++j) {
        dense[c * 3 + j] +=
            static_cast<double>(a.values()[k]) * x.At(r, j);
      }
    }
  }
  for (size_t k = 0; k < dense.size(); ++k) {
    EXPECT_NEAR(out.data()[k], dense[k], 1e-4) << "entry " << k;
  }
}

TEST(PropagationEngine, InlineMatchesPooledBitwise) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(4);
  Matrix base(g.num_nodes(), 6);
  base.InitGaussian(rng, 1.0f);
  graph::PropagationEngine inline_engine;  // no pool: serial shards
  Matrix ref(g.num_nodes(), 6);
  inline_engine.MeanPropagate(g.Adjacency(), base, 3, ref);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    runtime::ThreadPool pool(threads);
    graph::PropagationEngine engine(&pool);
    Matrix out(g.num_nodes(), 6);
    engine.MeanPropagate(g.Adjacency(), base, 3, out);
    ExpectBitIdentical(ref, out);
  }
}

TEST(PropagationEngine, ManyShardMeanPropagateIsThreadCountInvariant) {
  // Enough rows and work per hop that every worker count runs many row
  // shards concurrently: a hop that reads rows another shard of the
  // same hop is writing (e.g. no ping-pong buffer) diverges here.
  SyntheticConfig c;
  c.num_users = 1500;
  c.num_items = 1000;
  c.avg_items_per_user = 20.0;
  c.seed = 12;
  const BipartiteGraph g(GenerateSynthetic(c).dataset);
  Rng rng(8);
  Matrix base(g.num_nodes(), 32);
  base.InitGaussian(rng, 1.0f);
  const size_t kGrain = 16;
  graph::PropagationEngine inline_engine(nullptr, kGrain);
  Matrix ref(g.num_nodes(), 32);
  inline_engine.MeanPropagate(g.Adjacency(), base, 3, ref);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    runtime::ThreadPool pool(threads);
    graph::PropagationEngine engine(&pool, kGrain);
    for (int rep = 0; rep < 3; ++rep) {
      Matrix out(g.num_nodes(), 32);
      engine.MeanPropagate(g.Adjacency(), base, 3, out);
      ExpectBitIdentical(ref, out);
    }
  }
}

TEST(PropagationEngine, MeanPropagateMatchesReferenceBitwise) {
  // Hand-rolled mean-of-powers with the serial SpMM must reproduce the
  // engine's fused kernel exactly.
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(5);
  const int kLayers = 3;
  Matrix base(g.num_nodes(), 4);
  base.InitGaussian(rng, 1.0f);
  Matrix ref = base;
  Matrix cur = base, next(g.num_nodes(), 4);
  for (int l = 1; l <= kLayers; ++l) {
    g.Adjacency().Multiply(cur, next);
    std::swap(cur, next);
    ref.AddScaled(cur, 1.0f);
  }
  const float inv = 1.0f / static_cast<float>(kLayers + 1);
  for (size_t k = 0; k < ref.size(); ++k) ref.data()[k] *= inv;

  graph::PropagationEngine engine;
  Matrix out(g.num_nodes(), 4);
  engine.MeanPropagate(g.Adjacency(), base, kLayers, out);
  ExpectBitIdentical(ref, out);
}

TEST(PropagationEngine, MeanPropagateAccumAddsOperatorResult) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(6);
  Matrix grad(g.num_nodes(), 3), accum(g.num_nodes(), 3);
  grad.InitGaussian(rng, 1.0f);
  accum.InitGaussian(rng, 1.0f);
  const Matrix before = accum;
  graph::PropagationEngine engine;
  Matrix op(g.num_nodes(), 3);
  engine.MeanPropagate(g.Adjacency(), grad, 2, op);
  engine.MeanPropagateAccum(g.Adjacency(), grad, 2, accum);
  for (size_t k = 0; k < accum.size(); ++k) {
    EXPECT_FLOAT_EQ(accum.data()[k], before.data()[k] + op.data()[k]);
  }
}

TEST(PropagationEngine, WorkspaceIsPersistentAcrossCalls) {
  graph::PropagationEngine engine;
  Matrix& a = engine.Workspace(0, 10, 4);
  a.At(3, 2) = 7.0f;
  const float* data = a.data();
  // Registering a later slot must not move earlier ones.
  engine.Workspace(5, 6, 6);
  Matrix& again = engine.Workspace(0, 10, 4);
  EXPECT_EQ(again.data(), data);           // same buffer: no reallocation
  EXPECT_FLOAT_EQ(again.At(3, 2), 7.0f);   // contents preserved
  Matrix& reshaped = engine.Workspace(0, 4, 4);
  EXPECT_FLOAT_EQ(reshaped.At(3, 2), 0.0f);  // reshaping zero-fills
}

TEST(PropagationEngine, DenseMatMulMatchesSerialBitwise) {
  Rng rng(7);
  Matrix a(97, 12), b(12, 12), bt(12, 12);
  a.InitGaussian(rng, 1.0f);
  b.InitGaussian(rng, 1.0f);
  bt.InitGaussian(rng, 1.0f);
  Matrix ref(97, 12);
  MatMul(a, b, ref);
  MatMulTAccum(a, bt, ref);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    runtime::ThreadPool pool(threads);
    graph::PropagationEngine engine(&pool, /*row_grain=*/16);
    Matrix out(97, 12);
    engine.DenseMatMul(a, b, out, /*accumulate=*/false);
    engine.DenseMatMulTAccum(a, bt, out);
    ExpectBitIdentical(ref, out);
  }
}

// ---- backbone-level invariance -------------------------------------------

enum class Backbone { kLightGcn, kNgcf, kSgl, kSimGcl, kLightGcl };

const Backbone kAllBackbones[] = {Backbone::kLightGcn, Backbone::kNgcf,
                                  Backbone::kSgl, Backbone::kSimGcl,
                                  Backbone::kLightGcl};

const char* BackboneName(Backbone b) {
  switch (b) {
    case Backbone::kLightGcn:
      return "LightGCN";
    case Backbone::kNgcf:
      return "NGCF";
    case Backbone::kSgl:
      return "SGL";
    case Backbone::kSimGcl:
      return "SimGCL";
    case Backbone::kLightGcl:
      return "LightGCL";
  }
  return "?";
}

Dataset SmallDataset() {
  SyntheticConfig c;
  c.num_users = 30;
  c.num_items = 24;
  c.avg_items_per_user = 6.0;
  c.seed = 11;
  return GenerateSynthetic(c).dataset;
}

std::unique_ptr<EmbeddingModel> MakeBackbone(Backbone b,
                                             const BipartiteGraph& g,
                                             Rng& rng) {
  const size_t dim = 8;
  const int layers = 2;
  ContrastiveConfig cc;
  cc.num_layers = layers;
  cc.svd_rank = 4;
  switch (b) {
    case Backbone::kLightGcn:
      return std::make_unique<LightGcnModel>(g, dim, layers, rng);
    case Backbone::kNgcf:
      return std::make_unique<NgcfModel>(g, dim, layers, rng);
    case Backbone::kSgl:
      cc.kind = AugmentationKind::kEdgeDropout;
      return std::make_unique<ContrastiveModel>(g, dim, cc, rng);
    case Backbone::kSimGcl:
      cc.kind = AugmentationKind::kEmbeddingNoise;
      return std::make_unique<ContrastiveModel>(g, dim, cc, rng);
    case Backbone::kLightGcl:
      cc.kind = AugmentationKind::kSvdView;
      return std::make_unique<ContrastiveModel>(g, dim, cc, rng);
  }
  return nullptr;
}

// One forward + aux + backward pass at the given worker count; returns
// the concatenated final embeddings and parameter gradients.
std::vector<float> RunPass(Backbone b, const Dataset& data, size_t threads) {
  const BipartiteGraph g(data);
  Rng init_rng(21);
  std::unique_ptr<EmbeddingModel> model = MakeBackbone(b, g, init_rng);
  runtime::ThreadPool pool(threads);
  model->SetRuntime(&pool);

  Rng pass_rng(22);
  model->Forward(pass_rng);
  model->ZeroGrad();
  // Deterministic synthetic upstream gradients on the final embeddings.
  for (uint32_t u = 0; u < model->num_users(); ++u) {
    for (size_t k = 0; k < model->dim(); ++k) {
      model->UserGrad(u)[k] =
          0.01f * static_cast<float>((u * 31 + k) % 17) - 0.08f;
    }
  }
  for (uint32_t i = 0; i < model->num_items(); ++i) {
    for (size_t k = 0; k < model->dim(); ++k) {
      model->ItemGrad(i)[k] =
          0.01f * static_cast<float>((i * 13 + k) % 19) - 0.09f;
    }
  }
  const std::vector<uint32_t> users = {0, 1, 2, 3, 4, 5};
  const std::vector<uint32_t> items = {0, 1, 2, 3, 4};
  model->AuxLossAndGrad(users, items, pass_rng);
  model->Backward();

  std::vector<float> out;
  const Matrix& fu = model->FinalUserMatrix();
  const Matrix& fi = model->FinalItemMatrix();
  out.insert(out.end(), fu.data(), fu.data() + fu.size());
  out.insert(out.end(), fi.data(), fi.data() + fi.size());
  for (const ParamGrad& pg : model->Params()) {
    out.insert(out.end(), pg.grad->data(), pg.grad->data() + pg.grad->size());
  }
  model->SetRuntime(nullptr);
  return out;
}

TEST(BackboneThreadInvariance, ForwardAndBackwardBitIdentical) {
  const Dataset data = SmallDataset();
  for (Backbone b : kAllBackbones) {
    SCOPED_TRACE(BackboneName(b));
    const std::vector<float> ref = RunPass(b, data, 1);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      const std::vector<float> got = RunPass(b, data, threads);
      ASSERT_EQ(ref.size(), got.size());
      EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                            ref.size() * sizeof(float)),
                0)
          << "threads=" << threads;
    }
  }
}

// Full training histories must also be thread-count invariant: the
// trainer attaches its pool to the model, so this covers propagation,
// aux views, the sharded batch loss, and the optimizer end to end.
std::vector<double> TrainHistory(Backbone b, const Dataset& data,
                                 size_t threads, std::vector<float>& finals) {
  const BipartiteGraph g(data);
  Rng init_rng(33);
  std::unique_ptr<EmbeddingModel> model = MakeBackbone(b, g, init_rng);
  BilateralSoftmaxLoss loss(0.2, 0.25);
  UniformNegativeSampler sampler(data);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 64;
  cfg.num_negatives = 8;
  cfg.eval_every = 2;
  cfg.seed = 44;
  cfg.runtime.num_threads = threads;
  Trainer trainer(data, *model, loss, sampler, cfg);
  std::vector<double> history;
  for (const EpochStats& e : trainer.Train().history) {
    history.push_back(e.avg_loss);
    history.push_back(e.avg_aux_loss);
  }
  finals.clear();
  const Matrix& fu = model->FinalUserMatrix();
  finals.insert(finals.end(), fu.data(), fu.data() + fu.size());
  return history;
}

TEST(BackboneThreadInvariance, TrainingHistoryBitIdentical) {
  const Dataset data = SmallDataset();
  for (Backbone b : kAllBackbones) {
    SCOPED_TRACE(BackboneName(b));
    std::vector<float> ref_finals;
    const std::vector<double> ref = TrainHistory(b, data, 1, ref_finals);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      std::vector<float> finals;
      const std::vector<double> got = TrainHistory(b, data, threads, finals);
      ASSERT_EQ(ref.size(), got.size());
      for (size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(ref[k], got[k]) << "threads=" << threads << " entry " << k;
      }
      ASSERT_EQ(ref_finals.size(), finals.size());
      EXPECT_EQ(std::memcmp(ref_finals.data(), finals.data(),
                            finals.size() * sizeof(float)),
                0)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace bslrec
