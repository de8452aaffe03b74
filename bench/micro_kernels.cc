// Google-benchmark microbenchmarks for the hot kernels: loss
// forward+backward per sample, negative sampling, cosine scoring, graph
// propagation and the evaluator. These guard the throughput the
// experiment harnesses depend on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/dro.h"
#include "core/losses.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "math/rng.h"
#include "math/vec.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "sampling/negative_sampler.h"

namespace {

using namespace bslrec;  // NOLINT: bench-local convenience

std::vector<float> MakeScores(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> s(n);
  for (auto& x : s) x = 2.0f * static_cast<float>(rng.NextDouble()) - 1.0f;
  return s;
}

void BM_LossCompute(benchmark::State& state, LossKind kind) {
  const size_t n = static_cast<size_t>(state.range(0));
  LossParams params;
  params.tau = 0.12;
  params.tau1 = 0.15;
  const auto loss = CreateLoss(kind, params);
  const auto negs = MakeScores(n, 1);
  std::vector<float> d_neg(n);
  float d_pos = 0.0f;
  for (auto _ : state) {
    const double l = loss->Compute(0.4f, negs, &d_pos, d_neg);
    benchmark::DoNotOptimize(l);
    benchmark::DoNotOptimize(d_neg.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterLossBenchmarks() {
  const std::pair<const char*, LossKind> kinds[] = {
      {"BPR", LossKind::kBpr},     {"BCE", LossKind::kBce},
      {"MSE", LossKind::kMse},     {"SL", LossKind::kSoftmax},
      {"BSL", LossKind::kBsl},     {"CCL", LossKind::kCcl},
  };
  for (const auto& [name, kind] : kinds) {
    const std::string bench_name = std::string("BM_Loss/") + name;
    benchmark::RegisterBenchmark(bench_name.c_str(),
                                 [kind](benchmark::State& st) {
                                   BM_LossCompute(st, kind);
                                 })
        ->Arg(32)
        ->Arg(256);
  }
}

void BM_UniformSampler(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.num_users = 300;
  cfg.num_items = 250;
  cfg.seed = 2;
  const Dataset data = GenerateSynthetic(cfg).dataset;
  UniformNegativeSampler sampler(data);
  Rng rng(3);
  std::vector<uint32_t> out;
  const size_t n = static_cast<size_t>(state.range(0));
  uint32_t u = 0;
  for (auto _ : state) {
    sampler.Sample(u, n, rng, out);
    benchmark::DoNotOptimize(out.data());
    u = (u + 1) % data.num_users();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UniformSampler)->Arg(32)->Arg(256);

void BM_NoisySampler(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.num_users = 300;
  cfg.num_items = 250;
  cfg.seed = 2;
  const Dataset data = GenerateSynthetic(cfg).dataset;
  NoisyNegativeSampler sampler(data, 5.0);
  Rng rng(4);
  std::vector<uint32_t> out;
  uint32_t u = 0;
  for (auto _ : state) {
    sampler.Sample(u, 64, rng, out);
    benchmark::DoNotOptimize(out.data());
    u = (u + 1) % data.num_users();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NoisySampler);

// Naive scalar references for the blocked vec kernels: the pre-blocking
// single-accumulator forms, kept here so BM_Dot/blocked vs BM_Dot/naive
// (etc.) quantifies what the unrolled multi-accumulator loops buy.
namespace naive {

float Dot(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) acc += static_cast<double>(a[k]) * b[k];
  return static_cast<float>(acc);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t k = 0; k < n; ++k) y[k] += alpha * x[k];
}

float Normalize(const float* x, float* out, size_t n, float eps = 1e-12f) {
  const float norm = std::sqrt(std::max(0.0f, Dot(x, x, n)));
  const float inv = 1.0f / std::max(norm, eps);
  for (size_t k = 0; k < n; ++k) out[k] = x[k] * inv;
  return norm;
}

double LogSumExp(const float* x, size_t n) {
  float max_x = x[0];
  for (size_t k = 1; k < n; ++k) max_x = std::max(max_x, x[k]);
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) {
    acc += std::exp(static_cast<double>(x[k]) - max_x);
  }
  return static_cast<double>(max_x) + std::log(acc);
}

}  // namespace naive

std::vector<float> GaussianVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

void BM_DotBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = GaussianVec(n, 11), b = GaussianVec(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotBlocked)->Arg(16)->Arg(64)->Arg(256)->Arg(4096);

void BM_DotNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = GaussianVec(n, 11), b = GaussianVec(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotNaive)->Arg(16)->Arg(64)->Arg(256)->Arg(4096);

void BM_AxpyBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 13);
  auto y = GaussianVec(n, 14);
  for (auto _ : state) {
    vec::Axpy(0.25f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AxpyBlocked)->Arg(64)->Arg(4096);

void BM_AxpyNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 13);
  auto y = GaussianVec(n, 14);
  for (auto _ : state) {
    naive::Axpy(0.25f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AxpyNaive)->Arg(64)->Arg(4096);

void BM_NormalizeBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 15);
  std::vector<float> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Normalize(x.data(), out.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NormalizeBlocked)->Arg(64)->Arg(4096);

void BM_NormalizeNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 15);
  std::vector<float> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::Normalize(x.data(), out.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NormalizeNaive)->Arg(64)->Arg(4096);

void BM_LogSumExpBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = MakeScores(n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::LogSumExp(x.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LogSumExpBlocked)->Arg(64)->Arg(4096);

void BM_LogSumExpNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = MakeScores(n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::LogSumExp(x.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LogSumExpNaive)->Arg(64)->Arg(4096);

// DotBatch: one query against a block of 64 rows, the default N- of the
// trainer's negative scoring. Arg is the dim.
void BM_DotBatch(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  const auto q = GaussianVec(d, 21);
  const auto rows = GaussianVec(kRows * d, 22);
  std::vector<float> out(kRows);
  for (auto _ : state) {
    vec::DotBatch(q.data(), rows.data(), kRows, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * d);
}
BENCHMARK(BM_DotBatch)->Arg(16)->Arg(64)->Arg(256);

// The exact scorer's shard scan: 8 queries (CatalogScorer's largest
// query block) against a 2048-row shard, too big for L1. DotTile reads
// each row once for all 8 queries; the per-query loop reads the shard 8
// times. Both produce the same scores bitwise. Arg is the dim.
constexpr size_t kTileQueries = 8;
constexpr size_t kShardRows = 2048;

void BM_DotTileShard(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto qs = GaussianVec(kTileQueries * d, 23);
  const auto rows = GaussianVec(kShardRows * d, 24);
  const float* q_ptrs[kTileQueries];
  for (size_t b = 0; b < kTileQueries; ++b) q_ptrs[b] = qs.data() + b * d;
  std::vector<float> out(kTileQueries * kShardRows);
  for (auto _ : state) {
    vec::DotTile(q_ptrs, kTileQueries, rows.data(), kShardRows, d,
                 out.data(), kShardRows);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTileQueries * kShardRows * d);
}
BENCHMARK(BM_DotTileShard)->Arg(64)->Arg(128);

void BM_DotBatchPerQueryShard(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto qs = GaussianVec(kTileQueries * d, 23);
  const auto rows = GaussianVec(kShardRows * d, 24);
  std::vector<float> out(kTileQueries * kShardRows);
  for (auto _ : state) {
    for (size_t b = 0; b < kTileQueries; ++b) {
      vec::DotBatch(qs.data() + b * d, rows.data(), kShardRows, d,
                    out.data() + b * kShardRows);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTileQueries * kShardRows * d);
}
BENCHMARK(BM_DotBatchPerQueryShard)->Arg(64)->Arg(128);

// ---- int8 list-scan kernels (IVF with int8 lists) ----
// SIMD dispatch vs the always-compiled scalar reference (vec::ref), and
// the batched int8 scan vs the fp32 DotBatch it replaces on a probed
// list — the latter pair is the memory-traffic argument in numbers.

std::vector<int8_t> QuantizedVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng.NextIndex(255)) - 127);
  }
  return v;
}

void BM_DotI8(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = QuantizedVec(n, 31), b = QuantizedVec(n, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::DotI8(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotI8)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_DotI8Ref(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = QuantizedVec(n, 31), b = QuantizedVec(n, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::ref::DotI8(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotI8Ref)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// One list scan: 64 int8 list rows against one quantized query.
// Compare against BM_DotBatch at the same dim for the int8 vs
// fp32 bandwidth story.
void BM_DotBatchI8(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  const auto q = QuantizedVec(d, 33);
  const auto rows = QuantizedVec(kRows * d, 34);
  std::vector<int32_t> out(kRows);
  for (auto _ : state) {
    vec::DotBatchI8(q.data(), rows.data(), kRows, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * d);
}
BENCHMARK(BM_DotBatchI8)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_DotBatchI8Ref(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  const auto q = QuantizedVec(d, 33);
  const auto rows = QuantizedVec(kRows * d, 34);
  std::vector<int32_t> out(kRows);
  for (auto _ : state) {
    vec::ref::DotBatchI8(q.data(), rows.data(), kRows, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * d);
}
BENCHMARK(BM_DotBatchI8Ref)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// Row quantization — the index-build cost of the int8 list codes and
// the per-query cost of encoding q into codes.
void BM_QuantizeRow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 35);
  std::vector<int8_t> codes(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::QuantizeRow(x.data(), n, codes.data()));
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuantizeRow)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_QuantizeRowRef(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 35);
  std::vector<int8_t> codes(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vec::ref::QuantizeRow(x.data(), n, codes.data()));
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuantizeRowRef)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_StreamRngDraws(benchmark::State& state) {
  // Cost of one full per-sample stream: construction + 64 bounded draws,
  // the trainer's per-sample sampling pattern.
  uint64_t sink = 0;
  uint64_t s = 0;
  for (auto _ : state) {
    StreamRng rng(42, 1, ++s);
    for (int j = 0; j < 64; ++j) sink += rng.NextIndex(1200);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_StreamRngDraws);

void BM_CosineScore(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<float> u(d), v(d);
  for (auto& x : u) x = static_cast<float>(rng.NextGaussian());
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Cosine(u.data(), v.data(), d));
  }
}
BENCHMARK(BM_CosineScore)->Arg(16)->Arg(64)->Arg(256);

void BM_GraphPropagation(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 350;
  cfg.seed = 6;
  const Dataset data = GenerateSynthetic(cfg).dataset;
  const BipartiteGraph graph(data);
  Matrix base(graph.num_nodes(), 16), out(graph.num_nodes(), 16);
  graph::PropagationEngine engine;  // serial: this tracks the raw kernel
  Rng rng(7);
  base.InitGaussian(rng, 0.1f);
  const int layers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    engine.MeanPropagate(graph.Adjacency(), base, layers, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.Adjacency().nnz() *
                          layers);
}
BENCHMARK(BM_GraphPropagation)->Arg(1)->Arg(3);

void BM_Evaluator(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.num_users = 300;
  cfg.num_items = 250;
  cfg.seed = 8;
  const Dataset data = GenerateSynthetic(cfg).dataset;
  Rng rng(9);
  MfModel model(data.num_users(), data.num_items(), 16, rng);
  model.Forward(rng);
  const Evaluator eval(data, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(model).ndcg);
  }
}
BENCHMARK(BM_Evaluator);

void BM_WorstCaseWeights(benchmark::State& state) {
  const auto scores = MakeScores(static_cast<size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dro::WorstCaseWeights(scores, 0.1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorstCaseWeights)->Arg(256)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  RegisterLossBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
