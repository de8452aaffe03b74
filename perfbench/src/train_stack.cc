#include "train_stack.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "math/matrix.h"
#include "math/rng.h"
#include "math/vec.h"
#include "train/optimizer.h"

namespace perfbench {

bslrec::Dataset GenerateInteractions(const InteractionShape& shape,
                                     uint64_t seed) {
  bslrec::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7261696eULL);
  std::vector<uint32_t> perm(shape.items);
  std::iota(perm.begin(), perm.end(), 0u);
  rng.Shuffle(perm);
  const uint32_t per_cluster = std::max<uint32_t>(1, shape.items / shape.clusters);
  const uint32_t test_users = shape.test_users == 0 ? shape.users : shape.test_users;
  std::vector<bslrec::Edge> train, test;
  train.reserve(static_cast<size_t>(shape.users) * shape.train_per_user);
  std::vector<uint32_t> mine;
  for (uint32_t u = 0; u < shape.users; ++u) {
    const uint32_t cluster = static_cast<uint32_t>(rng.NextIndex(shape.clusters));
    const uint32_t want =
        shape.train_per_user + (u < test_users ? shape.test_per_user : 0);
    mine.clear();
    while (mine.size() < want) {
      uint32_t item;
      if (rng.NextDouble() < 0.8) {
        const double x = rng.NextDouble();
        const uint32_t slot = static_cast<uint32_t>(x * x * per_cluster);
        item = perm[std::min<size_t>(static_cast<size_t>(cluster) * per_cluster + slot,
                                     shape.items - 1)];
      } else {
        item = static_cast<uint32_t>(rng.NextIndex(shape.items));
      }
      if (std::find(mine.begin(), mine.end(), item) == mine.end()) {
        mine.push_back(item);
      }
    }
    for (size_t j = 0; j < mine.size(); ++j) {
      (j < shape.train_per_user ? train : test).push_back({u, mine[j]});
    }
  }
  return bslrec::Dataset(shape.users, shape.items, std::move(train), std::move(test));
}

double RandomNdcgFloor(const bslrec::Dataset& data, uint32_t k) {
  double sum = 0.0;
  size_t users = 0;
  for (uint32_t u = 0; u < data.num_users(); ++u) {
    const size_t t = data.TestItems(u).size();
    if (t == 0) continue;
    const double cand =
        static_cast<double>(data.num_items() - data.TrainItems(u).size());
    double dcg = 0.0, idcg = 0.0;
    for (uint32_t r = 1; r <= k; ++r) {
      const double disc = 1.0 / std::log2(r + 1.0);
      dcg += disc * static_cast<double>(t) / cand;
      if (r <= t) idcg += disc;
    }
    sum += dcg / idcg;
    ++users;
  }
  return users ? sum / static_cast<double>(users) : 0.0;
}

std::vector<double> StepClockSampler::TakeStepsMs() const {
  std::vector<double> out;
  for (size_t i = 1; i < stamps_.size(); ++i) {
    out.push_back(static_cast<double>(stamps_[i] - stamps_[i - 1]) * 1e-6);
  }
  stamps_.clear();
  return out;
}

void ReplayTrainLayers(const std::string& workload, const bslrec::Dataset& data,
                       bslrec::EmbeddingModel& model,
                       bslrec::runtime::ThreadPool& pool,
                       const bslrec::LossFunction& loss, size_t batch_size,
                       uint64_t seed, double epoch_s, uint64_t epoch_span,
                       double budget_s, Tracer& tracer, Report& report) {
  const size_t d = model.dim();
  const size_t nneg = kNegatives;
  std::vector<bslrec::Edge> edges = data.train_edges();
  bslrec::Rng rng(seed ^ 0x7265706cULL);
  rng.Shuffle(edges);
  const size_t batches_per_epoch = (edges.size() + batch_size - 1) / batch_size;
  const bslrec::UniformNegativeSampler sampler(data);
  bslrec::AdamOptimizer adam(0.05, 1e-6);
  model.SetRuntime(&pool);

  struct Scratch {
    std::vector<float> u_hat, i_hat, j_norm, d_neg;
    bslrec::Matrix j_hat;
  };
  std::vector<Scratch> scratch(pool.num_workers());
  for (Scratch& s : scratch) {
    s.u_hat.resize(d);
    s.i_hat.resize(d);
    s.j_norm.resize(nneg);
    s.d_neg.resize(nneg);
    s.j_hat = bslrec::Matrix(nneg, d);
  }
  std::vector<uint32_t> negs(batch_size * nneg);
  std::vector<float> pos(batch_size), neg_scores(batch_size * nneg);
  std::vector<double> shard_loss((batch_size + 31) / 32);

  std::vector<double> sample_ms, loss_ms, fwd_ms, bwd_ms, opt_ms;
  const double t_end = NowS() + budget_s;
  size_t last_b = 0;
  for (size_t b = 0; b < batches_per_epoch && (b < 2 || NowS() < t_end); ++b) {
    const size_t begin = b * batch_size;
    const size_t bsz = std::min(batch_size, edges.size() - begin);
    last_b = bsz;
    const int64_t t0 = NowNs();
    model.Forward(rng);
    model.ZeroGrad();
    const int64_t t1 = NowNs();
    bslrec::runtime::ParallelFor(pool, 0, bsz, 32,
                                 [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t s = lo; s < hi; ++s) {
        bslrec::StreamRng stream(seed, 0, begin + s);
        sampler.SampleStream(edges[begin + s].user, stream,
                             {negs.data() + s * nneg, nneg});
      }
    });
    const int64_t t2 = NowNs();
    const bslrec::Matrix& items = model.FinalItemMatrix();
    bslrec::runtime::ParallelFor(pool, 0, bsz, 32,
                                 [&](size_t lo, size_t hi, size_t shard, size_t worker) {
      Scratch& ws = scratch[worker];
      double sum = 0.0;
      for (size_t s = lo; s < hi; ++s) {
        bslrec::vec::Normalize(model.UserEmb(edges[begin + s].user), ws.u_hat.data(), d);
        bslrec::vec::Normalize(model.ItemEmb(edges[begin + s].item), ws.i_hat.data(), d);
        pos[s] = bslrec::vec::Dot(ws.u_hat.data(), ws.i_hat.data(), d);
        bslrec::vec::GatherNormalize(items.data(), items.cols(), negs.data() + s * nneg,
                                     nneg, d, ws.j_hat.data(), ws.j_norm.data());
        float* scores = neg_scores.data() + s * nneg;
        bslrec::vec::DotBatch(ws.u_hat.data(), ws.j_hat.data(), nneg, d, scores);
        float d_pos = 0.0f;
        sum += loss.Compute(pos[s], {scores, nneg}, &d_pos, {ws.d_neg.data(), nneg});
      }
      shard_loss[shard] = sum;
    });
    const int64_t t3 = NowNs();
    model.Backward();
    const int64_t t4 = NowNs();
    adam.Step(model.Params());
    const int64_t t5 = NowNs();
    tracer.Record("models.forward", t0, t1, epoch_span, b);
    tracer.Record("sampling.batch", t1, t2, epoch_span, b);
    tracer.Record("loss.batch", t2, t3, epoch_span, b);
    tracer.Record("models.backward", t3, t4, epoch_span, b);
    tracer.Record("optimizer.step", t4, t5, epoch_span, b);
    fwd_ms.push_back((t1 - t0) * 1e-6);
    sample_ms.push_back((t2 - t1) * 1e-6);
    loss_ms.push_back((t3 - t2) * 1e-6);
    bwd_ms.push_back((t4 - t3) * 1e-6);
    opt_ms.push_back((t5 - t4) * 1e-6);
    for (double x : shard_loss) {
      if (!std::isfinite(x)) report.Fail(workload + ": non-finite replayed loss");
    }
  }
  model.SetRuntime(nullptr);

  // The loss alone, serially, on the last batch's scores.
  std::vector<float> d_neg(nneg);
  size_t computed = 0;
  volatile double sink = 0.0;
  const int64_t l0 = NowNs();
  do {
    for (size_t s = 0; s < last_b; ++s) {
      float d_pos = 0.0f;
      sink = sink + loss.Compute(pos[s], {neg_scores.data() + s * nneg, nneg}, &d_pos,
                                 {d_neg.data(), nneg});
    }
    computed += last_b;
  } while (NowNs() - l0 < 50'000'000);
  const int64_t l1 = NowNs();
  tracer.Record("loss.compute_serial", l0, l1, epoch_span);

  // SampleStream over the epoch's sample keys, serially, time-capped.
  std::vector<uint32_t> one(nneg);
  size_t draws = 0;
  const int64_t s0 = NowNs();
  for (size_t i = 0; i < edges.size() && (i % 1024 != 0 || NowNs() - s0 < 1'000'000'000); ++i) {
    bslrec::StreamRng stream(seed, 1, i);
    sampler.SampleStream(edges[i].user, stream, {one.data(), nneg});
    draws += nneg;
  }
  const int64_t s1 = NowNs();
  tracer.Record("sampling.epoch_keys", s0, s1, epoch_span);

  const double f = Median(fwd_ms), s = Median(sample_ms), l = Median(loss_ms),
               bw = Median(bwd_ms), o = Median(opt_ms);
  const double epoch_ms = epoch_s * 1e3;
  const double per_epoch = static_cast<double>(batches_per_epoch);
  const double children = per_epoch * (f + s + l + bw + o);
  report.Metric("sampling.draws_per_s", draws / ((s1 - s0) * 1e-9), "1/s");
  report.Metric("loss.compute_ns", static_cast<double>(l1 - l0) / computed, "ns");
  report.Metric("models.forward_ms", f, "ms");
  report.Metric("models.backward_ms", bw, "ms");
  report.Metric("optimizer.step_ms", o, "ms");
  report.Metric("trainer.epoch_s", epoch_s, "s");
  report.Metric("trainer.self_share",
                epoch_ms > 0 ? std::max(0.0, epoch_ms - children) / epoch_ms : 0.0,
                "ratio");
  report.Note("%s train replay: %zu of %zu batches of %zu, per batch forward %.3f "
              "sample %.3f loss %.3f backward %.3f optimizer %.3f ms",
              workload.c_str(), fwd_ms.size(), batches_per_epoch, batch_size, f, s, l,
              bw, o);
  PrintShares(workload + " (one RunEpoch; children = per-batch median x batches)",
              {{"trainer.epoch", epoch_ms, std::max(0.0, epoch_ms - children)},
               {"sampling", per_epoch * s, per_epoch * s},
               {"loss (score+Compute)", per_epoch * l, per_epoch * l},
               {"models.forward", per_epoch * f, per_epoch * f},
               {"models.backward", per_epoch * bw, per_epoch * bw},
               {"optimizer.step", per_epoch * o, per_epoch * o}});
}

}  // namespace perfbench
