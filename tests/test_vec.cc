#include "math/vec.h"

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "math/rng.h"

namespace bslrec {
namespace {

TEST(Vec, DotBasic) {
  const float a[] = {1.0f, 2.0f, 3.0f};
  const float b[] = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(vec::Dot(a, b, 3), 4.0f - 10.0f + 18.0f);
  EXPECT_FLOAT_EQ(vec::Dot(a, b, 0), 0.0f);
}

TEST(Vec, AxpyAccumulates) {
  const float x[] = {1.0f, -1.0f};
  float y[] = {10.0f, 20.0f};
  vec::Axpy(2.0f, x, y, 2);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 18.0f);
}

TEST(Vec, ScaleAndFill) {
  float x[] = {1.0f, 2.0f, 3.0f};
  vec::Scale(x, 3, -2.0f);
  EXPECT_FLOAT_EQ(x[1], -4.0f);
  vec::Fill(x, 3, 7.0f);
  for (float v : x) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST(Vec, NormAndNormalize) {
  const float x[] = {3.0f, 4.0f};
  EXPECT_FLOAT_EQ(vec::Norm(x, 2), 5.0f);
  float out[2];
  const float n = vec::Normalize(x, out, 2);
  EXPECT_FLOAT_EQ(n, 5.0f);
  EXPECT_FLOAT_EQ(out[0], 0.6f);
  EXPECT_FLOAT_EQ(out[1], 0.8f);
}

TEST(Vec, NormalizeZeroVectorIsSafe) {
  const float x[] = {0.0f, 0.0f, 0.0f};
  float out[3];
  const float n = vec::Normalize(x, out, 3);
  EXPECT_FLOAT_EQ(n, 0.0f);
  for (float v : out) EXPECT_FALSE(std::isnan(v));
}

TEST(Vec, NormalizeInPlaceAliasing) {
  float x[] = {0.0f, 2.0f};
  vec::Normalize(x, x, 2);
  EXPECT_FLOAT_EQ(x[1], 1.0f);
}

TEST(Vec, CosineProperties) {
  const float a[] = {1.0f, 0.0f};
  const float b[] = {0.0f, 2.0f};
  const float c[] = {-3.0f, 0.0f};
  EXPECT_NEAR(vec::Cosine(a, b, 2), 0.0, 1e-6);
  EXPECT_NEAR(vec::Cosine(a, c, 2), -1.0, 1e-6);
  EXPECT_NEAR(vec::Cosine(a, a, 2), 1.0, 1e-6);
  const float zero[] = {0.0f, 0.0f};
  EXPECT_FLOAT_EQ(vec::Cosine(a, zero, 2), 0.0f);
}

TEST(Vec, AddSubSquaredDistance) {
  const float a[] = {1.0f, 2.0f};
  const float b[] = {4.0f, 6.0f};
  float out[2];
  vec::Sub(a, b, out, 2);
  EXPECT_FLOAT_EQ(out[0], -3.0f);
  vec::Add(a, b, out, 2);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(vec::SquaredDistance(a, b, 2), 9.0f + 16.0f);
}

TEST(Vec, LogSumExpMatchesNaiveOnSmallValues) {
  const float x[] = {0.1f, -0.5f, 0.7f};
  double naive = std::log(std::exp(0.1) + std::exp(-0.5) + std::exp(0.7));
  EXPECT_NEAR(vec::LogSumExp(x, 3), naive, 1e-6);
}

TEST(Vec, LogSumExpStableForLargeValues) {
  const float x[] = {1000.0f, 1000.0f};
  const double r = vec::LogSumExp(x, 2);
  EXPECT_NEAR(r, 1000.0 + std::log(2.0), 1e-3);
  EXPECT_FALSE(std::isinf(r));
}

TEST(Vec, SoftmaxSumsToOneAndOrders) {
  const float x[] = {1.0f, 2.0f, 3.0f};
  float out[3];
  vec::Softmax(x, out, 3);
  EXPECT_NEAR(out[0] + out[1] + out[2], 1.0, 1e-6);
  EXPECT_LT(out[0], out[1]);
  EXPECT_LT(out[1], out[2]);
  // Ratio property: out[2]/out[1] == e^{1}.
  EXPECT_NEAR(out[2] / out[1], std::exp(1.0), 1e-4);
}

TEST(Vec, SoftmaxStableForExtremeValues) {
  const float x[] = {-2000.0f, 0.0f, 2000.0f};
  float out[3];
  vec::Softmax(x, out, 3);
  EXPECT_NEAR(out[2], 1.0, 1e-6);
  EXPECT_FALSE(std::isnan(out[0]));
}

// Finite-difference check of the cosine gradient helper: f(u) = cos(u, i).
TEST(Vec, AccumulateCosineGradMatchesFiniteDifference) {
  Rng rng(99);
  const size_t d = 8;
  std::vector<float> u(d), i(d);
  for (auto& v : u) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : i) v = static_cast<float>(rng.NextGaussian());

  std::vector<float> u_hat(d), i_hat(d);
  const float u_norm = vec::Normalize(u.data(), u_hat.data(), d);
  vec::Normalize(i.data(), i_hat.data(), d);
  const float score = vec::Dot(u_hat.data(), i_hat.data(), d);

  std::vector<float> grad(d, 0.0f);
  vec::AccumulateCosineGrad(u_hat.data(), i_hat.data(), score, u_norm, 1.0f,
                            grad.data(), d);

  const float eps = 1e-3f;
  for (size_t k = 0; k < d; ++k) {
    std::vector<float> up = u, um = u;
    up[k] += eps;
    um[k] -= eps;
    const float fp = vec::Cosine(up.data(), i.data(), d);
    const float fm = vec::Cosine(um.data(), i.data(), d);
    EXPECT_NEAR((fp - fm) / (2.0f * eps), grad[k], 2e-3f) << "dim " << k;
  }
}

TEST(Vec, DotBatchBitwiseMatchesPerRowDot) {
  // The batch kernel's contract is bit-equality with the single-row
  // kernel (callers mix the two), across row counts and dims below, at
  // and past the 16-lane block.
  Rng rng(7);
  for (const size_t m : {0u, 1u, 2u, 3u, 7u, 16u}) {
    for (const size_t d : {1u, 3u, 4u, 17u, 48u, 64u}) {
      std::vector<float> q(d), rows(m * d), out(m, -1.0f);
      for (auto& v : q) v = static_cast<float>(rng.NextGaussian());
      for (auto& v : rows) v = static_cast<float>(rng.NextGaussian());
      vec::DotBatch(q.data(), rows.data(), m, d, out.data());
      for (size_t r = 0; r < m; ++r) {
        EXPECT_EQ(out[r], vec::Dot(q.data(), rows.data() + r * d, d))
            << "m=" << m << " d=" << d << " row " << r;
      }
    }
  }
}

TEST(Vec, DotTileBitwiseMatchesPerPairDot) {
  // Every (query, row) score of a tile is exactly Dot's, whatever the
  // query count; cells outside the written stride stay untouched.
  Rng rng(8);
  for (const size_t nq : {0u, 1u, 2u, 3u, 8u}) {
    for (const size_t m : {0u, 1u, 5u, 16u}) {
      for (const size_t d : {1u, 15u, 16u, 40u, 129u}) {
        std::vector<float> qs(nq * d), rows(m * d);
        for (auto& v : qs) v = static_cast<float>(rng.NextGaussian());
        for (auto& v : rows) v = static_cast<float>(rng.NextGaussian());
        std::vector<const float*> q_ptrs(nq);
        for (size_t b = 0; b < nq; ++b) q_ptrs[b] = qs.data() + b * d;
        const size_t stride = m + 2;
        std::vector<float> out(nq * stride, -7.0f);
        vec::DotTile(q_ptrs.data(), nq, rows.data(), m, d, out.data(),
                     stride);
        for (size_t b = 0; b < nq; ++b) {
          for (size_t r = 0; r < m; ++r) {
            EXPECT_EQ(out[b * stride + r],
                      vec::Dot(q_ptrs[b], rows.data() + r * d, d))
                << "nq=" << nq << " m=" << m << " d=" << d;
          }
          EXPECT_EQ(out[b * stride + m], -7.0f);
          EXPECT_EQ(out[b * stride + m + 1], -7.0f);
        }
      }
    }
  }
}

TEST(Vec, GatherNormalizeBitwiseMatchesPerRowNormalize) {
  Rng rng(9);
  const size_t stride = 11, d = 8, table_rows = 20;
  std::vector<float> table(table_rows * stride);
  for (auto& v : table) v = static_cast<float>(rng.NextGaussian());
  const std::vector<uint32_t> ids = {3, 0, 19, 3, 7};  // repeats allowed
  std::vector<float> out(ids.size() * d), norms(ids.size());
  vec::GatherNormalize(table.data(), stride, ids.data(), ids.size(), d,
                       out.data(), norms.data());
  for (size_t r = 0; r < ids.size(); ++r) {
    std::vector<float> expect(d);
    const float n =
        vec::Normalize(table.data() + ids[r] * stride, expect.data(), d);
    EXPECT_EQ(norms[r], n) << "row " << r;
    for (size_t k = 0; k < d; ++k) {
      EXPECT_EQ(out[r * d + k], expect[k]) << "row " << r << " dim " << k;
    }
  }
}

TEST(Vec, GatherNormalizeZeroRowIsSafe) {
  const size_t d = 4;
  std::vector<float> table(d, 0.0f);
  const uint32_t id = 0;
  std::vector<float> out(d, 1.0f);
  float norm = -1.0f;
  vec::GatherNormalize(table.data(), d, &id, 1, d, out.data(), &norm);
  EXPECT_FLOAT_EQ(norm, 0.0f);
  for (float v : out) EXPECT_FALSE(std::isnan(v));
}

TEST(Vec, SimdTierIsKnown) {
  const std::string tier = vec::SimdTier();
  EXPECT_TRUE(tier == "avx2" || tier == "sse2" || tier == "scalar") << tier;
}

// Length sweep crossing every SIMD block boundary (16-lane fp32 blocks,
// 8-wide quantize blocks, 16-wide int8 blocks) plus odd tails.
const size_t kKernelLens[] = {0,  1,  2,  3,  4,   5,   7,   8,   9,  15, 16,
                              17, 24, 31, 32, 33,  48,  63,  64,  65, 100,
                              127, 128, 129, 200, 255, 256, 257, 333};

TEST(Vec, DotBitwiseMatchesScalarReference) {
  // The SIMD fp32 dot must reproduce the scalar reference's summation
  // tree exactly (vec.h contract) — EXPECT_EQ, not NEAR.
  Rng rng(21);
  for (const size_t n : kKernelLens) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> a(n), b(n);
      for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
      for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
      EXPECT_EQ(vec::Dot(a.data(), b.data(), n),
                vec::ref::Dot(a.data(), b.data(), n))
          << "n=" << n;
    }
  }
}

TEST(Vec, DotGoldenBits) {
  // Hard-coded results of the 16-lane fp32 tree on fixed inputs: every
  // SIMD tier, and every build (native, sanitized), must print exactly
  // these bits. The inputs are exact floats drawn from the integer
  // xoshiro stream, so they do not depend on libm. The three cases
  // tell the tree apart from a sequential fp32 sum (all of them), from
  // a double accumulator rounded once (d=129) and from FMA contraction
  // of the same tree (d=64, d=129).
  const struct {
    size_t d;
    uint32_t bits;
  } kGolden[] = {{64, 0x408c8af8u}, {128, 0x40a03b74u}, {129, 0x3fde7cc6u}};
  for (const auto& g : kGolden) {
    Rng rng(0x5eed0000u + g.d);
    std::vector<float> a(g.d), b(g.d);
    for (std::vector<float>* v : {&a, &b}) {
      for (float& x : *v) {
        const int32_t code =
            static_cast<int32_t>(rng.NextU64() >> 40) - (1 << 23);
        x = static_cast<float>(code) * 0x1p-23f;  // exact, in [-1, 1)
      }
    }
    EXPECT_EQ(std::bit_cast<uint32_t>(vec::Dot(a.data(), b.data(), g.d)),
              g.bits)
        << "d=" << g.d << " tier " << vec::SimdTier();
    EXPECT_EQ(
        std::bit_cast<uint32_t>(vec::ref::Dot(a.data(), b.data(), g.d)),
        g.bits)
        << "d=" << g.d;
  }
}

TEST(Vec, DotI8MatchesScalarReferenceExactly) {
  Rng rng(22);
  for (const size_t n : kKernelLens) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<int8_t> a(n), b(n);
      for (auto& v : a) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      for (auto& v : b) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      EXPECT_EQ(vec::DotI8(a.data(), b.data(), n),
                vec::ref::DotI8(a.data(), b.data(), n))
          << "n=" << n;
    }
  }
  // Extremes: the maximum-magnitude products must accumulate exactly.
  const size_t n = 256;
  std::vector<int8_t> lo(n, -127), hi(n, 127);
  EXPECT_EQ(vec::DotI8(lo.data(), hi.data(), n),
            -127 * 127 * static_cast<int32_t>(n));
  EXPECT_EQ(vec::DotI8(lo.data(), lo.data(), n),
            127 * 127 * static_cast<int32_t>(n));
}

TEST(Vec, DotBatchI8MatchesPerRowAndReference) {
  Rng rng(23);
  for (const size_t m : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 9u, 16u, 17u}) {
    for (const size_t d : {1u, 8u, 15u, 16u, 17u, 32u, 128u}) {
      std::vector<int8_t> q(d), rows(m * d);
      for (auto& v : q) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      for (auto& v : rows) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      std::vector<int32_t> got(m, -1), want(m, -2);
      vec::DotBatchI8(q.data(), rows.data(), m, d, got.data());
      vec::ref::DotBatchI8(q.data(), rows.data(), m, d, want.data());
      for (size_t r = 0; r < m; ++r) {
        EXPECT_EQ(got[r], want[r]) << "m=" << m << " d=" << d << " row " << r;
        EXPECT_EQ(got[r], vec::DotI8(q.data(), rows.data() + r * d, d))
            << "m=" << m << " d=" << d << " row " << r;
      }
    }
  }
}

TEST(Vec, QuantizeRowMatchesScalarReference) {
  Rng rng(24);
  for (const size_t n : kKernelLens) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> x(n);
      for (auto& v : x) v = static_cast<float>(rng.NextGaussian());
      std::vector<int8_t> got(n, 99), want(n, -99);
      const float sg = vec::QuantizeRow(x.data(), n, got.data());
      const float sw = vec::ref::QuantizeRow(x.data(), n, want.data());
      EXPECT_EQ(sg, sw) << "n=" << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Vec, QuantizeRowRoundTripBound) {
  // Symmetric quantization error: |x - code*scale| <= scale*(0.5+eps),
  // codes within [-127, 127], and the max-magnitude entry maps to +-127.
  Rng rng(25);
  for (int rep = 0; rep < 100; ++rep) {
    const size_t n = 1 + rng.NextIndex(200);
    std::vector<float> x(n);
    for (auto& v : x) v = static_cast<float>(rng.NextGaussian());
    std::vector<int8_t> codes(n);
    const float scale = vec::QuantizeRow(x.data(), n, codes.data());
    ASSERT_GT(scale, 0.0f);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(codes[i], -127);
      EXPECT_LE(codes[i], 127);
      const double err = std::fabs(static_cast<double>(x[i]) -
                                   static_cast<double>(codes[i]) *
                                       static_cast<double>(scale));
      EXPECT_LE(err, 0.5001 * static_cast<double>(scale) + 1e-12)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Vec, QuantizeRowDegenerateRows) {
  // All-zero rows: zero scale, zero codes (and no NaN anywhere).
  std::vector<float> zero(13, 0.0f);
  std::vector<int8_t> codes(13, 5);
  EXPECT_EQ(vec::QuantizeRow(zero.data(), zero.size(), codes.data()), 0.0f);
  for (int8_t c : codes) EXPECT_EQ(c, 0);
  // Constant rows quantize to exactly +-127 with scale |v|/127.
  std::vector<float> flat(9, -0.25f);
  codes.assign(9, 0);
  const float scale = vec::QuantizeRow(flat.data(), flat.size(), codes.data());
  EXPECT_FLOAT_EQ(scale, 0.25f / 127.0f);
  for (int8_t c : codes) EXPECT_EQ(c, -127);
  // Empty row.
  EXPECT_EQ(vec::QuantizeRow(flat.data(), 0, codes.data()), 0.0f);
}

TEST(Vec, AccumulateCosineGradScalesWithCoeff) {
  const size_t d = 4;
  std::vector<float> u = {1.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> i = {0.0f, 1.0f, 0.0f, 0.0f};
  std::vector<float> g1(d, 0.0f), g2(d, 0.0f);
  vec::AccumulateCosineGrad(u.data(), i.data(), 0.0f, 1.0f, 1.0f, g1.data(),
                            d);
  vec::AccumulateCosineGrad(u.data(), i.data(), 0.0f, 1.0f, -2.5f, g2.data(),
                            d);
  for (size_t k = 0; k < d; ++k) EXPECT_FLOAT_EQ(g2[k], -2.5f * g1[k]);
}

}  // namespace
}  // namespace bslrec
