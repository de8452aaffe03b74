#include "math/vec.h"

#include <algorithm>
#include <cmath>
#include <limits>

// SIMD tier selection. AVX2 needs an explicit opt-in (-mavx2, via the
// BSLREC_NATIVE CMake option); SSE2 is part of the x86-64 baseline, so
// every 64-bit x86 build gets real vector code. Anything else falls
// back to the scalar reference — which is always compiled regardless,
// both as the vec::ref contract oracle and as the portable path.
#if defined(__AVX2__)
#include <immintrin.h>
#define BSLREC_SIMD_AVX2 1
#define BSLREC_SIMD_SSE2 1
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define BSLREC_SIMD_SSE2 1
#endif

// The hot kernels below are written as unrolled/blocked loops with
// multiple independent accumulators. Determinism is load-bearing: every
// summation tree is a pure function of n — fixed accumulator lanes
// combined in a fixed order — so results never depend on call context.
// The multi-threaded trainer, evaluator and scorer rely on this for
// their bit-identical-results guarantee. The SIMD forms of `Dot` keep
// the reference's sixteen fp32 lanes in hardware registers (see the
// vec.h contract note), so enabling them changes no result.

namespace bslrec::vec {

const char* SimdTier() {
#if BSLREC_SIMD_AVX2
  return "avx2";
#elif BSLREC_SIMD_SSE2
  return "sse2";
#else
  return "scalar";
#endif
}

namespace ref {

float Dot(const float* a, const float* b, size_t n) {
  float lane[16] = {};
  size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    for (size_t j = 0; j < 16; ++j) lane[j] += a[k + j] * b[k + j];
  }
  float x[4];
  for (size_t j = 0; j < 4; ++j) {
    x[j] = (lane[j] + lane[4 + j]) + (lane[8 + j] + lane[12 + j]);
  }
  float sum = (x[0] + x[1]) + (x[2] + x[3]);
  for (; k < n; ++k) sum += a[k] * b[k];
  return sum;
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return acc;
}

void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out) {
  for (size_t r = 0; r < m; ++r) out[r] = DotI8(q, rows + r * d, d);
}

}  // namespace ref

namespace {

// Shared quantization encoder: max_abs -> scale + codes. Both the
// reference and the degenerate branches of the SIMD kernel route here,
// so the two stay bitwise aligned by construction. The main branch
// (nearbyintf(x * inv)) is also exactly what the packed CVTPS2DQ form
// computes: one IEEE float multiply, then round-to-nearest-even.
float QuantizeCodes(const float* x, size_t n, float max_abs, int8_t* out) {
  if (!(max_abs > 0.0f)) {
    std::fill(out, out + n, static_cast<int8_t>(0));
    return 0.0f;
  }
  const float inv = 127.0f / max_abs;
  if (!std::isfinite(inv)) {
    // Denormal max_abs overflows the reciprocal; divide instead
    // (|x / max_abs| <= 1, so the codes stay in range).
    for (size_t k = 0; k < n; ++k) {
      const float r = std::nearbyintf((x[k] / max_abs) * 127.0f);
      out[k] = static_cast<int8_t>(std::min(127.0f, std::max(-127.0f, r)));
    }
    return max_abs / 127.0f;
  }
  for (size_t k = 0; k < n; ++k) {
    const float r = std::nearbyintf(x[k] * inv);
    out[k] = static_cast<int8_t>(std::min(127.0f, std::max(-127.0f, r)));
  }
  return max_abs / 127.0f;
}

float MaxAbsScalar(const float* x, size_t n) {
  float m = 0.0f;
  for (size_t k = 0; k < n; ++k) m = std::max(m, std::fabs(x[k]));
  return m;
}

#if BSLREC_SIMD_SSE2
// Horizontal sum of four int32 lanes (exact: integer adds).
inline int32_t HSumEpi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}
#endif

#if BSLREC_SIMD_AVX2
inline int32_t HSumEpi32(__m256i v) {
  return HSumEpi32(
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1)));
}

// 16 int8 lanes sign-extended to int16, multiply-accumulated into 8
// int32 lanes. Products are <= 127^2, so MADD's pairwise int32 sums and
// the running accumulator are overflow-free for any realistic dim.
inline __m256i MaddI8Block(const int8_t* a, const int8_t* b, __m256i acc) {
  const __m256i a16 = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const __m256i b16 = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
}
#endif

// The one fp32 dot of the library; Dot, DotBatch and DotTile all
// inline it, so every score is the same tree whichever entry point
// computed it.
inline float DotKernel(const float* a, const float* b, size_t n) {
#if BSLREC_SIMD_SSE2
  // Lane j of the reference lives in register j / 4 (SSE2) or j / 8
  // (AVX2, whose halves are the SSE2 registers), so each packed
  // mul+add is exactly four or eight of the reference's scalar steps.
  size_t k = 0;
#if BSLREC_SIMD_AVX2
  __m256 acc_lo = _mm256_setzero_ps();  // lanes 0..7
  __m256 acc_hi = _mm256_setzero_ps();  // lanes 8..15
  for (; k + 16 <= n; k += 16) {
    acc_lo = _mm256_add_ps(
        acc_lo, _mm256_mul_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k)));
    acc_hi = _mm256_add_ps(acc_hi, _mm256_mul_ps(_mm256_loadu_ps(a + k + 8),
                                                 _mm256_loadu_ps(b + k + 8)));
  }
  const __m128 acc0 = _mm256_castps256_ps128(acc_lo);
  const __m128 acc1 = _mm256_extractf128_ps(acc_lo, 1);
  const __m128 acc2 = _mm256_castps256_ps128(acc_hi);
  const __m128 acc3 = _mm256_extractf128_ps(acc_hi, 1);
#else
  __m128 acc0 = _mm_setzero_ps();  // lanes 0..3
  __m128 acc1 = _mm_setzero_ps();  // lanes 4..7
  __m128 acc2 = _mm_setzero_ps();  // lanes 8..11
  __m128 acc3 = _mm_setzero_ps();  // lanes 12..15
  for (; k + 16 <= n; k += 16) {
    acc0 = _mm_add_ps(acc0,
                      _mm_mul_ps(_mm_loadu_ps(a + k), _mm_loadu_ps(b + k)));
    acc1 = _mm_add_ps(
        acc1, _mm_mul_ps(_mm_loadu_ps(a + k + 4), _mm_loadu_ps(b + k + 4)));
    acc2 = _mm_add_ps(
        acc2, _mm_mul_ps(_mm_loadu_ps(a + k + 8), _mm_loadu_ps(b + k + 8)));
    acc3 = _mm_add_ps(
        acc3, _mm_mul_ps(_mm_loadu_ps(a + k + 12), _mm_loadu_ps(b + k + 12)));
  }
#endif
  // x = (lanes 0..3 + 4..7) + (8..11 + 12..15), then (x0+x1)+(x2+x3):
  // the shuffle pairs x0 with x1 and x2 with x3 (fp add commutes), and
  // the high half brings x2+x3 down to lane 0.
  const __m128 x = _mm_add_ps(_mm_add_ps(acc0, acc1), _mm_add_ps(acc2, acc3));
  const __m128 pairs =
      _mm_add_ps(x, _mm_shuffle_ps(x, x, _MM_SHUFFLE(2, 3, 0, 1)));
  float sum = _mm_cvtss_f32(_mm_add_ss(pairs, _mm_movehl_ps(pairs, pairs)));
  for (; k < n; ++k) sum += a[k] * b[k];
  return sum;
#else
  return ref::Dot(a, b, n);
#endif
}

}  // namespace

float Dot(const float* a, const float* b, size_t n) {
  return DotKernel(a, b, n);
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
#if BSLREC_SIMD_AVX2
  __m256i acc = _mm256_setzero_si256();
  size_t k = 0;
  for (; k + 16 <= n; k += 16) acc = MaddI8Block(a + k, b + k, acc);
  int32_t sum = HSumEpi32(acc);
  for (; k < n; ++k) {
    sum += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return sum;
#elif BSLREC_SIMD_SSE2
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = zero;
  size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + k));
    // SSE2 has no 8->16 sign-extend; widen via sign-mask unpack.
    const __m128i sa = _mm_cmpgt_epi8(zero, va);
    const __m128i sb = _mm_cmpgt_epi8(zero, vb);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_unpacklo_epi8(va, sa),
                                            _mm_unpacklo_epi8(vb, sb)));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_unpackhi_epi8(va, sa),
                                            _mm_unpackhi_epi8(vb, sb)));
  }
  int32_t sum = HSumEpi32(acc);
  for (; k < n; ++k) {
    sum += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return sum;
#else
  return ref::DotI8(a, b, n);
#endif
}

void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out) {
#if BSLREC_SIMD_AVX2
  // Four-row blocking: the widened query block is loaded once and
  // multiply-accumulated against four item rows, quartering the query
  // traffic of the per-row form. Integer adds are associative, so the
  // blocking cannot change any result.
  size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const int8_t* r0 = rows + (r + 0) * d;
    const int8_t* r1 = rows + (r + 1) * d;
    const int8_t* r2 = rows + (r + 2) * d;
    const int8_t* r3 = rows + (r + 3) * d;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    size_t k = 0;
    for (; k + 16 <= d; k += 16) {
      const __m256i q16 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + k)));
      const auto row16 = [k](const int8_t* row) {
        return _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + k)));
      };
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(q16, row16(r0)));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(q16, row16(r1)));
      acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(q16, row16(r2)));
      acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(q16, row16(r3)));
    }
    int32_t s0 = HSumEpi32(acc0), s1 = HSumEpi32(acc1);
    int32_t s2 = HSumEpi32(acc2), s3 = HSumEpi32(acc3);
    for (; k < d; ++k) {
      const int32_t qk = q[k];
      s0 += qk * r0[k];
      s1 += qk * r1[k];
      s2 += qk * r2[k];
      s3 += qk * r3[k];
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < m; ++r) out[r] = DotI8(q, rows + r * d, d);
#else
  for (size_t r = 0; r < m; ++r) out[r] = DotI8(q, rows + r * d, d);
#endif
}

namespace ref {
float QuantizeRow(const float* x, size_t n, int8_t* out) {
  return QuantizeCodes(x, n, MaxAbsScalar(x, n), out);
}
}  // namespace ref

float QuantizeRow(const float* x, size_t n, int8_t* out) {
#if BSLREC_SIMD_SSE2
  // Max-abs reduction (order-invariant: abs and max are exact).
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 vmax = _mm_setzero_ps();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    vmax = _mm_max_ps(vmax, _mm_and_ps(abs_mask, _mm_loadu_ps(x + k)));
  }
  alignas(16) float lane[4];
  _mm_store_ps(lane, vmax);
  float max_abs = std::max(std::max(lane[0], lane[1]),
                           std::max(lane[2], lane[3]));
  for (; k < n; ++k) max_abs = std::max(max_abs, std::fabs(x[k]));

  const float inv = max_abs > 0.0f ? 127.0f / max_abs : 0.0f;
  if (!(max_abs > 0.0f) || !std::isfinite(inv)) {
    return QuantizeCodes(x, n, max_abs, out);  // degenerate rows: scalar
  }
  // Encode 8 floats per iteration: multiply, CVTPS2DQ (round-to-nearest
  // -even, same as nearbyintf under the default FP environment), then
  // narrow 32->16->8 with saturating packs. |x*inv| <= 127*(1 + 2^-22)
  // < 127.5, so neither the rounding nor the packs ever saturate and
  // every code lands in [-127, 127] — bitwise equal to the scalar form.
  const __m128 vinv = _mm_set1_ps(inv);
  k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128i i0 = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + k), vinv));
    const __m128i i1 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + k + 4), vinv));
    const __m128i p8 = _mm_packs_epi16(_mm_packs_epi32(i0, i1),
                                       _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + k), p8);
  }
  for (; k < n; ++k) {
    const float r = std::nearbyintf(x[k] * inv);
    out[k] = static_cast<int8_t>(std::min(127.0f, std::max(-127.0f, r)));
  }
  return max_abs / 127.0f;
#else
  return ref::QuantizeRow(x, n, out);
#endif
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    y[k + 0] += alpha * x[k + 0];
    y[k + 1] += alpha * x[k + 1];
    y[k + 2] += alpha * x[k + 2];
    y[k + 3] += alpha * x[k + 3];
  }
  for (; k < n; ++k) y[k] += alpha * x[k];
}

void Scale(float* x, size_t n, float alpha) {
  for (size_t k = 0; k < n; ++k) x[k] *= alpha;
}

float Norm(const float* x, size_t n) {
  return std::sqrt(std::max(0.0f, Dot(x, x, n)));
}

float Normalize(const float* x, float* out, size_t n, float eps) {
  const float norm = Norm(x, n);
  const float inv = 1.0f / std::max(norm, eps);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    out[k + 0] = x[k + 0] * inv;
    out[k + 1] = x[k + 1] * inv;
    out[k + 2] = x[k + 2] * inv;
    out[k + 3] = x[k + 3] * inv;
  }
  for (; k < n; ++k) out[k] = x[k] * inv;
  return norm;
}

float Cosine(const float* a, const float* b, size_t n) {
  const float na = Norm(a, n);
  const float nb = Norm(b, n);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return Dot(a, b, n) / (na * nb);
}

void Sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t k = 0; k < n; ++k) out[k] = a[k] - b[k];
}

void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t k = 0; k < n; ++k) out[k] = a[k] + b[k];
}

void Fill(float* x, size_t n, float v) {
  std::fill(x, x + n, v);
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const double d0 = static_cast<double>(a[k + 0]) - b[k + 0];
    const double d1 = static_cast<double>(a[k + 1]) - b[k + 1];
    const double d2 = static_cast<double>(a[k + 2]) - b[k + 2];
    const double d3 = static_cast<double>(a[k + 3]) - b[k + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; k < n; ++k) {
    const double d = static_cast<double>(a[k]) - b[k];
    acc0 += d * d;
  }
  return static_cast<float>((acc0 + acc1) + (acc2 + acc3));
}

void DotBatch(const float* q, const float* rows, size_t m, size_t d,
              float* out) {
  for (size_t r = 0; r < m; ++r) out[r] = DotKernel(q, rows + r * d, d);
}

void DotTile(const float* const* queries, size_t nq, const float* rows,
             size_t m, size_t d, float* out, size_t out_stride) {
  for (size_t r = 0; r < m; ++r) {
    const float* row = rows + r * d;
    for (size_t b = 0; b < nq; ++b) {
      out[b * out_stride + r] = DotKernel(queries[b], row, d);
    }
  }
}

void GatherNormalize(const float* table, size_t stride, const uint32_t* ids,
                     size_t m, size_t d, float* out_rows, float* out_norms) {
  for (size_t r = 0; r < m; ++r) {
    out_norms[r] = Normalize(table + static_cast<size_t>(ids[r]) * stride,
                             out_rows + r * d, d);
  }
}

void AccumulateCosineGrad(const float* u_hat, const float* i_hat, float score,
                          float u_norm, float coeff, float* grad_u, size_t n) {
  // d cos / d u = (i_hat - score * u_hat) / ||u||.
  const float inv = coeff / std::max(u_norm, 1e-12f);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    grad_u[k + 0] += inv * (i_hat[k + 0] - score * u_hat[k + 0]);
    grad_u[k + 1] += inv * (i_hat[k + 1] - score * u_hat[k + 1]);
    grad_u[k + 2] += inv * (i_hat[k + 2] - score * u_hat[k + 2]);
    grad_u[k + 3] += inv * (i_hat[k + 3] - score * u_hat[k + 3]);
  }
  for (; k < n; ++k) {
    grad_u[k] += inv * (i_hat[k] - score * u_hat[k]);
  }
}

double LogSumExp(const float* x, size_t n) {
  if (n == 0) return -std::numeric_limits<double>::infinity();
  // Blocked max scan (max is associative/commutative, so lane order is
  // irrelevant), then a four-lane double exp-sum with a fixed tree.
  float m0 = x[0], m1 = x[0], m2 = x[0], m3 = x[0];
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    m0 = std::max(m0, x[k + 0]);
    m1 = std::max(m1, x[k + 1]);
    m2 = std::max(m2, x[k + 2]);
    m3 = std::max(m3, x[k + 3]);
  }
  for (; k < n; ++k) m0 = std::max(m0, x[k]);
  const float max_x = std::max(std::max(m0, m1), std::max(m2, m3));

  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 += std::exp(static_cast<double>(x[k + 0]) - max_x);
    acc1 += std::exp(static_cast<double>(x[k + 1]) - max_x);
    acc2 += std::exp(static_cast<double>(x[k + 2]) - max_x);
    acc3 += std::exp(static_cast<double>(x[k + 3]) - max_x);
  }
  for (; k < n; ++k) acc0 += std::exp(static_cast<double>(x[k]) - max_x);
  return static_cast<double>(max_x) + std::log((acc0 + acc1) + (acc2 + acc3));
}

void Softmax(const float* x, float* out, size_t n) {
  if (n == 0) return;
  float max_x = x[0];
  for (size_t k = 1; k < n; ++k) max_x = std::max(max_x, x[k]);
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double e = std::exp(static_cast<double>(x[k]) - max_x);
    out[k] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (size_t k = 0; k < n; ++k) out[k] *= inv;
}

}  // namespace bslrec::vec
