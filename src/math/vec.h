// Dense vector kernels used throughout the library.
//
// Embeddings are stored as contiguous rows of float; all heavy inner loops
// (dot products, AXPY updates, normalization) funnel through these free
// functions so they can be audited and benchmarked in one place. The span
// arguments are raw pointers + length to keep call sites allocation-free.
//
// ---- SIMD dispatch contract ----
//
// The hot kernels (`Dot`, `DotI8`, `DotBatchI8`, `QuantizeRow`) have
// explicitly vectorized implementations selected at compile time (AVX2
// when the build enables it — see the BSLREC_NATIVE CMake option — and
// SSE2 on any x86-64 build). The scalar forms are always compiled and
// exposed under `vec::ref`; every SIMD kernel is contractually
// *bit-identical* to its reference:
//
//   * integer kernels (`DotI8`, `DotBatchI8`) exactly — int32 arithmetic
//     is associative, so lane layout cannot change the result;
//   * `QuantizeRow` exactly — the max-abs reduction is order-invariant,
//     each code is a float multiply (identical IEEE rounding in scalar
//     and packed form) followed by round-to-nearest-even (the default
//     rounding mode of both std::nearbyintf and CVTPS2DQ);
//   * fp32 `Dot` via an *identical summation tree*: sixteen fp32 lanes,
//     lane j summing a[k+j]*b[k+j] for k stepping by 16; the lanes
//     combine as x = (l0..3 + l4..7) + (l8..11 + l12..15) (four-wide),
//     then (x0 + x1) + (x2 + x3); a tail of n % 16 elements is added
//     after, in order. SSE2 holds the lanes in four 128-bit registers,
//     AVX2 in two 256-bit ones, the reference in an array — every form
//     performs the same IEEE float operations in the same order.
//
// FP contraction is pinned off: the root CMakeLists.txt compiles the
// whole library with -ffp-contract=off, so no build fuses a multiply
// and an add into an FMA (which rounds once instead of twice) in one
// form but not another. With it, the same build produces identical
// bits whichever tier it dispatched to, and every tier produces the
// same bits as every other — SIMD moves speed, never results.
//
// tests/test_vec.cc enforces all of these contracts, including golden
// `Dot` bits that every tier must reproduce; SimdTier() reports which
// tier a binary was compiled with.
#ifndef BSLREC_MATH_VEC_H_
#define BSLREC_MATH_VEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bslrec::vec {

// Compile-time selected SIMD tier of the hot kernels: "avx2", "sse2" or
// "scalar". Diagnostic only (recorded into BENCH_*.json machine info).
const char* SimdTier();

// Always-compiled scalar reference forms of the SIMD-dispatched kernels.
// The public kernels below must match these bit-for-bit (see the header
// note); benches compare against them to quantify the SIMD win.
namespace ref {
float Dot(const float* a, const float* b, size_t n);
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out);
float QuantizeRow(const float* x, size_t n, int8_t* out);
}  // namespace ref

// Returns sum_i a[i] * b[i], summed in the fixed sixteen-lane fp32 tree
// of the contract above.
float Dot(const float* a, const float* b, size_t n);

// Integer dot product over int8 codes, accumulated in int32 (exact — no
// rounding anywhere, so SIMD and scalar agree trivially). Safe from
// overflow for n < 2^17: each product is at most 127*127 < 2^14, so the
// int32 accumulator holds at least 2^31 / 2^14 = 2^17 terms.
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);

// Batch form: out[r] = DotI8(q, rows + r*d, d) for r in [0, m). `rows`
// is a contiguous m x d int8 block (one IVF list's quantized rows).
// This is the list-scan kernel of IVF with int8 lists.
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out);

// Symmetric int8 quantization of one row: scale = max_i |x[i]| / 127,
// out[i] = round-to-nearest-even(x[i] / scale). Returns the scale (the
// dequantization multiplier: x[i] ≈ out[i] * scale, with per-element
// error |x[i] - out[i]*scale| <= scale * (0.5 + eps)). An all-zero row
// gets scale 0 and all-zero codes.
float QuantizeRow(const float* x, size_t n, int8_t* out);

// y += alpha * x  (the classic AXPY update).
void Axpy(float alpha, const float* x, float* y, size_t n);

// x *= alpha.
void Scale(float* x, size_t n, float alpha);

// Returns the Euclidean norm ||x||_2.
float Norm(const float* x, size_t n);

// Writes x / max(||x||, eps) into `out` (out may alias x). Returns the
// original norm. `eps` guards against division by zero for all-zero rows.
float Normalize(const float* x, float* out, size_t n, float eps = 1e-12f);

// Returns the cosine similarity a·b / (||a||·||b||), with zero-norm guard.
float Cosine(const float* a, const float* b, size_t n);

// out = a - b.
void Sub(const float* a, const float* b, float* out, size_t n);

// out = a + b.
void Add(const float* a, const float* b, float* out, size_t n);

// Sets all n entries to v.
void Fill(float* x, size_t n, float v);

// Returns squared Euclidean distance ||a - b||^2.
float SquaredDistance(const float* a, const float* b, size_t n);

// Batch scoring: out[r] = Dot(q, rows + r*d) for r in [0, m). `rows` is a
// contiguous m x d block (gathered negatives, IVF lists and centroids).
// Per row it is exactly Dot, so out[r] == Dot(q, row r, d) bitwise.
void DotBatch(const float* q, const float* rows, size_t m, size_t d,
              float* out);

// Query-blocked batch scoring: out[b * out_stride + r] = Dot(queries[b],
// rows + r*d) for b in [0, nq), r in [0, m). Each row is scored against
// all nq queries back to back, so it is read from memory once and stays
// in L1 for the rest. Every score is bitwise Dot's.
void DotTile(const float* const* queries, size_t nq, const float* rows,
             size_t m, size_t d, float* out, size_t out_stride);

// Gathers rows ids[0..m) from `table` (row stride `stride` floats) into
// the contiguous m x d block `out_rows`, L2-normalizing each row;
// out_norms[r] receives the original norm. Per row this is exactly
// Normalize(table + ids[r]*stride, out_rows + r*d, d) — one call replaces
// the per-draw gather/normalize loop in training hot paths.
void GatherNormalize(const float* table, size_t stride, const uint32_t* ids,
                     size_t m, size_t d, float* out_rows, float* out_norms);

// Gradient of the cosine score f = cos(u, i) with respect to u:
//   d f / d u = (i_hat - f * u_hat) / ||u||
// where u_hat, i_hat are the normalized vectors. The caller passes the
// *normalized* vectors plus the original norm of u; the result is
// accumulated into `grad_u` scaled by `coeff` (the upstream gradient).
void AccumulateCosineGrad(const float* u_hat, const float* i_hat, float score,
                          float u_norm, float coeff, float* grad_u, size_t n);

// Numerically stable log(sum_j exp(x[j])) over n values.
double LogSumExp(const float* x, size_t n);

// Writes softmax(x) into out (out may alias x). Numerically stable.
void Softmax(const float* x, float* out, size_t n);

}  // namespace bslrec::vec

#endif  // BSLREC_MATH_VEC_H_
