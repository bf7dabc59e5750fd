// AVX2 (+FMA, F16C) tier of the quantized scoring kernels. Compiled with
// -mavx2 -mfma -mf16c (see src/tensor/CMakeLists.txt) and only called
// after the matching __builtin_cpu_supports checks in kernels_quant.cc.
//
// Bit-identity with the scalar reference:
//   - int8: integer accumulation is exact, any summation order gives the
//     same int32; the double expression per block matches the reference
//     verbatim.
//   - fp16/fp32: conversions to double are exact widenings (vcvtph2ps /
//     vcvtps2pd agree with the scalar converters bit-for-bit), the main
//     loop holds lanes 0-3 and 4-7 in two fused-multiply-add accumulators
//     (element p mod 8 -> lane p mod 8, same as the scalar stride-8 loop),
//     the ragged tail runs the shared scalar code, and the final reduction
//     mirrors ReduceLanes8's tree exactly.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/kernels_quant_tiers.h"
#include "tensor/quant.h"

namespace kgag {
namespace kernels {
namespace {

#include "tensor/qgemm_lanes.inc"

/// int32 dot of two int8 vectors: widen 16 codes at a time to int16,
/// multiply-add pairs into int32 (exact; |a·b| ≤ 127² so the int16
/// products and their pairwise sums cannot overflow int32 over any
/// realistic k).
inline int32_t DotInt8(size_t len, const int8_t* x, const int8_t* y) {
  __m256i acc = _mm256_setzero_si256();
  size_t p = 0;
  for (; p + 16 <= len; p += 16) {
    const __m256i xv = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + p)));
    const __m256i yv = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + p)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
  }
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int32_t sum = 0;
  for (int j = 0; j < 8; ++j) sum += lanes[j];
  for (; p < len; ++p) {
    sum += static_cast<int32_t>(x[p]) * static_cast<int32_t>(y[p]);
  }
  return sum;
}

/// Lane-discipline dot over pre-converted doubles: acc0 = lanes 0-3,
/// acc1 = lanes 4-7, fused multiply-adds, shared scalar tail, then the
/// extract/add sequence that reproduces ReduceLanes8's tree.
inline double DotLanes8(size_t k, const double* x, const double* y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + p), _mm256_loadu_pd(y + p),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + p + 4),
                           _mm256_loadu_pd(y + p + 4), acc1);
  }
  alignas(32) double l[8];
  _mm256_store_pd(l, acc0);
  _mm256_store_pd(l + 4, acc1);
  FmaTail(p, k, x, y, l);
  return ReduceLanes8(l);
}

inline void ConvertHalfRow(const uint16_t* in, size_t k, double* out) {
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256 f = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + p)));
    _mm256_storeu_pd(out + p, _mm256_cvtps_pd(_mm256_castps256_ps128(f)));
    _mm256_storeu_pd(out + p + 4,
                     _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1)));
  }
  for (; p < k; ++p) out[p] = static_cast<double>(HalfToFloat(in[p]));
}

inline void ConvertFloatRow(const float* in, size_t k, double* out) {
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    _mm256_storeu_pd(out + p, _mm256_cvtps_pd(_mm_loadu_ps(in + p)));
  }
  for (; p < k; ++p) out[p] = static_cast<double>(in[p]);
}

template <typename T, void (*Convert)(const T*, size_t, double*)>
void QGemmConvert(size_t m, size_t n, size_t k, const T* a, const T* b,
                  double* c, size_t ldc) {
  std::vector<double> abuf(m * k);
  for (size_t i = 0; i < m; ++i) Convert(a + i * k, k, &abuf[i * k]);
  std::vector<double> brow(k);
  for (size_t j = 0; j < n; ++j) {
    Convert(b + j * k, k, brow.data());
    for (size_t i = 0; i < m; ++i) {
      c[i * ldc + j] = DotLanes8(k, &abuf[i * k], brow.data());
    }
  }
}

}  // namespace

namespace {

/// Per-row-scale (block == 0) fast path: 4-row A tile widened to int16
/// once, B widened once per item row and shared across the tile, and the
/// 4 horizontal reductions collapsed into one hadd tree. Exact-int32
/// accumulation makes the reordering bit-identical to the reference (see
/// the AVX-512 tier for the full argument).
void QGemmInt8RowScaleAvx2(size_t m, size_t n, size_t k, const int8_t* a,
                           const float* a_scales, const int8_t* b,
                           const float* b_scales, double* c, size_t ldc) {
  const size_t kv = k & ~size_t{15};  // vectorized prefix, 16 codes/step
  std::vector<int16_t> a16(4 * kv);
  for (size_t i0 = 0; i0 < m; i0 += 4) {
    const size_t it = std::min<size_t>(4, m - i0);
    for (size_t r = 0; r < it; ++r) {
      const int8_t* arow = a + (i0 + r) * k;
      for (size_t p = 0; p < kv; p += 16) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(a16.data() + r * kv + p),
            _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(arow + p))));
      }
    }
    alignas(32) double asc4[4] = {0, 0, 0, 0};
    for (size_t r = 0; r < it; ++r) {
      asc4[r] = static_cast<double>(a_scales[i0 + r]);
    }
    const __m256d ascv = _mm256_load_pd(asc4);
    for (size_t j = 0; j < n; ++j) {
      const int8_t* brow = b + j * k;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (size_t p = 0; p < kv; p += 16) {
        const __m256i bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(brow + p)));
        const int16_t* ap = a16.data() + p;
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(_mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(ap)), bv));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(_mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(ap + kv)), bv));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(_mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(ap + 2 * kv)), bv));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(_mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(ap + 3 * kv)), bv));
      }
      const __m128i f0 = _mm_add_epi32(_mm256_castsi256_si128(acc0),
                                       _mm256_extracti128_si256(acc0, 1));
      const __m128i f1 = _mm_add_epi32(_mm256_castsi256_si128(acc1),
                                       _mm256_extracti128_si256(acc1, 1));
      const __m128i f2 = _mm_add_epi32(_mm256_castsi256_si128(acc2),
                                       _mm256_extracti128_si256(acc2, 1));
      const __m128i f3 = _mm_add_epi32(_mm256_castsi256_si128(acc3),
                                       _mm256_extracti128_si256(acc3, 1));
      __m128i s = _mm_hadd_epi32(_mm_hadd_epi32(f0, f1),
                                 _mm_hadd_epi32(f2, f3));
      if (kv < k) {  // ragged k tail, exact int32 adds
        alignas(16) int32_t st[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(st), s);
        for (size_t r = 0; r < it; ++r) {
          const int8_t* arow = a + (i0 + r) * k;
          for (size_t p = kv; p < k; ++p) {
            st[r] += static_cast<int32_t>(arow[p]) *
                     static_cast<int32_t>(brow[p]);
          }
        }
        s = _mm_load_si128(reinterpret_cast<const __m128i*>(st));
      }
      const __m256d scale = _mm256_mul_pd(
          ascv, _mm256_set1_pd(static_cast<double>(b_scales[j])));
      alignas(32) double outs[4];
      _mm256_store_pd(outs, _mm256_mul_pd(_mm256_cvtepi32_pd(s), scale));
      for (size_t r = 0; r < it; ++r) c[(i0 + r) * ldc + j] = outs[r];
    }
  }
}

}  // namespace

void QGemmInt8Avx2(size_t m, size_t n, size_t k, uint32_t block,
                   const int8_t* a, const float* a_scales, const int8_t* b,
                   const float* b_scales, double* c, size_t ldc) {
  if (block == 0) {
    QGemmInt8RowScaleAvx2(m, n, k, a, a_scales, b, b_scales, c, ldc);
    return;
  }
  const size_t bs = block;
  const size_t spr = (k + block - 1) / block;
  for (size_t j = 0; j < n; ++j) {
    const int8_t* brow = b + j * k;
    const float* bsc = b_scales + j * spr;
    for (size_t i = 0; i < m; ++i) {
      const int8_t* arow = a + i * k;
      const float* asc = a_scales + i * spr;
      double sum = 0.0;
      for (size_t blk = 0, p0 = 0; p0 < k; ++blk, p0 += bs) {
        const size_t p1 = std::min(k, p0 + bs);
        const int32_t acc = DotInt8(p1 - p0, arow + p0, brow + p0);
        sum += static_cast<double>(acc) * (static_cast<double>(asc[blk]) *
                                           static_cast<double>(bsc[blk]));
      }
      c[i * ldc + j] = sum;
    }
  }
}

void QGemmFp16Avx2(size_t m, size_t n, size_t k, const uint16_t* a,
                   const uint16_t* b, double* c, size_t ldc) {
  QGemmConvert<uint16_t, &ConvertHalfRow>(m, n, k, a, b, c, ldc);
}

void QGemmFp32Avx2(size_t m, size_t n, size_t k, const float* a,
                   const float* b, double* c, size_t ldc) {
  QGemmConvert<float, &ConvertFloatRow>(m, n, k, a, b, c, ldc);
}

namespace {

/// 4-lane FastExp mirroring the scalar DAG in kernels.h, unfused mul/add
/// (-ffp-contract=off on this file). See the AVX-512 tier for the
/// bits(shifted) - bits(kShifter) derivation of 2^n.
inline __m256d FastExp4(__m256d x) {
  x = _mm256_max_pd(x, _mm256_set1_pd(-708.0));
  x = _mm256_min_pd(x, _mm256_set1_pd(709.0));
  const __m256d shifter = _mm256_set1_pd(6755399441055744.0);  // 1.5*2^52
  const __m256d shifted = _mm256_add_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(1.4426950408889634074)), shifter);
  const __m256d n = _mm256_sub_pd(shifted, shifter);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x,
                    _mm256_mul_pd(n, _mm256_set1_pd(6.93145751953125e-01))),
      _mm256_mul_pd(n, _mm256_set1_pd(1.42860682030941723212e-06)));
  __m256d p = _mm256_set1_pd(1.0 / 39916800.0);
  const double kC[] = {1.0 / 3628800.0, 1.0 / 362880.0, 1.0 / 40320.0,
                       1.0 / 5040.0,    1.0 / 720.0,    1.0 / 120.0,
                       1.0 / 24.0,      1.0 / 6.0,      0.5,
                       1.0,             1.0};
  for (double c : kC) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(c));
  }
  const __m256i nbits = _mm256_sub_epi64(_mm256_castpd_si256(shifted),
                                         _mm256_castpd_si256(shifter));
  const __m256i ebits = _mm256_slli_epi64(
      _mm256_add_epi64(nbits, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(p, _mm256_castsi256_pd(ebits));
}

}  // namespace

void SoftmaxScoreReduceAvx2(size_t l, size_t n, bool use_sp,
                            const double* sp, size_t ld, const double* pi,
                            double* out) {
  // Four candidates per iteration, lanes running the scalar reference's
  // per-item DAG; scalar tail for the ragged end.
  std::vector<double> buf(2 * l * 4);
  double* ab = buf.data();
  double* eb = buf.data() + l * 4;
  size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    __m256d mx = _mm256_setzero_pd();
    for (size_t i = 0; i < l; ++i) {
      const __m256d s =
          use_sp ? _mm256_loadu_pd(sp + i * ld + p) : _mm256_setzero_pd();
      const __m256d a = _mm256_add_pd(s, _mm256_set1_pd(pi[i]));
      _mm256_storeu_pd(ab + i * 4, a);
      mx = i == 0 ? a : _mm256_max_pd(mx, a);
    }
    __m256d sum = _mm256_setzero_pd();
    for (size_t i = 0; i < l; ++i) {
      const __m256d e =
          FastExp4(_mm256_sub_pd(_mm256_loadu_pd(ab + i * 4), mx));
      _mm256_storeu_pd(eb + i * 4, e);
      sum = _mm256_add_pd(sum, e);
    }
    const __m256d inv = _mm256_div_pd(_mm256_set1_pd(1.0), sum);
    __m256d score = _mm256_setzero_pd();
    for (size_t i = 0; i < l; ++i) {
      const __m256d w = _mm256_mul_pd(_mm256_loadu_pd(eb + i * 4), inv);
      score = _mm256_add_pd(
          score, _mm256_mul_pd(w, _mm256_loadu_pd(sp + i * ld + p)));
    }
    _mm256_storeu_pd(out + p, score);
  }
  for (; p < n; ++p) {
    for (size_t i = 0; i < l; ++i) {
      ab[i] = (use_sp ? sp[i * ld + p] : 0.0) + pi[i];
    }
    double mx = ab[0];
    for (size_t i = 1; i < l; ++i) mx = std::max(mx, ab[i]);
    double sum = 0.0;
    for (size_t i = 0; i < l; ++i) {
      ab[i] = FastExp(ab[i] - mx);
      sum += ab[i];
    }
    const double inv = 1.0 / sum;
    double score = 0.0;
    for (size_t i = 0; i < l; ++i) {
      score += (ab[i] * inv) * sp[i * ld + p];
    }
    out[p] = score;
  }
}

}  // namespace kernels
}  // namespace kgag
