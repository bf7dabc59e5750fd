// AVX-512 tier of the quantized scoring kernels. Compiled with
// -mavx512f -mavx512bw -mavx512vl -mavx512dq -mfma -mf16c and only called
// after __builtin_cpu_supports("avx512f") && ("avx512bw") in
// kernels_quant.cc. Bit-identity with the scalar reference:
//   - int8: int32 accumulation is exact, so any summation order gives the
//     same integer; the double epilogue matches the reference verbatim.
//   - fp16/fp32: one register-blocked microkernel (SpBlock) computes 3
//     member rows x 8 items per pass. Each of its 24 accumulators is ONE
//     dot held exactly as qgemm_lanes.inc prescribes: lane j sums
//     elements p = j (mod 8), fused, in p order; the k mod 8 tail is one
//     masked FMA into lanes 0..t-1 (FmaTail); a row's 8 dots are reduced
//     together by a shuffle/unpack transpose whose adds are ReduceLanes8's
//     tree. Blocking only interleaves independent dots, so no dot's
//     operation sequence changes (DESIGN.md §11).
//
// Intrinsics: GCC 12 implements the unmasked forms of shuffle, unpack,
// extract, convert, shift and min/max with an _mm512_undefined_*() merge
// source that -Wmaybe-uninitialized flags once inlined. This file uses
// the maskz forms under a full mask instead; GCC folds those to the same
// unmasked instructions.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/kernels_quant_tiers.h"
#include "tensor/quant.h"

namespace kgag {
namespace kernels {
namespace {

/// Sum of the 8 int32 lanes of a 256-bit vector (exact in any order).
inline int32_t FoldInt32x8(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
  return _mm_cvtsi128_si32(s);
}

/// The two 256-bit halves of a 512-bit int vector, added lane-wise.
inline __m256i FoldInt32x16(__m512i v) {
  return _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xF, v, 0),
                          _mm512_maskz_extracti64x4_epi64(0xF, v, 1));
}

/// int32 dot, 32 codes per iteration: widen to int16 in a 512-bit lane,
/// multiply-add pairs into 16 int32 accumulators (exact).
inline int32_t DotInt8(size_t len, const int8_t* x, const int8_t* y) {
  __m512i acc = _mm512_setzero_si512();
  size_t p = 0;
  for (; p + 32 <= len; p += 32) {
    const __m512i xv = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + p)));
    const __m512i yv = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + p)));
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(xv, yv));
  }
  int32_t sum = FoldInt32x8(FoldInt32x16(acc));
  for (; p < len; ++p) {
    sum += static_cast<int32_t>(x[p]) * static_cast<int32_t>(y[p]);
  }
  return sum;
}

inline void ConvertHalfRow(const uint16_t* in, size_t k, double* out) {
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256 f = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + p)));
    _mm512_storeu_pd(out + p, _mm512_maskz_cvtps_pd(0xFF, f));
  }
  for (; p < k; ++p) out[p] = static_cast<double>(HalfToFloat(in[p]));
}

inline void ConvertFloatRow(const float* in, size_t k, double* out) {
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    _mm512_storeu_pd(out + p,
                     _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(in + p)));
  }
  for (; p < k; ++p) out[p] = static_cast<double>(in[p]);
}

/// Reduces 8 dots' lane vectors to one vector holding the 8 dots, each
/// through ReduceLanes8's tree ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
inline __m512d ReduceDots8(const __m512d d[8]) {
  // t = l[0..3] + l[4..7] for two dots side by side: [t(x), t(y)].
  const auto halves = [](__m512d x, __m512d y) {
    return _mm512_add_pd(_mm512_maskz_shuffle_f64x2(0xFF, x, y, 0x44),
                         _mm512_maskz_shuffle_f64x2(0xFF, x, y, 0xEE));
  };
  // (t0+t2, t1+t3) = (even, odd) for four dots, one per 128-bit lane.
  const auto pairs = [](__m512d x, __m512d y) {
    return _mm512_add_pd(_mm512_maskz_shuffle_f64x2(0xFF, x, y, 0x88),
                         _mm512_maskz_shuffle_f64x2(0xFF, x, y, 0xDD));
  };
  const __m512d ev = pairs(halves(d[0], d[2]), halves(d[4], d[6]));
  const __m512d od = pairs(halves(d[1], d[3]), halves(d[5], d[7]));
  // ev = [e0 o0 e2 o2 ..], od = [e1 o1 e3 o3 ..]: unpack puts dot j's
  // even and odd halves in slot j of two vectors, then even + odd.
  return _mm512_add_pd(_mm512_maskz_unpacklo_pd(0xFF, ev, od),
                       _mm512_maskz_unpackhi_pd(0xFF, ev, od));
}

/// Calls f(integral_constant<int, I>) for I in 0..N-1, so array indices
/// inside f are compile-time constants and the accumulators stay in
/// registers.
template <int N, typename F>
inline void Unroll(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

/// C[r][j] = dot(A row r, B row j) for R rows x 8 items, every dot kept
/// in its own accumulator across k. A rows and the 8 B rows are widened
/// doubles with stride k; only the first `nj` results are stored.
template <int R>
inline void SpBlock(size_t k, const double* a, const double* b, size_t nj,
                    double* c, size_t ldc) {
  __m512d acc[R][8];
  Unroll<R>([&](auto r) {
    Unroll<8>([&](auto j) { acc[r][j] = _mm512_setzero_pd(); });
  });
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m512d av[R];
    Unroll<R>([&](auto r) { av[r] = _mm512_loadu_pd(a + r * k + p); });
    Unroll<8>([&](auto j) {
      const __m512d bv = _mm512_loadu_pd(b + j * k + p);
      Unroll<R>([&](auto r) {
        acc[r][j] = _mm512_fmadd_pd(av[r], bv, acc[r][j]);
      });
    });
  }
  if (p < k) {  // FmaTail: lanes 0..t-1 fused, lanes t..7 keep their value
    const __mmask8 t = static_cast<__mmask8>((1u << (k - p)) - 1);
    __m512d av[R];
    Unroll<R>([&](auto r) {
      av[r] = _mm512_maskz_loadu_pd(t, a + r * k + p);
    });
    Unroll<8>([&](auto j) {
      const __m512d bv = _mm512_maskz_loadu_pd(t, b + j * k + p);
      Unroll<R>([&](auto r) {
        acc[r][j] = _mm512_mask3_fmadd_pd(av[r], bv, acc[r][j], t);
      });
    });
  }
  const __mmask8 store = static_cast<__mmask8>((1u << nj) - 1);
  Unroll<R>([&](auto r) {
    _mm512_mask_storeu_pd(c + r * ldc, store, ReduceDots8(acc[r]));
  });
}

/// 8-lane FastExp: the scalar DAG from kernels.h replicated per lane
/// with unfused mul/add (this file is compiled with -ffp-contract=off so
/// the compiler cannot fuse them behind our back). 2^n comes from
/// bits(shifted) - bits(kShifter): `shifted` lives in [2^52, 2^53) where
/// the mantissa field IS the integer n + const, so the int64 difference
/// equals the scalar static_cast<int64_t>(n) exactly.
inline __m512d FastExp8(__m512d x) {
  x = _mm512_maskz_max_pd(0xFF, x, _mm512_set1_pd(-708.0));
  x = _mm512_maskz_min_pd(0xFF, x, _mm512_set1_pd(709.0));
  const __m512d shifter = _mm512_set1_pd(6755399441055744.0);  // 1.5*2^52
  const __m512d shifted = _mm512_add_pd(
      _mm512_mul_pd(x, _mm512_set1_pd(1.4426950408889634074)), shifter);
  const __m512d n = _mm512_sub_pd(shifted, shifter);
  const __m512d r = _mm512_sub_pd(
      _mm512_sub_pd(x,
                    _mm512_mul_pd(n, _mm512_set1_pd(6.93145751953125e-01))),
      _mm512_mul_pd(n, _mm512_set1_pd(1.42860682030941723212e-06)));
  __m512d p = _mm512_set1_pd(1.0 / 39916800.0);
  const double kC[] = {1.0 / 3628800.0, 1.0 / 362880.0, 1.0 / 40320.0,
                       1.0 / 5040.0,    1.0 / 720.0,    1.0 / 120.0,
                       1.0 / 24.0,      1.0 / 6.0,      0.5,
                       1.0,             1.0};
  for (double c : kC) {
    p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(c));
  }
  const __m512i nbits = _mm512_sub_epi64(_mm512_castpd_si512(shifted),
                                         _mm512_castpd_si512(shifter));
  const __m512i ebits = _mm512_maskz_slli_epi64(
      0xFF, _mm512_add_epi64(nbits, _mm512_set1_epi64(1023)), 52);
  return _mm512_mul_pd(p, _mm512_castsi512_pd(ebits));
}

/// Widens A once and B 8 rows at a time, then runs SpBlock over the
/// rows 3 at a time; the m mod 3 rows and the n mod 8 items run through
/// the same template (R = 1 or 2, zero-padded B rows, masked stores).
template <typename T, void (*Convert)(const T*, size_t, double*)>
void QGemmConvert(size_t m, size_t n, size_t k, const T* a, const T* b,
                  double* c, size_t ldc) {
  std::vector<double> abuf(m * k);
  for (size_t i = 0; i < m; ++i) Convert(a + i * k, k, abuf.data() + i * k);
  std::vector<double> bbuf(8 * k);
  for (size_t j0 = 0; j0 < n; j0 += 8) {
    const size_t nj = std::min<size_t>(8, n - j0);
    for (size_t j = 0; j < nj; ++j) {
      Convert(b + (j0 + j) * k, k, bbuf.data() + j * k);
    }
    std::fill(bbuf.begin() + nj * k, bbuf.end(), 0.0);
    double* cj = c + j0;
    size_t i = 0;
    for (; i + 3 <= m; i += 3) {
      SpBlock<3>(k, abuf.data() + i * k, bbuf.data(), nj, cj + i * ldc, ldc);
    }
    if (m - i == 2) {
      SpBlock<2>(k, abuf.data() + i * k, bbuf.data(), nj, cj + i * ldc, ldc);
    } else if (m - i == 1) {
      SpBlock<1>(k, abuf.data() + i * k, bbuf.data(), nj, cj + i * ldc, ldc);
    }
  }
}

}  // namespace

/// Per-row-scale (block == 0) fast path: A is widened to int16 once per
/// 4-row tile, B is widened once per item row and shared by the tile's 4
/// accumulators, and the 4 horizontal reductions collapse into one
/// hadd tree. Legal because int8 block sums are exact int32 in any
/// accumulation order (the bit-identity contract in kernels.h) — the
/// float tiers cannot reorder like this, which is precisely the int8
/// tier's structural speed advantage at serving shapes (small k, the
/// per-dot epilogue otherwise rivals the dot itself).
void QGemmInt8RowScaleAvx512(size_t m, size_t n, size_t k, const int8_t* a,
                             const float* a_scales, const int8_t* b,
                             const float* b_scales, double* c, size_t ldc) {
  const size_t kv = k & ~size_t{31};  // vectorized prefix, 32 codes/step
  std::vector<int16_t> a16(4 * kv);
  for (size_t i0 = 0; i0 < m; i0 += 4) {
    const size_t it = std::min<size_t>(4, m - i0);
    for (size_t r = 0; r < it; ++r) {
      const int8_t* arow = a + (i0 + r) * k;
      for (size_t p = 0; p < kv; p += 32) {
        _mm512_storeu_si512(
            a16.data() + r * kv + p,
            _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(arow + p))));
      }
    }
    // a_scale[r] preloaded as doubles; lane r of the epilogue computes
    // double(acc_r) * (double(asc_r) * double(bsc_j)) — the reference's
    // expression verbatim.
    alignas(32) double asc4[4] = {0, 0, 0, 0};
    for (size_t r = 0; r < it; ++r) {
      asc4[r] = static_cast<double>(a_scales[i0 + r]);
    }
    const __m256d ascv = _mm256_load_pd(asc4);
    for (size_t j = 0; j < n; ++j) {
      const int8_t* brow = b + j * k;
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      for (size_t p = 0; p < kv; p += 32) {
        const __m512i bv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(brow + p)));
        const int16_t* ap = a16.data() + p;
        acc0 = _mm512_add_epi32(
            acc0, _mm512_madd_epi16(_mm512_loadu_si512(ap), bv));
        acc1 = _mm512_add_epi32(
            acc1, _mm512_madd_epi16(_mm512_loadu_si512(ap + kv), bv));
        acc2 = _mm512_add_epi32(
            acc2, _mm512_madd_epi16(_mm512_loadu_si512(ap + 2 * kv), bv));
        acc3 = _mm512_add_epi32(
            acc3, _mm512_madd_epi16(_mm512_loadu_si512(ap + 3 * kv), bv));
      }
      // Fold 512 -> 256 per accumulator, then one hadd tree yields the
      // tile's 4 sums in one xmm: [acc0, acc1, acc2, acc3].
      const __m256i f0 = FoldInt32x16(acc0);
      const __m256i f1 = FoldInt32x16(acc1);
      const __m256i f2 = FoldInt32x16(acc2);
      const __m256i f3 = FoldInt32x16(acc3);
      const __m256i h01 = _mm256_hadd_epi32(f0, f1);
      const __m256i h23 = _mm256_hadd_epi32(f2, f3);
      const __m256i h = _mm256_hadd_epi32(h01, h23);
      __m128i s = _mm_add_epi32(_mm256_castsi256_si128(h),
                                _mm256_extracti128_si256(h, 1));
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

void QGemmInt8Avx512(size_t m, size_t n, size_t k, uint32_t block,
                     const int8_t* a, const float* a_scales, const int8_t* b,
                     const float* b_scales, double* c, size_t ldc) {
  if (block == 0) {
    QGemmInt8RowScaleAvx512(m, n, k, a, a_scales, b, b_scales, c, ldc);
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

void QGemmFp16Avx512(size_t m, size_t n, size_t k, const uint16_t* a,
                     const uint16_t* b, double* c, size_t ldc) {
  QGemmConvert<uint16_t, &ConvertHalfRow>(m, n, k, a, b, c, ldc);
}

void QGemmFp32Avx512(size_t m, size_t n, size_t k, const float* a,
                     const float* b, double* c, size_t ldc) {
  QGemmConvert<float, &ConvertFloatRow>(m, n, k, a, b, c, ldc);
}

void SoftmaxScoreReduceAvx512(size_t l, size_t n, bool use_sp,
                              const double* sp, size_t ld, const double* pi,
                              double* out) {
  // Eight candidates per iteration; the member loops run inside, each
  // lane tracing the scalar reference's per-item DAG (see kernels.h
  // contract). alpha / exp values for the current 8-candidate block are
  // staged in a small buffer so each is computed once.
  std::vector<double> buf(2 * l * 8);
  double* ab = buf.data();
  double* eb = buf.data() + l * 8;
  size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    __m512d mx = _mm512_setzero_pd();
    for (size_t i = 0; i < l; ++i) {
      const __m512d s =
          use_sp ? _mm512_loadu_pd(sp + i * ld + p) : _mm512_setzero_pd();
      const __m512d a = _mm512_add_pd(s, _mm512_set1_pd(pi[i]));
      _mm512_storeu_pd(ab + i * 8, a);
      mx = i == 0 ? a : _mm512_maskz_max_pd(0xFF, mx, a);
    }
    __m512d sum = _mm512_setzero_pd();
    for (size_t i = 0; i < l; ++i) {
      const __m512d e =
          FastExp8(_mm512_sub_pd(_mm512_loadu_pd(ab + i * 8), mx));
      _mm512_storeu_pd(eb + i * 8, e);
      sum = _mm512_add_pd(sum, e);
    }
    const __m512d inv = _mm512_div_pd(_mm512_set1_pd(1.0), sum);
    __m512d score = _mm512_setzero_pd();
    for (size_t i = 0; i < l; ++i) {
      const __m512d w = _mm512_mul_pd(_mm512_loadu_pd(eb + i * 8), inv);
      score = _mm512_add_pd(
          score, _mm512_mul_pd(w, _mm512_loadu_pd(sp + i * ld + p)));
    }
    _mm512_storeu_pd(out + p, score);
  }
  // Scalar tail — same DAG, via the shared scalar FastExp.
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
