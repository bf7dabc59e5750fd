// Quantized scoring kernels: scalar reference implementations (the
// dispatch-independent oracle) plus the runtime ISA dispatch that routes
// the public QGemm* entry points to the AVX2/AVX-512 variants compiled in
// kernels_quant_avx2.cc / kernels_quant_avx512.cc. See kernels.h for the
// bit-identity contract and qgemm_lanes.inc for the shared accumulation
// discipline that makes it hold.
#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/obs.h"
#include "tensor/kernels.h"
#include "tensor/kernels_quant_tiers.h"
#include "tensor/quant.h"

namespace kgag {
namespace kernels {
namespace {

#include "tensor/qgemm_lanes.inc"

void ConvertHalfRow(const uint16_t* in, size_t k, double* out) {
  for (size_t p = 0; p < k; ++p) {
    out[p] = static_cast<double>(HalfToFloat(in[p]));
  }
}

void ConvertFloatRow(const float* in, size_t k, double* out) {
  for (size_t p = 0; p < k; ++p) out[p] = static_cast<double>(in[p]);
}

using QInt8Fn = void (*)(size_t, size_t, size_t, uint32_t, const int8_t*,
                         const float*, const int8_t*, const float*, double*,
                         size_t);
using QFp16Fn = void (*)(size_t, size_t, size_t, const uint16_t*,
                         const uint16_t*, double*, size_t);
using QFp32Fn = void (*)(size_t, size_t, size_t, const float*, const float*,
                         double*, size_t);

using SoftmaxFn = void (*)(size_t, size_t, bool, const double*, size_t,
                           const double*, double*);

struct QuantDispatch {
  QInt8Fn int8_fn;
  QFp16Fn fp16_fn;
  QFp32Fn fp32_fn;
  SoftmaxFn softmax_fn;
  int level;
};

QuantDispatch PickQuantDispatch() {
#ifdef KGAG_HAVE_ARCH_KERNELS
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    return {&QGemmInt8Avx512, &QGemmFp16Avx512, &QGemmFp32Avx512,
            &SoftmaxScoreReduceAvx512, 3};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    return {&QGemmInt8Avx2, &QGemmFp16Avx2, &QGemmFp32Avx2,
            &SoftmaxScoreReduceAvx2, 2};
  }
#endif
  return {&QGemmInt8Ref, &QGemmFp16Ref, &QGemmFp32Ref,
          &SoftmaxScoreReduceRef, 0};
}

const QuantDispatch g_quant = PickQuantDispatch();

}  // namespace

void QGemmInt8Ref(size_t m, size_t n, size_t k, uint32_t block,
                  const int8_t* a, const float* a_scales, const int8_t* b,
                  const float* b_scales, double* c, size_t ldc) {
  const size_t bs = block == 0 ? k : block;
  const size_t spr = block == 0 ? 1 : (k + block - 1) / block;
  for (size_t j = 0; j < n; ++j) {
    const int8_t* brow = b + j * k;
    const float* bsc = b_scales + j * spr;
    for (size_t i = 0; i < m; ++i) {
      const int8_t* arow = a + i * k;
      const float* asc = a_scales + i * spr;
      double sum = 0.0;
      for (size_t blk = 0, p0 = 0; p0 < k; ++blk, p0 += bs) {
        const size_t p1 = std::min(k, p0 + bs);
        int32_t acc = 0;
        for (size_t p = p0; p < p1; ++p) {
          acc += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(brow[p]);
        }
        sum += static_cast<double>(acc) * (static_cast<double>(asc[blk]) *
                                           static_cast<double>(bsc[blk]));
      }
      c[i * ldc + j] = sum;
    }
  }
}

void QGemmFp16Ref(size_t m, size_t n, size_t k, const uint16_t* a,
                  const uint16_t* b, double* c, size_t ldc) {
  std::vector<double> abuf(m * k);
  for (size_t i = 0; i < m; ++i) ConvertHalfRow(a + i * k, k, &abuf[i * k]);
  std::vector<double> brow(k);
  for (size_t j = 0; j < n; ++j) {
    ConvertHalfRow(b + j * k, k, brow.data());
    for (size_t i = 0; i < m; ++i) {
      c[i * ldc + j] = DotLanes8Scalar(k, &abuf[i * k], brow.data());
    }
  }
}

void QGemmFp32Ref(size_t m, size_t n, size_t k, const float* a,
                  const float* b, double* c, size_t ldc) {
  std::vector<double> abuf(m * k);
  for (size_t i = 0; i < m; ++i) ConvertFloatRow(a + i * k, k, &abuf[i * k]);
  std::vector<double> brow(k);
  for (size_t j = 0; j < n; ++j) {
    ConvertFloatRow(b + j * k, k, brow.data());
    for (size_t i = 0; i < m; ++i) {
      c[i * ldc + j] = DotLanes8Scalar(k, &abuf[i * k], brow.data());
    }
  }
}

void QGemmInt8(size_t m, size_t n, size_t k, uint32_t block, const int8_t* a,
               const float* a_scales, const int8_t* b, const float* b_scales,
               double* c, size_t ldc) {
  if (m == 0 || n == 0) return;
  KGAG_COUNTER_ADD("gemm.quant_calls", 1);
  g_quant.int8_fn(m, n, k, block, a, a_scales, b, b_scales, c, ldc);
}

void QGemmFp16(size_t m, size_t n, size_t k, const uint16_t* a,
               const uint16_t* b, double* c, size_t ldc) {
  if (m == 0 || n == 0) return;
  KGAG_COUNTER_ADD("gemm.quant_calls", 1);
  g_quant.fp16_fn(m, n, k, a, b, c, ldc);
}

void QGemmFp32(size_t m, size_t n, size_t k, const float* a, const float* b,
               double* c, size_t ldc) {
  if (m == 0 || n == 0) return;
  KGAG_COUNTER_ADD("gemm.quant_calls", 1);
  g_quant.fp32_fn(m, n, k, a, b, c, ldc);
}

void SoftmaxScoreReduceRef(size_t l, size_t n, bool use_sp,
                           const double* sp, size_t ld, const double* pi,
                           double* out) {
  // Per-candidate DAG (the SIMD tiers run this exact operation sequence
  // in every lane): alpha_i = (use_sp ? sp : 0) + pi_i; max seeded by
  // member 0; e_i = FastExp(alpha_i - mx) summed in member order; one
  // division; score accumulated in member order.
  std::vector<double> alpha(l);
  for (size_t p = 0; p < n; ++p) {
    for (size_t i = 0; i < l; ++i) {
      alpha[i] = (use_sp ? sp[i * ld + p] : 0.0) + pi[i];
    }
    double mx = alpha[0];
    for (size_t i = 1; i < l; ++i) mx = std::max(mx, alpha[i]);
    double sum = 0.0;
    for (size_t i = 0; i < l; ++i) {
      alpha[i] = FastExp(alpha[i] - mx);
      sum += alpha[i];
    }
    const double inv = 1.0 / sum;
    double score = 0.0;
    for (size_t i = 0; i < l; ++i) {
      score += (alpha[i] * inv) * sp[i * ld + p];
    }
    out[p] = score;
  }
}

void SoftmaxScoreReduce(size_t l, size_t n, bool use_sp, const double* sp,
                        size_t ld, const double* pi, double* out) {
  if (l == 0 || n == 0) return;
  g_quant.softmax_fn(l, n, use_sp, sp, ld, pi, out);
}

int QuantIsaLevel() { return g_quant.level; }

}  // namespace kernels
}  // namespace kgag
