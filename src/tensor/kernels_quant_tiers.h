// Internal: the ISA tiers of the quantized scoring kernels, defined in
// kernels_quant_avx2.cc / kernels_quant_avx512.cc and declared only when
// the build compiles them (KGAG_HAVE_ARCH_KERNELS). kernels_quant.cc
// dispatches to them; tests/test_quant.cc calls each tier the host
// supports directly, so a tier the dispatcher does not pick on this host
// is still compared with the scalar reference. Callers must check
// __builtin_cpu_supports first (the same checks as PickQuantDispatch).
#ifndef KGAG_TENSOR_KERNELS_QUANT_TIERS_H_
#define KGAG_TENSOR_KERNELS_QUANT_TIERS_H_

#include <cstddef>
#include <cstdint>

#ifdef KGAG_HAVE_ARCH_KERNELS
namespace kgag {
namespace kernels {

// avx2 + fma + f16c
void QGemmInt8Avx2(size_t m, size_t n, size_t k, uint32_t block,
                   const int8_t* a, const float* a_scales, const int8_t* b,
                   const float* b_scales, double* c, size_t ldc);
void QGemmFp16Avx2(size_t m, size_t n, size_t k, const uint16_t* a,
                   const uint16_t* b, double* c, size_t ldc);
void QGemmFp32Avx2(size_t m, size_t n, size_t k, const float* a,
                   const float* b, double* c, size_t ldc);
void SoftmaxScoreReduceAvx2(size_t l, size_t n, bool use_sp,
                            const double* sp, size_t ld, const double* pi,
                            double* out);

// avx512f + avx512bw
void QGemmInt8Avx512(size_t m, size_t n, size_t k, uint32_t block,
                     const int8_t* a, const float* a_scales, const int8_t* b,
                     const float* b_scales, double* c, size_t ldc);
void QGemmFp16Avx512(size_t m, size_t n, size_t k, const uint16_t* a,
                     const uint16_t* b, double* c, size_t ldc);
void QGemmFp32Avx512(size_t m, size_t n, size_t k, const float* a,
                     const float* b, double* c, size_t ldc);
void SoftmaxScoreReduceAvx512(size_t l, size_t n, bool use_sp,
                              const double* sp, size_t ld, const double* pi,
                              double* out);

}  // namespace kernels
}  // namespace kgag
#endif  // KGAG_HAVE_ARCH_KERNELS

#endif  // KGAG_TENSOR_KERNELS_QUANT_TIERS_H_
