// Quantized storage and kernel tests (DESIGN.md §11): half conversions,
// quantization error bounds, and — load-bearing
// for the serving bit-identity guarantee — property tests that the
// dispatched QGemm*/SoftmaxScoreReduce kernels, and every ISA tier this
// machine can run, match their scalar references EXACTLY.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "tensor/kernels_quant_tiers.h"
#include "tensor/quant.h"

namespace kgag {
namespace {

TEST(HalfConversion, ExactValuesRoundTrip) {
  // Everything a half can represent survives float -> half -> float.
  const float exact[] = {0.0f, -0.0f, 1.0f,  -1.0f,   0.5f,
                         2.0f, 65504.0f, -65504.0f, 6.103515625e-5f,
                         1.5f, 0.0999755859375f};
  for (float f : exact) {
    const float back = HalfToFloat(FloatToHalf(f));
    EXPECT_EQ(back, f) << f;
  }
  // Signed zero keeps its sign bit.
  EXPECT_EQ(FloatToHalf(-0.0f), 0x8000u);
  EXPECT_EQ(FloatToHalf(0.0f), 0x0000u);
}

TEST(HalfConversion, RoundsToNearestEven) {
  // Near 1.0 a half ULP is 2^-10; 1 + 2^-11 is exactly halfway between
  // 1.0 and 1 + 2^-10, and ties-to-even rounds down to 1.0 (even
  // mantissa).
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f + 4.8828125e-4f)), 1.0f);
  // Just above the halfway point rounds up to the next half.
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f + 4.9e-4f)), 1.0009765625f);
}

TEST(HalfConversion, OverflowAndSpecials) {
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e6f)),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(HalfToFloat(FloatToHalf(-1e6f)),
            -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(HalfToFloat(
      FloatToHalf(std::numeric_limits<float>::quiet_NaN()))));
  // Subnormal halves survive the round trip too.
  const float tiny = 5.960464477539063e-8f;  // smallest subnormal half
  EXPECT_EQ(HalfToFloat(FloatToHalf(tiny)), tiny);
}

TEST(HalfConversion, AgreesWithDoubleRounding) {
  // Cross-check the bit algorithm against the obvious (but slow)
  // reference: round via the value grid.
  Rng rng(11);
  for (int t = 0; t < 2000; ++t) {
    const float f = static_cast<float>(rng.Uniform(-70000.0, 70000.0));
    const uint16_t h = FloatToHalf(f);
    const float v = HalfToFloat(h);
    if (std::abs(f) <= 65504.0f) {
      // |f - v| must be at most half a ULP of v's binade.
      const float next = HalfToFloat(static_cast<uint16_t>(
          (h & 0x7fffu) == 0x7bffu ? h : h + 1));
      EXPECT_LE(std::abs(f - v), std::abs(next - v))
          << "f=" << f << " v=" << v;
    }
  }
}

TEST(Quantize, Int8ErrorBoundedByHalfScale) {
  Rng rng(5);
  Tensor t(17, 23);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.Uniform(-3.0, 3.0);
  }
  for (uint32_t block : {0u, 1u, 5u, 8u, 23u, 64u}) {
    const QuantizedMatrix q = QuantizeMatrix(t, QuantType::kInt8, block);
    const Tensor back = DequantizeMatrix(q);
    const size_t spr = q.ScalesPerRow();
    const size_t bs = block == 0 ? 23 : block;
    for (size_t r = 0; r < 17; ++r) {
      for (size_t c = 0; c < 23; ++c) {
        const double scale =
            static_cast<double>(q.RowScales(r)[block == 0 ? 0 : c / bs]);
        EXPECT_LE(std::abs(back.at(r, c) - t.at(r, c)), scale * 0.5 + 1e-12)
            << "block=" << block << " r=" << r << " c=" << c;
      }
    }
    ASSERT_EQ(spr, block == 0 ? 1u : (23 + block - 1) / block);
  }
}

TEST(Quantize, Int8ZeroRowHasZeroScale) {
  Tensor t(2, 4);
  t.at(1, 2) = 0.5;  // row 0 stays all-zero
  const QuantizedMatrix q = QuantizeMatrix(t, QuantType::kInt8, 0);
  EXPECT_EQ(q.RowScales(0)[0], 0.0f);
  const Tensor back = DequantizeMatrix(q);
  for (size_t c = 0; c < 4; ++c) EXPECT_EQ(back.at(0, c), 0.0);
  // The row max always maps to code ±127: it reconstructs to
  // 127 * float(|max| / 127), within one float rounding of the input.
  EXPECT_EQ(q.data[1 * 4 + 2], static_cast<uint8_t>(127));
  EXPECT_NEAR(back.at(1, 2), 0.5, 1e-7);
}

TEST(Quantize, Fp16AndFp32MatchScalarNarrowing) {
  Rng rng(6);
  Tensor t(5, 9);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.Uniform(-2.0, 2.0);
  }
  const QuantizedMatrix q32 = QuantizeMatrix(t, QuantType::kFp32);
  const QuantizedMatrix q16 = QuantizeMatrix(t, QuantType::kFp16);
  const Tensor b32 = DequantizeMatrix(q32);
  const Tensor b16 = DequantizeMatrix(q16);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 9; ++c) {
      EXPECT_EQ(b32.at(r, c),
                static_cast<double>(static_cast<float>(t.at(r, c))));
      EXPECT_EQ(b16.at(r, c),
                static_cast<double>(HalfToFloat(
                    FloatToHalf(static_cast<float>(t.at(r, c))))));
    }
  }
}

TEST(FastExp, ExactAtZeroAndCloseToLibmEverywhere) {
  EXPECT_EQ(kernels::FastExp(0.0), 1.0);
  Rng rng(17);
  double worst = 0.0;
  for (int t = 0; t < 20000; ++t) {
    const double x = rng.Uniform(-700.0, 700.0);
    const double want = std::exp(x);
    const double got = kernels::FastExp(x);
    const double rel = std::abs(got - want) / want;
    worst = std::max(worst, rel);
  }
  // Softmax logit gaps the ranking depends on are >> 1e-12.
  EXPECT_LT(worst, 1e-12);
  // The clamp rails stay finite/normal.
  EXPECT_GT(kernels::FastExp(-1000.0), 0.0);
  EXPECT_TRUE(std::isfinite(kernels::FastExp(1000.0)));
}

// --- dispatch-vs-reference exactness (the bit-identity contract) -------

/// One set of quantized kernels: "dispatched" is what the public entry
/// points pick on this host; the named ISA tiers are every tier the host
/// can run, called directly, so a tier the dispatcher skips (AVX2 on an
/// AVX-512 host) is still compared with the scalar reference.
struct Tier {
  std::string name;
  void (*int8)(size_t, size_t, size_t, uint32_t, const int8_t*,
               const float*, const int8_t*, const float*, double*, size_t);
  void (*fp16)(size_t, size_t, size_t, const uint16_t*, const uint16_t*,
               double*, size_t);
  void (*fp32)(size_t, size_t, size_t, const float*, const float*, double*,
               size_t);
  void (*softmax)(size_t, size_t, bool, const double*, size_t,
                  const double*, double*);
};

std::vector<Tier> HostTiers() {
  std::vector<Tier> tiers = {
      {"dispatched (ISA level " + std::to_string(kernels::QuantIsaLevel()) +
           ")",
       &kernels::QGemmInt8, &kernels::QGemmFp16, &kernels::QGemmFp32,
       &kernels::SoftmaxScoreReduce}};
#ifdef KGAG_HAVE_ARCH_KERNELS
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    tiers.push_back({"avx2", &kernels::QGemmInt8Avx2, &kernels::QGemmFp16Avx2,
                     &kernels::QGemmFp32Avx2,
                     &kernels::SoftmaxScoreReduceAvx2});
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    tiers.push_back({"avx512", &kernels::QGemmInt8Avx512,
                     &kernels::QGemmFp16Avx512, &kernels::QGemmFp32Avx512,
                     &kernels::SoftmaxScoreReduceAvx512});
  }
#endif
  return tiers;
}

struct QuantCase {
  size_t m, n, k;
  uint32_t block;
  size_t ldc = 0;  // 0 = n
};

std::vector<QuantCase> RandomCases(Rng* rng) {
  std::vector<QuantCase> cases;
  // Deliberately ragged shapes: k straddling the 16/32-code SIMD strides,
  // m straddling the 4-row int8 tile, n straddling the 4/8-lane softmax
  // width.
  for (int t = 0; t < 25; ++t) {
    QuantCase c;
    c.m = static_cast<size_t>(rng->UniformInt(1, 9));
    c.n = static_cast<size_t>(rng->UniformInt(1, 70));
    c.k = static_cast<size_t>(rng->UniformInt(1, 100));
    const int bsel = static_cast<int>(rng->UniformInt(0, 3));
    c.block = bsel == 0 ? 0
              : bsel == 1
                  ? 8
                  : static_cast<uint32_t>(rng->UniformInt(
                        1, static_cast<int64_t>(c.k)));
    cases.push_back(c);
  }
  cases.push_back({1, 1, 1, 0});
  cases.push_back({4, 64, 64, 0});
  cases.push_back({5, 33, 65, 0});
  return cases;
}

/// Shapes that cross the AVX-512 float microkernel's blocking (3 rows x 8
/// items, k in strides of 8) and the int8 tiles: every m mod 3, n around
/// 8 and around a 512-item serving tile, k around 8 and 64. Every other
/// shape writes into a wider C (ldc > n), whose gap must stay untouched.
std::vector<QuantCase> BlockingEdgeCases() {
  std::vector<QuantCase> cases;
  for (size_t m = 1; m <= 7; ++m) {
    for (size_t n : {7, 8, 9, 511, 512, 513, 1031}) {
      for (size_t k : {1, 7, 8, 9, 63, 64, 65, 72}) {
        const uint32_t block = cases.size() % 3 == 2 ? 8 : 0;
        cases.push_back({m, n, k, block, n + (cases.size() % 2) * 3});
      }
    }
  }
  return cases;
}

std::string Describe(const Tier& tier, const QuantCase& c, size_t i) {
  return tier.name + ": m=" + std::to_string(c.m) +
         " n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) +
         " block=" + std::to_string(c.block) +
         " ldc=" + std::to_string(c.ldc) + " i=" + std::to_string(i);
}

/// Runs `tier_fn` for every host tier into a C pre-filled with the same
/// sentinel as the reference's, and requires the whole m x ldc buffer to
/// match bit for bit (gap columns included).
template <typename RefFn, typename TierFn>
void ExpectTiersMatch(QuantCase c, RefFn&& ref_fn, TierFn&& tier_fn) {
  if (c.ldc == 0) c.ldc = c.n;
  std::vector<double> want(c.m * c.ldc, -1.0);
  ref_fn(want.data(), c.ldc);
  for (const Tier& tier : HostTiers()) {
    std::vector<double> got(c.m * c.ldc, -1.0);
    tier_fn(tier, got.data(), c.ldc);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << Describe(tier, c, i);
    }
  }
}

void CheckInt8(const QuantCase& c, const std::vector<int8_t>& a,
               const std::vector<float>& as, const std::vector<int8_t>& b,
               const std::vector<float>& bs) {
  ExpectTiersMatch(
      c,
      [&](double* out, size_t ldc) {
        kernels::QGemmInt8Ref(c.m, c.n, c.k, c.block, a.data(), as.data(),
                              b.data(), bs.data(), out, ldc);
      },
      [&](const Tier& t, double* out, size_t ldc) {
        t.int8(c.m, c.n, c.k, c.block, a.data(), as.data(), b.data(),
               bs.data(), out, ldc);
      });
}

TEST(QGemmDispatch, Int8MatchesScalarReferenceExactly) {
  Rng rng(23);
  for (const QuantCase& c : RandomCases(&rng)) {
    Tensor a(c.m, c.k), b(c.n, c.k);
    for (size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = rng.Uniform(-1.0, 1.0);
    }
    for (size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = rng.Uniform(-1.0, 1.0);
    }
    const QuantizedMatrix qa = QuantizeMatrix(a, QuantType::kInt8, c.block);
    const QuantizedMatrix qb = QuantizeMatrix(b, QuantType::kInt8, c.block);
    const auto* pa = reinterpret_cast<const int8_t*>(qa.data.data());
    const auto* pb = reinterpret_cast<const int8_t*>(qb.data.data());
    CheckInt8(c, {pa, pa + c.m * c.k}, qa.scales,
              {pb, pb + c.n * c.k}, qb.scales);
  }
}

template <typename Code>
void CheckFloat(const QuantCase& c, const std::vector<Code>& a,
                const std::vector<Code>& b) {
  ExpectTiersMatch(
      c,
      [&](double* out, size_t ldc) {
        if constexpr (std::is_same_v<Code, uint16_t>) {
          kernels::QGemmFp16Ref(c.m, c.n, c.k, a.data(), b.data(), out, ldc);
        } else {
          kernels::QGemmFp32Ref(c.m, c.n, c.k, a.data(), b.data(), out, ldc);
        }
      },
      [&](const Tier& t, double* out, size_t ldc) {
        if constexpr (std::is_same_v<Code, uint16_t>) {
          t.fp16(c.m, c.n, c.k, a.data(), b.data(), out, ldc);
        } else {
          t.fp32(c.m, c.n, c.k, a.data(), b.data(), out, ldc);
        }
      });
}

template <typename Code, QuantType kType>
void FloatDispatchCase(Rng* rng, const QuantCase& c) {
  Tensor a(c.m, c.k), b(c.n, c.k);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = rng->Uniform(-1.0, 1.0);
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = rng->Uniform(-1.0, 1.0);
  }
  const QuantizedMatrix qa = QuantizeMatrix(a, kType);
  const QuantizedMatrix qb = QuantizeMatrix(b, kType);
  const Code* pa = reinterpret_cast<const Code*>(qa.data.data());
  const Code* pb = reinterpret_cast<const Code*>(qb.data.data());
  CheckFloat<Code>(c, {pa, pa + c.m * c.k}, {pb, pb + c.n * c.k});
}

TEST(QGemmDispatch, Fp16MatchesScalarReferenceExactly) {
  Rng rng(29);
  for (const QuantCase& c : RandomCases(&rng)) {
    FloatDispatchCase<uint16_t, QuantType::kFp16>(&rng, c);
  }
}

TEST(QGemmDispatch, Fp32MatchesScalarReferenceExactly) {
  Rng rng(31);
  for (const QuantCase& c : RandomCases(&rng)) {
    FloatDispatchCase<float, QuantType::kFp32>(&rng, c);
  }
}

/// A half code: 1 in 8 a signed zero, 1 in 8 a signed subnormal, the rest
/// normal values of magnitude 2^-5 .. 2^2 (never Inf or NaN).
uint16_t EdgeHalf(Rng* rng) {
  const auto sign = static_cast<uint16_t>(rng->UniformInt(0, 1) << 15);
  const int64_t kind = rng->UniformInt(0, 7);
  if (kind == 0) return sign;
  const auto mant = static_cast<uint16_t>(rng->UniformInt(1, 1023));
  if (kind == 1) return sign | mant;
  const auto exp = static_cast<uint16_t>(rng->UniformInt(10, 17) << 10);
  return sign | exp | mant;
}

/// A float: 1 in 8 a signed zero, 1 in 8 a signed subnormal, the rest
/// uniform in [-1, 1).
float EdgeFloat(Rng* rng) {
  const uint32_t sign = static_cast<uint32_t>(rng->UniformInt(0, 1)) << 31;
  const int64_t kind = rng->UniformInt(0, 7);
  if (kind >= 2) return static_cast<float>(rng->Uniform(-1.0, 1.0));
  const uint32_t bits =
      sign | (kind == 0 ? 0u
                        : static_cast<uint32_t>(
                              rng->UniformInt(1, (int64_t{1} << 23) - 1)));
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

TEST(QGemmDispatch, Fp16BlockingEdgesEveryTier) {
  Rng rng(41);
  for (const QuantCase& c : BlockingEdgeCases()) {
    std::vector<uint16_t> a(c.m * c.k), b(c.n * c.k);
    for (uint16_t& v : a) v = EdgeHalf(&rng);
    for (uint16_t& v : b) v = EdgeHalf(&rng);
    CheckFloat<uint16_t>(c, a, b);
  }
}

TEST(QGemmDispatch, Fp32BlockingEdgesEveryTier) {
  Rng rng(43);
  for (const QuantCase& c : BlockingEdgeCases()) {
    std::vector<float> a(c.m * c.k), b(c.n * c.k);
    for (float& v : a) v = EdgeFloat(&rng);
    for (float& v : b) v = EdgeFloat(&rng);
    CheckFloat<float>(c, a, b);
  }
}

TEST(QGemmDispatch, Int8BlockingEdgesEveryTier) {
  Rng rng(47);
  for (const QuantCase& c : BlockingEdgeCases()) {
    const size_t spr = c.block == 0 ? 1 : (c.k + c.block - 1) / c.block;
    std::vector<int8_t> a(c.m * c.k), b(c.n * c.k);
    std::vector<float> as(c.m * spr), bs(c.n * spr);
    for (int8_t& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
    for (int8_t& v : b) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
    for (float& v : as) v = static_cast<float>(rng.Uniform(0.0, 0.01));
    for (float& v : bs) v = static_cast<float>(rng.Uniform(0.0, 0.01));
    CheckInt8(c, a, as, b, bs);
  }
}

TEST(SoftmaxReduceDispatch, MatchesScalarReferenceExactly) {
  Rng rng(37);
  for (int t = 0; t < 40; ++t) {
    const size_t l = static_cast<size_t>(rng.UniformInt(1, 6));
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 67));
    const bool use_sp = rng.UniformInt(0, 1) == 1;
    const size_t ld = n + static_cast<size_t>(rng.UniformInt(0, 3));
    std::vector<double> sp(l * ld), pi(l);
    for (double& v : sp) v = rng.Uniform(-8.0, 8.0);
    for (double& v : pi) v = rng.Uniform(-4.0, 4.0);
    std::vector<double> want(n, -2);
    kernels::SoftmaxScoreReduceRef(l, n, use_sp, sp.data(), ld, pi.data(),
                                   want.data());
    for (const Tier& tier : HostTiers()) {
      std::vector<double> got(n, -1);
      tier.softmax(l, n, use_sp, sp.data(), ld, pi.data(), got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i])
            << tier.name << ": l=" << l << " n=" << n << " use_sp=" << use_sp
            << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace kgag
