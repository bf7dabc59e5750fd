// Quantized storage and kernel tests (DESIGN.md §11): half conversions,
// quantization error bounds, and — load-bearing
// for the serving bit-identity guarantee — property tests that the
// dispatched QGemm*/SoftmaxScoreReduce tiers match their scalar
// references EXACTLY on this machine's selected ISA tier.
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/kernels.h"
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

struct QuantCase {
  size_t m, n, k;
  uint32_t block;
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
    std::vector<double> got(c.m * c.n, -1), want(c.m * c.n, -2);
    kernels::QGemmInt8(c.m, c.n, c.k, c.block,
                       reinterpret_cast<const int8_t*>(qa.data.data()),
                       qa.scales.data(),
                       reinterpret_cast<const int8_t*>(qb.data.data()),
                       qb.scales.data(), got.data(), c.n);
    kernels::QGemmInt8Ref(c.m, c.n, c.k, c.block,
                          reinterpret_cast<const int8_t*>(qa.data.data()),
                          qa.scales.data(),
                          reinterpret_cast<const int8_t*>(qb.data.data()),
                          qb.scales.data(), want.data(), c.n);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "m=" << c.m << " n=" << c.n << " k=" << c.k
          << " block=" << c.block << " i=" << i
          << " (ISA level " << kernels::QuantIsaLevel() << ")";
    }
  }
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
  std::vector<double> got(c.m * c.n, -1), want(c.m * c.n, -2);
  const Code* pa = reinterpret_cast<const Code*>(qa.data.data());
  const Code* pb = reinterpret_cast<const Code*>(qb.data.data());
  if constexpr (kType == QuantType::kFp16) {
    kernels::QGemmFp16(c.m, c.n, c.k, pa, pb, got.data(), c.n);
    kernels::QGemmFp16Ref(c.m, c.n, c.k, pa, pb, want.data(), c.n);
  } else {
    kernels::QGemmFp32(c.m, c.n, c.k, pa, pb, got.data(), c.n);
    kernels::QGemmFp32Ref(c.m, c.n, c.k, pa, pb, want.data(), c.n);
  }
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << "m=" << c.m << " n=" << c.n << " k=" << c.k << " i=" << i
        << " (ISA level " << kernels::QuantIsaLevel() << ")";
  }
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
    std::vector<double> got(n, -1), want(n, -2);
    kernels::SoftmaxScoreReduce(l, n, use_sp, sp.data(), ld, pi.data(),
                                got.data());
    kernels::SoftmaxScoreReduceRef(l, n, use_sp, sp.data(), ld, pi.data(),
                                   want.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i])
          << "l=" << l << " n=" << n << " use_sp=" << use_sp << " i=" << i
          << " (ISA level " << kernels::QuantIsaLevel() << ")";
    }
  }
}

}  // namespace
}  // namespace kgag
