#include "tensor/quant.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace kgag {

namespace {

size_t ScalesPerRowFor(QuantType type, size_t cols, uint32_t block) {
  if (type != QuantType::kInt8) return 0;
  if (block == 0) return cols == 0 ? 0 : 1;
  return (cols + block - 1) / block;
}

}  // namespace

const char* QuantTypeName(QuantType type) {
  switch (type) {
    case QuantType::kFp64:
      return "fp64";
    case QuantType::kFp32:
      return "fp32";
    case QuantType::kFp16:
      return "fp16";
    case QuantType::kInt8:
      return "int8";
  }
  return "unknown";
}

bool ParseQuantType(std::string_view name, QuantType* out) {
  if (name == "fp64") {
    *out = QuantType::kFp64;
  } else if (name == "fp32") {
    *out = QuantType::kFp32;
  } else if (name == "fp16") {
    *out = QuantType::kFp16;
  } else if (name == "int8") {
    *out = QuantType::kInt8;
  } else {
    return false;
  }
  return true;
}

size_t QuantElemBytes(QuantType type) {
  switch (type) {
    case QuantType::kFp64:
      return sizeof(double);
    case QuantType::kFp32:
      return sizeof(float);
    case QuantType::kFp16:
      return sizeof(uint16_t);
    case QuantType::kInt8:
      return sizeof(int8_t);
  }
  return 0;
}

size_t QuantScalesPerRow(QuantType type, size_t cols, uint32_t block) {
  return ScalesPerRowFor(type, cols, block);
}

size_t QuantizedMatrix::ScalesPerRow() const {
  return ScalesPerRowFor(type, cols, block);
}

RepView MakeRepView(const Tensor& t) {
  RepView v;
  v.type = QuantType::kFp64;
  v.rows = t.rows();
  v.cols = t.cols();
  v.codes = reinterpret_cast<const uint8_t*>(t.data());
  return v;
}

RepView MakeRepView(const QuantizedMatrix& q) {
  RepView v;
  v.type = q.type;
  v.rows = q.rows;
  v.cols = q.cols;
  v.block = q.block;
  v.codes = q.data.data();
  v.scales = q.scales.data();
  return v;
}

uint16_t FloatToHalf(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  const int32_t exp = static_cast<int32_t>((x >> 23) & 0xffu) - 127;
  const uint32_t mant = x & 0x7fffffu;

  if (exp == 128) {  // inf / nan
    // Keep NaNs NaN: the mantissa MSB survives even when the low payload
    // bits shift out.
    const uint16_t payload =
        mant != 0 ? static_cast<uint16_t>(0x200u | (mant >> 13)) : 0;
    return static_cast<uint16_t>(sign | 0x7c00u | payload);
  }
  if (exp > 15) {  // too large for half: round to inf
    return static_cast<uint16_t>(sign | 0x7c00u);
  }
  if (exp >= -14) {  // normal half
    uint32_t val = (static_cast<uint32_t>(exp + 15) << 10) | (mant >> 13);
    const uint32_t rest = mant & 0x1fffu;
    // Round to nearest even; a carry may roll into the exponent (and on
    // to inf), which is exactly the IEEE behaviour.
    if (rest > 0x1000u || (rest == 0x1000u && (val & 1u))) val += 1;
    return static_cast<uint16_t>(sign | val);
  }
  if (exp >= -25) {  // subnormal half
    const uint32_t m_full = mant | 0x800000u;
    const uint32_t shift = static_cast<uint32_t>(-(exp + 1));  // 14..24
    uint32_t code = m_full >> shift;
    const uint32_t rem = m_full & ((1u << shift) - 1);
    const uint32_t half_ulp = 1u << (shift - 1);
    if (rem > half_ulp || (rem == half_ulp && (code & 1u))) code += 1;
    return static_cast<uint16_t>(sign | code);
  }
  return sign;  // underflow to signed zero
}

float HalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h >> 15) << 31;
  const uint32_t exp = (h >> 10) & 0x1fu;
  const uint32_t mant = h & 0x3ffu;
  uint32_t x;
  if (exp == 0) {
    if (mant == 0) {
      x = sign;
    } else {  // subnormal: renormalize
      uint32_t m = mant;
      int e = -1;
      do {
        m <<= 1;
        ++e;
      } while ((m & 0x400u) == 0);
      x = sign | (static_cast<uint32_t>(127 - 15 - e) << 23) |
          ((m & 0x3ffu) << 13);
    }
  } else if (exp == 31) {  // inf / nan
    x = sign | 0x7f800000u | (mant << 13);
  } else {
    x = sign | ((exp + 112) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

void QuantizeRows(QuantType type, uint32_t block, size_t rows, size_t cols,
                  const double* src_rows, uint8_t* codes, float* scales) {
  KGAG_CHECK(type != QuantType::kFp64)
      << "kFp64 is the identity tier; keep the Tensor";
  const size_t row_bytes = cols * QuantElemBytes(type);
  const size_t spr = ScalesPerRowFor(type, cols, block);
  for (size_t r = 0; r < rows; ++r) {
    const double* src = src_rows + r * cols;
    uint8_t* dst = codes + r * row_bytes;
    if (type == QuantType::kFp32) {
      float* out = reinterpret_cast<float*>(dst);
      for (size_t c = 0; c < cols; ++c) out[c] = static_cast<float>(src[c]);
    } else if (type == QuantType::kFp16) {
      uint16_t* out = reinterpret_cast<uint16_t*>(dst);
      for (size_t c = 0; c < cols; ++c) {
        out[c] = FloatToHalf(static_cast<float>(src[c]));
      }
    } else {  // kInt8
      int8_t* out = reinterpret_cast<int8_t*>(dst);
      float* row_scales = scales + r * spr;
      const size_t bs = block == 0 ? cols : block;
      for (size_t b = 0, c0 = 0; c0 < cols; ++b, c0 += bs) {
        const size_t c1 = std::min(cols, c0 + bs);
        double amax = 0.0;
        for (size_t c = c0; c < c1; ++c) amax = std::max(amax, std::fabs(src[c]));
        const double scale = amax / 127.0;
        const double inv = amax == 0.0 ? 0.0 : 127.0 / amax;
        row_scales[b] = static_cast<float>(scale);
        for (size_t c = c0; c < c1; ++c) {
          const long v = std::lround(src[c] * inv);
          out[c] = static_cast<int8_t>(std::min(127l, std::max(-127l, v)));
        }
      }
    }
  }
}

QuantizedMatrix QuantizeMatrix(const Tensor& t, QuantType type,
                               uint32_t block) {
  QuantizedMatrix q;
  q.type = type;
  q.rows = t.rows();
  q.cols = t.cols();
  q.block = type == QuantType::kInt8 ? block : 0;
  q.data.resize(q.rows * q.RowBytes());
  q.scales.resize(q.rows * q.ScalesPerRow());
  QuantizeRows(type, q.block, q.rows, q.cols, t.data(), q.data.data(),
               q.scales.data());
  return q;
}

namespace {

void DequantizeRowImpl(QuantType type, size_t cols, uint32_t block,
                       const uint8_t* src, const float* scales, double* out) {
  switch (type) {
    case QuantType::kFp64:
      std::memcpy(out, src, cols * sizeof(double));
      break;
    case QuantType::kFp32: {
      const float* in = reinterpret_cast<const float*>(src);
      for (size_t c = 0; c < cols; ++c) out[c] = static_cast<double>(in[c]);
      break;
    }
    case QuantType::kFp16: {
      const uint16_t* in = reinterpret_cast<const uint16_t*>(src);
      for (size_t c = 0; c < cols; ++c) {
        out[c] = static_cast<double>(HalfToFloat(in[c]));
      }
      break;
    }
    case QuantType::kInt8: {
      const int8_t* in = reinterpret_cast<const int8_t*>(src);
      const size_t bs = block == 0 ? cols : block;
      for (size_t b = 0, c0 = 0; c0 < cols; ++b, c0 += bs) {
        const size_t c1 = std::min(cols, c0 + bs);
        const double s = static_cast<double>(scales[b]);
        for (size_t c = c0; c < c1; ++c) {
          out[c] = static_cast<double>(in[c]) * s;
        }
      }
      break;
    }
  }
}

}  // namespace

void DequantizeRow(const QuantizedMatrix& q, size_t r, double* out) {
  KGAG_DCHECK(r < q.rows);
  DequantizeRowImpl(q.type, q.cols, q.block, q.RowData(r),
                    q.type == QuantType::kInt8 ? q.RowScales(r) : nullptr,
                    out);
}

void DequantizeRow(const RepView& v, size_t r, double* out) {
  KGAG_DCHECK(r < v.rows);
  DequantizeRowImpl(v.type, v.cols, v.block, v.RowData(r),
                    v.type == QuantType::kInt8 ? v.RowScales(r) : nullptr,
                    out);
}

Tensor DequantizeMatrix(const QuantizedMatrix& q) {
  Tensor t(q.rows, q.cols);
  for (size_t r = 0; r < q.rows; ++r) {
    DequantizeRow(q, r, t.data() + r * q.cols);
  }
  return t;
}

}  // namespace kgag
