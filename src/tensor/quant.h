// Quantized matrix storage for the serving path (DESIGN.md §11).
//
// At million-entity scale the frozen per-entity rep tables dominate both
// resident memory and the memory bandwidth that bounds TopK latency, so
// bytes-per-entity is the scaling lever. A QuantizedMatrix stores a dense
// row-major matrix at a reduced precision:
//
//   kFp32  4 B/elem  values narrowed to IEEE float (convert-on-load)
//   kFp16  2 B/elem  values narrowed to IEEE half  (convert-on-load)
//   kInt8  1 B/elem  symmetric scale quantization: per row (or per block
//                    of `block` columns) q = round(x * 127 / absmax),
//                    scale = absmax / 127 stored as float; the dequantized
//                    value is q * scale
//
// kFp64 is the identity tier: the library Scalar (double) kept in a plain
// Tensor, never a QuantizedMatrix. Quantization happens once at freeze
// time (QuantizeMatrix) with a single scalar implementation, so encoded
// codes are platform-independent; the scoring kernels that consume a
// QuantizedMatrix live in tensor/kernels.h and are bit-exact across ISA
// dispatch tiers (see kernels_quant.cc).
#ifndef KGAG_TENSOR_QUANT_H_
#define KGAG_TENSOR_QUANT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "tensor/tensor.h"

namespace kgag {

/// Storage precision of a rep table. Values are the on-disk quant_type
/// and blob dtype tags of KGAGSRV2 — never renumber.
enum class QuantType : uint8_t {
  kFp64 = 0,  ///< unquantized library Scalar
  kFp32 = 1,
  kFp16 = 2,
  kInt8 = 3,
};

/// "fp64" / "fp32" / "fp16" / "int8".
const char* QuantTypeName(QuantType type);

/// Parses a QuantTypeName spelling. Returns false on anything else.
bool ParseQuantType(std::string_view name, QuantType* out);

/// Bytes one element occupies at the given precision.
size_t QuantElemBytes(QuantType type);

/// \brief Dense row-major matrix at reduced precision. `data` holds the
/// packed codes (floats, halfs or int8s, little-endian); `scales` is only
/// populated for kInt8.
struct QuantizedMatrix {
  QuantType type = QuantType::kFp64;
  size_t rows = 0;
  size_t cols = 0;
  /// Columns sharing one int8 scale; 0 = the whole row. Ignored for
  /// fp32/fp16 (no scales).
  uint32_t block = 0;

  std::vector<uint8_t> data;   ///< rows * RowBytes() packed codes
  std::vector<float> scales;   ///< rows * ScalesPerRow() (kInt8 only)

  bool empty() const { return rows == 0 || cols == 0; }
  size_t RowBytes() const { return cols * QuantElemBytes(type); }
  /// Scales per row: ceil(cols/block) for kInt8 (1 when block == 0),
  /// otherwise 0.
  size_t ScalesPerRow() const;
  const uint8_t* RowData(size_t r) const { return data.data() + r * RowBytes(); }
  const float* RowScales(size_t r) const {
    return scales.data() + r * ScalesPerRow();
  }
  /// Payload bytes held in memory (codes + scales), the bytes-per-entity
  /// numerator reported by freeze_model.
  size_t PayloadBytes() const {
    return data.size() + scales.size() * sizeof(float);
  }

  bool operator==(const QuantizedMatrix&) const = default;
};

/// Scales one row of `cols` values carries at the given precision and
/// block geometry: ceil(cols/block) for kInt8 (1 when block == 0), 0 for
/// every float tier.
size_t QuantScalesPerRow(QuantType type, size_t cols, uint32_t block);

/// \brief Non-owning view of a dense row-major rep table at any storage
/// precision, INCLUDING the fp64 identity tier (codes are then the raw
/// little-endian doubles). This is the one shape the frozen scoring path
/// consumes, so the same kernels run whether the bytes live in an owned
/// Tensor/QuantizedMatrix or in an mmap'd KGAGSRV2 artifact — which is
/// what makes the mmap path bit-identical to the heap path by
/// construction.
struct RepView {
  QuantType type = QuantType::kFp64;
  size_t rows = 0;
  size_t cols = 0;
  uint32_t block = 0;           ///< int8 scale-block columns (0 = per-row)
  const uint8_t* codes = nullptr;  ///< rows * RowBytes() packed codes
  const float* scales = nullptr;   ///< rows * ScalesPerRow() (kInt8 only)

  bool empty() const { return rows == 0 || cols == 0 || codes == nullptr; }
  size_t ElemBytes() const { return QuantElemBytes(type); }
  size_t RowBytes() const { return cols * ElemBytes(); }
  size_t ScalesPerRow() const { return QuantScalesPerRow(type, cols, block); }
  const uint8_t* RowData(size_t r) const { return codes + r * RowBytes(); }
  const float* RowScales(size_t r) const {
    return scales + r * ScalesPerRow();
  }
  /// Codes + scales bytes the table occupies (resident cost).
  size_t PayloadBytes() const {
    return rows * (RowBytes() + ScalesPerRow() * sizeof(float));
  }
  /// The raw doubles of an fp64 view. Only valid when type == kFp64.
  const double* F64Data() const {
    return reinterpret_cast<const double*>(codes);
  }
};

/// fp64 view over a Tensor's storage (borrowed; the tensor must outlive
/// the view).
RepView MakeRepView(const Tensor& t);

/// View over a QuantizedMatrix's buffers (borrowed).
RepView MakeRepView(const QuantizedMatrix& q);

/// Quantizes a Tensor. `type` must not be kFp64 (a no-op "quantization"
/// stays a Tensor); `block` only affects kInt8.
QuantizedMatrix QuantizeMatrix(const Tensor& t, QuantType type,
                               uint32_t block = 0);

/// Quantizes `rows` rows of row-major fp64 data (`cols` wide) into
/// `codes` (rows * cols * QuantElemBytes(type) bytes) and, for kInt8,
/// `scales` (rows * QuantScalesPerRow(...) floats; may be null
/// otherwise). This is the exact per-row transform QuantizeMatrix
/// applies, exposed row-local so streamed/chunked encoders produce
/// bit-identical codes no matter how the table is split into chunks.
void QuantizeRows(QuantType type, uint32_t block, size_t rows, size_t cols,
                  const double* src, uint8_t* codes, float* scales);

/// Expands back to doubles (the values the scoring kernels see).
Tensor DequantizeMatrix(const QuantizedMatrix& q);

/// Dequantizes row `r` into out[0..cols).
void DequantizeRow(const QuantizedMatrix& q, size_t r, double* out);

/// Dequantizes row `r` of a view into out[0..cols). Handles every tier
/// including kFp64 (straight copy), so callers need no precision branch.
void DequantizeRow(const RepView& v, size_t r, double* out);

/// IEEE binary32 -> binary16, round-to-nearest-even (overflow to inf,
/// NaN payload preserved through the mantissa MSB). Bit-exact with the
/// hardware F16C conversion the AVX kernels use.
uint16_t FloatToHalf(float f);
/// IEEE binary16 -> binary32 (exact widening).
float HalfToFloat(uint16_t h);

}  // namespace kgag

#endif  // KGAG_TENSOR_QUANT_H_
