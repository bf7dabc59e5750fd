// Streaming freeze of a synthetic big world (DESIGN.md §14).
//
// At 1M+ users a rep table is hundreds of megabytes, so "generate the
// world, then freeze it" must never hold either the world or the encoded
// artifact in memory. FreezeBigWorldV2 pumps BigWorldGen's
// chunk-invariant row API straight into ArtifactV2Writer a fixed-size row
// chunk at a time: generation, quantization (QuantizeRows is row-local, so chunked
// codes are bit-identical to whole-matrix quantization) and encoding all
// run in O(chunk_rows * dim) memory regardless of world size.
//
// The output is a KGAGSRV2 artifact, the one serving format, so a
// streamed world loads through LoadFrozenModelMmap like any frozen model.
#ifndef KGAG_SERVE_BIGWORLD_FREEZE_H_
#define KGAG_SERVE_BIGWORLD_FREEZE_H_

#include <string>

#include "common/status.h"
#include "data/synthetic/bigworld.h"
#include "tensor/quant.h"

namespace kgag {
namespace serve {

/// \brief Precision + chunking knobs for a big-world freeze.
struct BigWorldFreezeOptions {
  /// Rep-table storage tier. fp16 is the big-world default: 2 B/elem
  /// keeps a 1M-user artifact around 140 MB with near-fp64 ranking.
  QuantType quant = QuantType::kFp16;
  uint32_t quant_block = 0;  ///< int8 scale-block columns (0 = per-row)
  /// Rows generated/quantized/written per chunk — the memory ceiling.
  uint64_t chunk_rows = 8192;
};

/// Streams the world into a KGAGSRV2 mmap-layout artifact at `path`
/// (atomic write). O(chunk) memory plus the int8 scale accumulator
/// (4 bytes per row-block — ~4 MB at 1M users).
Status FreezeBigWorldV2(const synthetic::BigWorldGen& gen,
                        const BigWorldFreezeOptions& options,
                        const std::string& path);

}  // namespace serve
}  // namespace kgag

#endif  // KGAG_SERVE_BIGWORLD_FREEZE_H_
