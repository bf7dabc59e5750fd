// Zero-copy serving artifact (KGAGSRV2, DESIGN.md §14) — the one format
// every frozen model is saved in and served from.
//
// A chunk stream that has to be read and decoded into heap would cost
// minutes of startup and a duplicated resident copy at a million
// entities. KGAGSRV2 borrows the gguf/ggml idiom instead: a small
// self-describing header + blob index up front, then each tensor's raw
// little-endian bytes at a 64-byte-aligned offset. A server mmap()s the
// file, validates the header, and hands pointers INTO THE MAPPING
// straight to the scoring kernels:
//
//   * startup is O(header): no decode, no copy, time-to-first-query is
//     dominated by faulting in the few pages a query touches;
//   * the page cache backs every process mapping the same artifact, so
//     N servers on one box share one resident copy;
//   * the blob bytes are exactly the codes, scales and doubles of the
//     in-memory model that was saved, which is why the mapped model
//     scores bit-identically to it.
//
// On-disk layout (all integers little-endian):
//
//   header   := magic "KGAGSRV2" | u32 version
//             | u32 dim | u32 group_size | u8 use_sp | u8 use_pi
//             | u32 num_users | u32 num_items
//             | u8 quant_type | u32 quant_block
//             | u32 blob_count
//   index    := blob_count x ( u32 tag | u8 dtype | u64 rows | u64 cols
//                            | u64 offset | u64 nbytes | u32 crc32 )
//   trailer  := u32 header_crc   (CRC32 of header+index bytes)
//   padding  := zeros to the next 64-byte boundary
//   blobs    := raw bytes at their recorded offsets, each offset 64-byte
//               aligned, zero padding between blobs
//
// CRC policy: the header CRC is always verified at map time (a corrupt
// index must never size a pointer). Blob CRCs cover the raw payload and
// are verified either eagerly at load (verify_crc = true — reads every
// page once) or lazily on demand via VerifyBlobs() — the default, which
// preserves the instant-startup property.
#ifndef KGAG_SERVE_ARTIFACT_MMAP_H_
#define KGAG_SERVE_ARTIFACT_MMAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/file_io.h"
#include "common/result.h"
#include "common/status.h"
#include "tensor/quant.h"

namespace kgag {
namespace serve {

/// 8-byte magic of the mmap-layout serving artifact.
inline constexpr std::string_view kArtifactV2Magic = "KGAGSRV2";
inline constexpr uint32_t kArtifactV2Version = 1;
/// Every blob starts on this boundary (cache line; also satisfies every
/// SIMD alignment the kernels could want).
inline constexpr size_t kArtifactV2Align = 64;

// Blob tags (same four-char little-endian packing as chunk tags).
inline constexpr uint32_t kBlobUserRep = ckpt::MakeTag('U', 'R', 'E', 'P');
inline constexpr uint32_t kBlobItemRep = ckpt::MakeTag('I', 'R', 'E', 'P');
inline constexpr uint32_t kBlobUserScales = ckpt::MakeTag('U', 'S', 'C', 'L');
inline constexpr uint32_t kBlobItemScales = ckpt::MakeTag('I', 'S', 'C', 'L');
inline constexpr uint32_t kBlobAttnW1 = ckpt::MakeTag('A', 'T', 'W', '1');
inline constexpr uint32_t kBlobAttnW2 = ckpt::MakeTag('A', 'T', 'W', '2');
inline constexpr uint32_t kBlobAttnBias = ckpt::MakeTag('A', 'T', 'T', 'B');
inline constexpr uint32_t kBlobAttnVc = ckpt::MakeTag('A', 'T', 'V', 'C');

/// \brief The fixed model description in the v2 header.
struct ArtifactV2Meta {
  uint32_t dim = 0;
  uint32_t group_size = 0;
  bool use_sp = true;
  bool use_pi = true;
  uint32_t num_users = 0;
  uint32_t num_items = 0;
  /// QuantType of the rep tables (kFp64 = unquantized).
  uint8_t quant_type = 0;
  uint32_t quant_block = 0;
};

/// \brief One blob's index entry. `dtype` is the QuantType of the stored
/// elements (scale blobs use kFp32, attention blobs kFp64); `nbytes` is
/// always rows * cols * QuantElemBytes(dtype).
struct BlobEntry {
  uint32_t tag = 0;
  uint8_t dtype = 0;
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t offset = 0;
  uint64_t nbytes = 0;
  uint32_t crc = 0;
};

/// Shape/type declaration for a blob about to be written; offsets, sizes
/// and CRCs are derived by the writer.
struct BlobSpec {
  uint32_t tag = 0;
  uint8_t dtype = 0;  ///< QuantType of the stored elements
  uint64_t rows = 0;
  uint64_t cols = 0;
};

/// Artifact file size for a given blob set (header + aligned blobs) —
/// lets tools report/pre-check disk cost before writing.
uint64_t ArtifactV2FileBytes(const std::vector<BlobSpec>& blobs);

/// \brief Streams a KGAGSRV2 artifact to disk with O(1) buffering: the
/// whole layout is computed from the declared blob shapes at Open, a
/// zeroed header region is written, blob payloads are appended (in
/// declaration order, any chunk granularity) while per-blob CRCs roll,
/// and Finish back-patches the real header/index and atomically renames
/// the temp file into place. Neither a rep table nor the encoded file
/// ever has to exist in memory — this is what lets freeze_model encode a
/// million-user world row-chunk by row-chunk.
class ArtifactV2Writer {
 public:
  /// Declares the complete blob set (order = file order) and writes the
  /// placeholder header. Zero-sized blobs (rows or cols 0) are legal and
  /// take no payload.
  Status Open(const std::string& path, const ArtifactV2Meta& meta,
              const std::vector<BlobSpec>& blobs,
              const AtomicWriteOptions& options = {});

  /// Starts the next declared blob; `tag` must match the declaration
  /// order from Open.
  Status BeginBlob(uint32_t tag);
  /// Appends payload bytes to the open blob.
  Status Append(const void* data, size_t len);
  /// Closes the blob; the appended bytes must total its declared size.
  Status EndBlob();
  /// BeginBlob + Append + EndBlob for a fully materialized payload.
  Status AddBlob(uint32_t tag, const void* data, size_t len);

  /// Verifies every declared blob was written, back-patches the header
  /// (blob CRCs + header CRC), fsyncs, and renames into place.
  Status Finish();
  /// Drops the temp file; the destination is untouched.
  void Abandon() { file_.Abandon(); }

  /// Total artifact size (known from Open).
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  Status PadTo(uint64_t offset);

  AtomicFileWriter file_;
  ArtifactV2Meta meta_;
  std::vector<BlobEntry> entries_;
  uint64_t file_bytes_ = 0;
  size_t next_blob_ = 0;     ///< index into entries_ of the next BeginBlob
  bool in_blob_ = false;
  uint64_t blob_remaining_ = 0;
  uint32_t blob_crc_ = 0;
};

/// \brief Load-time knobs for MappedArtifact::Map.
struct MmapLoadOptions {
  /// Verify every blob CRC at map time (touches every page). Off by
  /// default: the header CRC is always checked, payloads can be checked
  /// later with VerifyBlobs().
  bool verify_crc = false;
};

/// \brief A validated, read-only mapping of a KGAGSRV2 file. The header
/// and index are parsed and bounds-checked at construction; blob payloads
/// are exposed as raw pointers into the mapping and stay valid for the
/// lifetime of this object (FrozenModel holds it via shared_ptr). On
/// platforms without mmap the file is read into an owned buffer — same
/// interface, no sharing.
class MappedArtifact {
 public:
  using Options = MmapLoadOptions;

  /// Maps and validates `path`. Rejects: short files, bad magic/version,
  /// header CRC mismatch, out-of-bounds or misaligned or overlapping blob
  /// offsets, and blob sizes inconsistent with their declared shapes
  /// (including shapes whose byte size overflows 64 bits). Every error
  /// names the file.
  static Result<std::shared_ptr<MappedArtifact>> Map(
      const std::string& path, const Options& options = {});

  ~MappedArtifact();
  MappedArtifact(const MappedArtifact&) = delete;
  MappedArtifact& operator=(const MappedArtifact&) = delete;

  const ArtifactV2Meta& meta() const { return meta_; }
  const std::vector<BlobEntry>& blobs() const { return blobs_; }

  /// Entry for `tag`, or null when the artifact has no such blob.
  const BlobEntry* Find(uint32_t tag) const;

  /// Payload pointer of an entry returned by Find()/blobs().
  const uint8_t* BlobData(const BlobEntry& e) const { return base_ + e.offset; }

  /// Recomputes every blob CRC against the mapped bytes (the lazy half of
  /// the CRC policy). Reads every page.
  Status VerifyBlobs() const;

  /// Total mapped bytes (the file size).
  uint64_t mapped_bytes() const { return size_; }
  /// Bytes of the mapping currently resident in memory (mincore scan);
  /// returns mapped_bytes() on platforms without mincore.
  uint64_t ResidentBytes() const;
  /// True when the artifact is a real mmap (false = owned-buffer
  /// fallback).
  bool is_mmap() const { return is_mmap_; }

  const std::string& path() const { return path_; }

 private:
  MappedArtifact() = default;

  std::string path_;
  const uint8_t* base_ = nullptr;
  uint64_t size_ = 0;
  bool is_mmap_ = false;
  std::vector<uint8_t> owned_;  ///< fallback storage when !is_mmap_
  ArtifactV2Meta meta_;
  std::vector<BlobEntry> blobs_;
};

/// RepView over a codes blob (+ optional scales blob) of a mapping. The
/// caller keeps the mapping alive.
RepView MakeRepView(const MappedArtifact& m, const BlobEntry& codes,
                    const BlobEntry* scales);

}  // namespace serve
}  // namespace kgag

#endif  // KGAG_SERVE_ARTIFACT_MMAP_H_
