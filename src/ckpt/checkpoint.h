// Crash-safe training checkpoints (DESIGN.md §8).
//
// A checkpoint file is a versioned chunked container:
//
//   header  := magic "KGAGCKP1" | u32 version | u32 chunk_count | u32 crc
//              (crc covers magic..chunk_count)
//   chunk   := u32 tag | u64 payload_len | payload
//              | u32 crc(tag..payload)
//
// Every length is bounded before it sizes an allocation and every payload
// is CRC32-validated before it is parsed, so corrupt, truncated or
// bit-flipped files are rejected with a Status instead of being trusted.
//
// TrainingState is the full optimization trajectory of a training run:
// parameter tensors, optimizer moments/step counts, RNG engine states,
// batcher shuffles/cursors, validation-selector snapshot and the epoch
// bookkeeping. Restoring it and continuing produces a run bit-identical
// to one that was never interrupted.
//
// CheckpointManager handles the directory: atomic writes (temp + fsync +
// rename with bounded retry), keep-last-N retention, and load-time
// fallback to the newest *intact* snapshot when the newest file is
// corrupt. Saves and loads publish ckpt.* counters and the HDR latency
// histograms ckpt.save_latency_us / ckpt.load_latency_us through src/obs/.
#ifndef KGAG_CKPT_CHECKPOINT_H_
#define KGAG_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace kgag {
namespace ckpt {

inline constexpr uint32_t kFormatVersion = 1;

/// Four-character chunk tag packed little-endian ('M','E','T','A' reads
/// back as "META" in a hex dump).
constexpr uint32_t MakeTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

inline constexpr uint32_t kTagMeta = MakeTag('M', 'E', 'T', 'A');
inline constexpr uint32_t kTagParams = MakeTag('P', 'A', 'R', 'M');
inline constexpr uint32_t kTagOptimizer = MakeTag('O', 'P', 'T', 'M');
inline constexpr uint32_t kTagRng = MakeTag('R', 'N', 'G', 'S');
inline constexpr uint32_t kTagBatcher = MakeTag('B', 'T', 'C', 'H');
inline constexpr uint32_t kTagSelector = MakeTag('V', 'S', 'E', 'L');
inline constexpr uint32_t kTagLosses = MakeTag('L', 'O', 'S', 'S');

/// \brief One tagged, CRC-protected payload inside a checkpoint file.
struct Chunk {
  uint32_t tag = 0;
  std::string payload;
};

/// Serializes chunks into the container format (header + CRCs).
Status EncodeContainer(const std::vector<Chunk>& chunks, std::string* out);

/// Parses and validates a container; any corruption (bad magic, version,
/// header CRC, truncated chunk, payload CRC mismatch) returns a non-OK
/// Status and leaves `out` unspecified.
Status DecodeContainer(std::string_view data, std::vector<Chunk>* out);

/// \brief Full training state of one run, as opaque sub-blobs produced by
/// the owning components (SaveParameters, Optimizer/Batcher/Rng/selector
/// SaveState). The checkpoint layer versions, checksums and stores them;
/// the components validate their own contents on restore.
struct TrainingState {
  /// Epoch to (re-)enter on resume. With `mid_epoch` false the state was
  /// captured at an epoch boundary; with it true, `epoch` is in progress
  /// and `batches_done`/`partial_loss` describe how far it got.
  uint64_t epoch = 0;
  bool mid_epoch = false;
  uint64_t batches_done = 0;
  double partial_loss = 0.0;
  std::vector<double> epoch_losses;

  std::string params;     ///< SaveParameters blob
  std::string optimizer;  ///< Optimizer::SaveState blob
  /// Rng engine states (init + train), then a tagged record with the
  /// counter-based stream seed (absent in pre-stream checkpoints; see
  /// KgagModel::CaptureTrainingState).
  std::string rng;
  std::string batcher;    ///< Batcher::SaveState blob
  std::string selector;   ///< ValidationSelector::SaveState blob (optional)
};

Status EncodeTrainingState(const TrainingState& state, std::string* out);
Status DecodeTrainingState(std::string_view data, TrainingState* out);

/// \brief Owns a checkpoint directory: durable saves, retention, and
/// newest-intact-first loads.
class CheckpointManager {
 public:
  struct Options {
    std::string dir;
    /// Snapshots retained after each save; older ones are pruned.
    int keep_last = 3;
    /// Attempts per atomic write before Save reports failure.
    int max_retries = 3;
    /// Base backoff between attempts (sleep attempt*backoff).
    int retry_backoff_ms = 5;
    /// fsync file + directory on save (disable only in tests).
    bool fsync = true;
  };

  explicit CheckpointManager(Options options);

  /// Encodes and durably writes one snapshot, then applies retention.
  /// Creates the directory on first use.
  Status Save(const TrainingState& state);

  /// Newest intact snapshot, skipping (and counting) corrupt files.
  /// NotFound when the directory holds no loadable snapshot.
  Result<TrainingState> LoadLatest();

  /// Snapshot file paths, oldest first.
  std::vector<std::string> ListSnapshots() const;

  const Options& options() const { return options_; }

 private:
  Status EnsureDir();
  void Prune(std::vector<std::string> snapshots);

  Options options_;
  uint64_t next_seq_ = 0;  ///< 0 = derive from the directory on first save
};

}  // namespace ckpt
}  // namespace kgag

#endif  // KGAG_CKPT_CHECKPOINT_H_
