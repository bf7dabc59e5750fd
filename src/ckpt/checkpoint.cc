#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/obs.h"

namespace kgag {
namespace ckpt {

namespace {

constexpr char kMagic[8] = {'K', 'G', 'A', 'G', 'C', 'K', 'P', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + 2 * sizeof(uint32_t);
// A chunk payload larger than this is treated as corruption, not data:
// even the entity table of a very large run stays far below it.
constexpr uint64_t kMaxChunkLen = 1ull << 33;  // 8 GiB
constexpr uint32_t kMaxChunks = 1024;

constexpr char kSnapshotPrefix[] = "ckpt-";
constexpr char kSnapshotSuffix[] = ".kgag";

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadRaw(std::string_view data, size_t* pos, void* out, size_t len) {
  if (data.size() - *pos < len) return false;
  std::memcpy(out, data.data() + *pos, len);
  *pos += len;
  return true;
}

/// Sequence number encoded in a snapshot filename, or 0 if the name
/// doesn't match the ckpt-<seq>.kgag pattern.
uint64_t SnapshotSeq(const std::string& filename) {
  const size_t prefix_len = sizeof(kSnapshotPrefix) - 1;
  const size_t suffix_len = sizeof(kSnapshotSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len) return 0;
  if (filename.compare(0, prefix_len, kSnapshotPrefix) != 0) return 0;
  if (filename.compare(filename.size() - suffix_len, suffix_len,
                       kSnapshotSuffix) != 0) {
    return 0;
  }
  uint64_t seq = 0;
  for (size_t i = prefix_len; i < filename.size() - suffix_len; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

std::string SnapshotName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%012llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(seq), kSnapshotSuffix);
  return buf;
}

}  // namespace

Status EncodeContainer(const std::vector<Chunk>& chunks, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (chunks.size() > kMaxChunks) {
    return Status::InvalidArgument("too many chunks");
  }
  out->clear();
  out->append(kMagic, sizeof(kMagic));
  AppendU32(out, kFormatVersion);
  AppendU32(out, static_cast<uint32_t>(chunks.size()));
  AppendU32(out, Crc32(out->data(), kHeaderSize));
  for (const Chunk& c : chunks) {
    if (c.payload.size() > kMaxChunkLen) {
      return Status::InvalidArgument("chunk payload too large");
    }
    // The chunk CRC covers tag + length + payload, so a bit flip in ANY
    // chunk byte — including the tag of an optional chunk, which would
    // otherwise silently decode as an ignorable unknown type — fails
    // validation.
    const size_t chunk_start = out->size();
    AppendU32(out, c.tag);
    AppendU64(out, c.payload.size());
    out->append(c.payload);
    AppendU32(out,
              Crc32(out->data() + chunk_start, out->size() - chunk_start));
  }
  return Status::OK();
}

Status DecodeContainer(std::string_view data, std::vector<Chunk>* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  size_t pos = 0;
  char file_magic[sizeof(kMagic)];
  if (!ReadRaw(data, &pos, file_magic, sizeof(file_magic)) ||
      std::memcmp(file_magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic: not a KGAG checkpoint");
  }
  uint32_t version = 0, chunk_count = 0, header_crc = 0;
  if (!ReadRaw(data, &pos, &version, sizeof(version)) ||
      !ReadRaw(data, &pos, &chunk_count, sizeof(chunk_count)) ||
      !ReadRaw(data, &pos, &header_crc, sizeof(header_crc))) {
    return Status::IoError("truncated checkpoint header");
  }
  if (Crc32(data.data(), kHeaderSize) != header_crc) {
    return Status::InvalidArgument("checkpoint header checksum mismatch");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  if (chunk_count > kMaxChunks) {
    return Status::InvalidArgument("checkpoint chunk count out of range");
  }
  out->clear();
  out->reserve(chunk_count);
  for (uint32_t i = 0; i < chunk_count; ++i) {
    const size_t chunk_start = pos;
    uint32_t tag = 0;
    uint64_t len = 0;
    if (!ReadRaw(data, &pos, &tag, sizeof(tag)) ||
        !ReadRaw(data, &pos, &len, sizeof(len))) {
      return Status::IoError("truncated chunk header at index " +
                             std::to_string(i));
    }
    if (len > kMaxChunkLen || len > data.size() - pos) {
      return Status::InvalidArgument("chunk length out of range at index " +
                                     std::to_string(i));
    }
    Chunk chunk;
    chunk.tag = tag;
    chunk.payload.assign(data.data() + pos, len);
    pos += len;
    const uint32_t computed =
        Crc32(data.data() + chunk_start, pos - chunk_start);
    uint32_t crc = 0;
    if (!ReadRaw(data, &pos, &crc, sizeof(crc))) {
      return Status::IoError("truncated chunk checksum at index " +
                             std::to_string(i));
    }
    if (computed != crc) {
      return Status::InvalidArgument("chunk checksum mismatch at index " +
                                     std::to_string(i));
    }
    out->push_back(std::move(chunk));
  }
  if (pos != data.size()) {
    return Status::InvalidArgument("trailing bytes after last chunk");
  }
  return Status::OK();
}

Status EncodeTrainingState(const TrainingState& state, std::string* out) {
  std::vector<Chunk> chunks;
  {
    std::ostringstream meta(std::ios::binary);
    bio::WriteU64(&meta, state.epoch);
    bio::WriteU8(&meta, state.mid_epoch ? 1 : 0);
    bio::WriteU64(&meta, state.batches_done);
    bio::WriteDouble(&meta, state.partial_loss);
    chunks.push_back(Chunk{kTagMeta, meta.str()});
  }
  {
    std::ostringstream losses(std::ios::binary);
    bio::WritePodVector(&losses, state.epoch_losses);
    chunks.push_back(Chunk{kTagLosses, losses.str()});
  }
  chunks.push_back(Chunk{kTagParams, state.params});
  chunks.push_back(Chunk{kTagOptimizer, state.optimizer});
  chunks.push_back(Chunk{kTagRng, state.rng});
  chunks.push_back(Chunk{kTagBatcher, state.batcher});
  chunks.push_back(Chunk{kTagSelector, state.selector});
  return EncodeContainer(chunks, out);
}

Status DecodeTrainingState(std::string_view data, TrainingState* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  std::vector<Chunk> chunks;
  KGAG_RETURN_NOT_OK(DecodeContainer(data, &chunks));
  *out = TrainingState{};
  bool have_meta = false, have_params = false, have_optimizer = false,
       have_rng = false, have_batcher = false;
  for (Chunk& c : chunks) {
    switch (c.tag) {
      case kTagMeta: {
        std::istringstream meta(c.payload, std::ios::binary);
        uint8_t mid = 0;
        if (!bio::ReadU64(&meta, &out->epoch) || !bio::ReadU8(&meta, &mid) ||
            !bio::ReadU64(&meta, &out->batches_done) ||
            !bio::ReadDouble(&meta, &out->partial_loss)) {
          return Status::InvalidArgument("malformed META chunk");
        }
        out->mid_epoch = mid != 0;
        have_meta = true;
        break;
      }
      case kTagLosses: {
        std::istringstream losses(c.payload, std::ios::binary);
        if (!bio::ReadPodVector(&losses, &out->epoch_losses)) {
          return Status::InvalidArgument("malformed LOSS chunk");
        }
        break;
      }
      case kTagParams:
        out->params = std::move(c.payload);
        have_params = true;
        break;
      case kTagOptimizer:
        out->optimizer = std::move(c.payload);
        have_optimizer = true;
        break;
      case kTagRng:
        out->rng = std::move(c.payload);
        have_rng = true;
        break;
      case kTagBatcher:
        out->batcher = std::move(c.payload);
        have_batcher = true;
        break;
      case kTagSelector:
        out->selector = std::move(c.payload);
        break;
      default:
        // Unknown (future) chunk types are skipped after their CRC passed,
        // so older readers tolerate additive format evolution.
        break;
    }
  }
  if (!have_meta || !have_params || !have_optimizer || !have_rng ||
      !have_batcher) {
    return Status::InvalidArgument("checkpoint missing required chunks");
  }
  return Status::OK();
}

CheckpointManager::CheckpointManager(Options options)
    : options_(std::move(options)) {
  KGAG_CHECK(!options_.dir.empty()) << "checkpoint dir must be set";
  if (options_.keep_last < 1) options_.keep_last = 1;
}

Status CheckpointManager::EnsureDir() {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + options_.dir +
                           ": " + ec.message());
  }
  return Status::OK();
}

std::vector<std::string> CheckpointManager::ListSnapshots() const {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.dir, ec);
  if (ec) return {};
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const uint64_t seq = SnapshotSeq(name);
    if (seq > 0) found.emplace_back(seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [seq, path] : found) paths.push_back(std::move(path));
  return paths;
}

Status CheckpointManager::Save(const TrainingState& state) {
  KGAG_OBS_ONLY(Stopwatch watch;)
  KGAG_RETURN_NOT_OK(EnsureDir());
  if (next_seq_ == 0) {
    uint64_t max_seq = 0;
    for (const std::string& path : ListSnapshots()) {
      max_seq = std::max(
          max_seq,
          SnapshotSeq(std::filesystem::path(path).filename().string()));
    }
    next_seq_ = max_seq + 1;
  }
  std::string encoded;
  KGAG_RETURN_NOT_OK(EncodeTrainingState(state, &encoded));
  const std::string path =
      options_.dir + "/" + SnapshotName(next_seq_);
  AtomicWriteOptions write_opts;
  write_opts.max_attempts = options_.max_retries;
  write_opts.retry_backoff_ms = options_.retry_backoff_ms;
  write_opts.fsync_data = options_.fsync;
  const Status st = AtomicWriteFile(path, encoded, write_opts);
  if (!st.ok()) {
    KGAG_COUNTER_ADD("ckpt.save_failures", 1);
    return st;
  }
  ++next_seq_;
  KGAG_COUNTER_ADD("ckpt.saves", 1);
  KGAG_COUNTER_ADD("ckpt.bytes_written", encoded.size());
  KGAG_OBS_ONLY(
      KGAG_HDR_OBSERVE("ckpt.save_latency_us", watch.ElapsedMicros());)
  Prune(ListSnapshots());
  return Status::OK();
}

void CheckpointManager::Prune(std::vector<std::string> snapshots) {
  const size_t keep = static_cast<size_t>(options_.keep_last);
  if (snapshots.size() <= keep) return;
  for (size_t i = 0; i + keep < snapshots.size(); ++i) {
    std::error_code ec;
    if (std::filesystem::remove(snapshots[i], ec) && !ec) {
      KGAG_COUNTER_ADD("ckpt.pruned", 1);
    }
  }
}

Result<TrainingState> CheckpointManager::LoadLatest() {
  KGAG_OBS_ONLY(Stopwatch watch;)
  std::vector<std::string> snapshots = ListSnapshots();
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    std::string bytes;
    Status read = ReadFileToString(*it, &bytes);
    if (read.ok()) {
      TrainingState state;
      const Status decoded = DecodeTrainingState(bytes, &state);
      if (decoded.ok()) {
        KGAG_COUNTER_ADD("ckpt.loads", 1);
        KGAG_OBS_ONLY(
            KGAG_HDR_OBSERVE("ckpt.load_latency_us", watch.ElapsedMicros());)
        return state;
      }
      read = decoded;
    }
    // Fall back to the next-newest snapshot: a torn write can only affect
    // the newest file (older ones were complete before it started).
    KGAG_COUNTER_ADD("ckpt.corrupt_skipped", 1);
    KGAG_LOG(Warning) << "skipping corrupt checkpoint " << *it << ": "
                      << read.ToString();
  }
  return Status::NotFound("no loadable checkpoint in " + options_.dir);
}

}  // namespace ckpt
}  // namespace kgag
