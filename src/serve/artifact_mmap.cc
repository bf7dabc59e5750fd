#include "serve/artifact_mmap.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "common/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define KGAG_HAVE_MMAP 1
#else
#define KGAG_HAVE_MMAP 0
#endif

namespace kgag {
namespace serve {

namespace {

// Fixed header bytes before the blob index: magic(8) + version(4) +
// meta(4+4+1+1+4+4+1+4 = 23) + blob_count(4).
constexpr size_t kFixedHeaderBytes = 8 + 4 + 23 + 4;
// One index entry: tag(4) + dtype(1) + rows(8) + cols(8) + offset(8) +
// nbytes(8) + crc(4).
constexpr size_t kEntryBytes = 41;
// Far above any real artifact's blob count, far below anything that could
// size a hostile allocation.
constexpr uint32_t kMaxBlobs = 4096;

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

size_t HeaderBytes(size_t blob_count) {
  return kFixedHeaderBytes + blob_count * kEntryBytes + sizeof(uint32_t);
}

Status FormatError(const std::string& what) {
  return Status::InvalidArgument("KGAGSRV2 artifact: " + what);
}

bool ValidDtype(uint8_t dtype) {
  return dtype <= static_cast<uint8_t>(QuantType::kInt8);
}

/// rows * cols * element size of `dtype` into `*nbytes`; false when the
/// product does not fit in 64 bits (a hostile index can declare any
/// shape, and a wrapped product must never pass as a small blob).
bool ShapeBytes(uint8_t dtype, uint64_t rows, uint64_t cols,
                uint64_t* nbytes) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const uint64_t elem = QuantElemBytes(static_cast<QuantType>(dtype));
  if (cols != 0 && rows > kMax / cols) return false;
  if (rows * cols > kMax / elem) return false;
  *nbytes = rows * cols * elem;
  return true;
}

/// An empty or truncated-before-the-header file: say exactly that, and
/// which file, so a watcher that hits a just-created empty file gets a
/// clear diagnosis instead of a bare parse failure.
Status TooShort(const std::string& path, uint64_t size) {
  return Status::InvalidArgument(
      "artifact " + path + " is too short to be a KGAGSRV2 artifact (" +
      std::to_string(size) + " of " + std::to_string(HeaderBytes(0)) +
      " fixed header bytes)");
}

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadRaw(const uint8_t* data, size_t size, size_t* pos, void* out,
             size_t len) {
  if (size - *pos < len) return false;
  std::memcpy(out, data + *pos, len);
  *pos += len;
  return true;
}

/// Serializes header + index with the given CRCs, appends the trailing
/// header CRC, and zero-pads to the 64-byte data start. This is the one
/// byte-layout definition: the writer emits it and the loader's parser is
/// tested against it.
std::string BuildHeader(const ArtifactV2Meta& meta,
                        const std::vector<BlobEntry>& entries) {
  std::string h;
  h.reserve(AlignUp(HeaderBytes(entries.size()), kArtifactV2Align));
  h.append(kArtifactV2Magic.data(), kArtifactV2Magic.size());
  AppendPod(&h, kArtifactV2Version);
  AppendPod(&h, meta.dim);
  AppendPod(&h, meta.group_size);
  AppendPod(&h, static_cast<uint8_t>(meta.use_sp ? 1 : 0));
  AppendPod(&h, static_cast<uint8_t>(meta.use_pi ? 1 : 0));
  AppendPod(&h, meta.num_users);
  AppendPod(&h, meta.num_items);
  AppendPod(&h, meta.quant_type);
  AppendPod(&h, meta.quant_block);
  AppendPod(&h, static_cast<uint32_t>(entries.size()));
  for (const BlobEntry& e : entries) {
    AppendPod(&h, e.tag);
    AppendPod(&h, e.dtype);
    AppendPod(&h, e.rows);
    AppendPod(&h, e.cols);
    AppendPod(&h, e.offset);
    AppendPod(&h, e.nbytes);
    AppendPod(&h, e.crc);
  }
  AppendPod(&h, Crc32(h.data(), h.size()));
  h.resize(AlignUp(h.size(), kArtifactV2Align), '\0');
  return h;
}

/// Lays blobs out after the header: every offset 64-byte aligned, file
/// order = declaration order. Returns the total file size.
Status PlanLayout(const std::vector<BlobSpec>& blobs,
                  std::vector<BlobEntry>* entries, uint64_t* file_bytes) {
  if (blobs.size() > kMaxBlobs) return FormatError("too many blobs");
  entries->clear();
  entries->reserve(blobs.size());
  uint64_t off = AlignUp(HeaderBytes(blobs.size()), kArtifactV2Align);
  for (const BlobSpec& s : blobs) {
    if (!ValidDtype(s.dtype)) return FormatError("unknown blob dtype");
    BlobEntry e;
    e.tag = s.tag;
    e.dtype = s.dtype;
    e.rows = s.rows;
    e.cols = s.cols;
    if (!ShapeBytes(s.dtype, s.rows, s.cols, &e.nbytes)) {
      return FormatError("blob shape overflows 64 bits");
    }
    e.offset = off;
    off = AlignUp(off + e.nbytes, kArtifactV2Align);
    entries->push_back(e);
  }
  // The file ends exactly where the last blob does — no trailing pad.
  *file_bytes = entries->empty()
                    ? AlignUp(HeaderBytes(0), kArtifactV2Align)
                    : entries->back().offset + entries->back().nbytes;
  return Status::OK();
}

}  // namespace

uint64_t ArtifactV2FileBytes(const std::vector<BlobSpec>& blobs) {
  std::vector<BlobEntry> entries;
  uint64_t bytes = 0;
  if (!PlanLayout(blobs, &entries, &bytes).ok()) return 0;
  return bytes;
}

Status ArtifactV2Writer::Open(const std::string& path,
                              const ArtifactV2Meta& meta,
                              const std::vector<BlobSpec>& blobs,
                              const AtomicWriteOptions& options) {
  meta_ = meta;
  KGAG_RETURN_NOT_OK(PlanLayout(blobs, &entries_, &file_bytes_));
  next_blob_ = 0;
  in_blob_ = false;
  KGAG_RETURN_NOT_OK(file_.Open(path, options));
  // Placeholder header region: all zeros. Finish back-patches the real
  // bytes once every blob CRC is known, so a crash mid-write leaves a
  // temp file that can never parse as a valid artifact.
  const std::string zeros(
      AlignUp(HeaderBytes(entries_.size()), kArtifactV2Align), '\0');
  return file_.Append(zeros);
}

Status ArtifactV2Writer::PadTo(uint64_t offset) {
  if (file_.position() > offset) {
    Abandon();
    return FormatError("writer position past blob offset");
  }
  static constexpr char kZeros[256] = {};
  while (file_.position() < offset) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(sizeof(kZeros), offset - file_.position()));
    KGAG_RETURN_NOT_OK(file_.Append(kZeros, n));
  }
  return Status::OK();
}

Status ArtifactV2Writer::BeginBlob(uint32_t tag) {
  if (in_blob_) return FormatError("blob already open");
  if (next_blob_ >= entries_.size()) {
    return FormatError("more blobs than declared at Open");
  }
  BlobEntry& e = entries_[next_blob_];
  if (e.tag != tag) return FormatError("blob written out of declared order");
  KGAG_RETURN_NOT_OK(PadTo(e.offset));
  in_blob_ = true;
  blob_remaining_ = e.nbytes;
  blob_crc_ = 0;
  return Status::OK();
}

Status ArtifactV2Writer::Append(const void* data, size_t len) {
  if (!in_blob_) return FormatError("no blob open");
  if (len > blob_remaining_) {
    Abandon();
    return FormatError("blob payload overruns declared size");
  }
  blob_crc_ = Crc32(data, len, blob_crc_);
  blob_remaining_ -= len;
  return file_.Append(data, len);
}

Status ArtifactV2Writer::EndBlob() {
  if (!in_blob_) return FormatError("no blob open");
  if (blob_remaining_ != 0) {
    Abandon();
    return FormatError("blob payload shorter than declared");
  }
  entries_[next_blob_].crc = blob_crc_;
  in_blob_ = false;
  ++next_blob_;
  return Status::OK();
}

Status ArtifactV2Writer::AddBlob(uint32_t tag, const void* data, size_t len) {
  KGAG_RETURN_NOT_OK(BeginBlob(tag));
  KGAG_RETURN_NOT_OK(Append(data, len));
  return EndBlob();
}

Status ArtifactV2Writer::Finish() {
  if (in_blob_) {
    Abandon();
    return FormatError("Finish with a blob still open");
  }
  if (next_blob_ != entries_.size()) {
    Abandon();
    return FormatError("fewer blobs written than declared");
  }
  KGAG_RETURN_NOT_OK(file_.Seek(0));
  KGAG_RETURN_NOT_OK(file_.Append(BuildHeader(meta_, entries_)));
  return file_.Finish();
}

Result<std::shared_ptr<MappedArtifact>> MappedArtifact::Map(
    const std::string& path, const Options& options) {
  std::shared_ptr<MappedArtifact> m(new MappedArtifact());
  m->path_ = path;
  // Every rejection names the file: a watcher reloading many artifacts
  // must be able to tell which one is broken.
  auto bad = [&path](const std::string& what) {
    return FormatError(what + " (" + path + ")");
  };
#if KGAG_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string msg = std::strerror(errno);
    ::close(fd);
    return Status::IoError("stat " + path + ": " + msg);
  }
  m->size_ = static_cast<uint64_t>(st.st_size);
  if (m->size_ < HeaderBytes(0)) {
    ::close(fd);
    return TooShort(path, m->size_);
  }
  void* base = ::mmap(nullptr, m->size_, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) {
    return Status::IoError("mmap " + path + ": " + std::strerror(errno));
  }
  m->base_ = static_cast<const uint8_t*>(base);
  m->is_mmap_ = true;
#else
  std::string bytes;
  KGAG_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  m->owned_.assign(bytes.begin(), bytes.end());
  m->base_ = m->owned_.data();
  m->size_ = m->owned_.size();
  m->is_mmap_ = false;
  if (m->size_ < HeaderBytes(0)) return TooShort(path, m->size_);
#endif

  // --- header ---
  size_t pos = 0;
  char magic[8];
  if (!ReadRaw(m->base_, m->size_, &pos, magic, sizeof(magic)) ||
      std::memcmp(magic, kArtifactV2Magic.data(), 8) != 0) {
    return bad("bad magic (not a KGAGSRV2 file)");
  }
  uint32_t version = 0;
  ArtifactV2Meta meta;
  uint8_t use_sp = 0, use_pi = 0;
  uint32_t blob_count = 0;
  if (!ReadRaw(m->base_, m->size_, &pos, &version, 4) ||
      !ReadRaw(m->base_, m->size_, &pos, &meta.dim, 4) ||
      !ReadRaw(m->base_, m->size_, &pos, &meta.group_size, 4) ||
      !ReadRaw(m->base_, m->size_, &pos, &use_sp, 1) ||
      !ReadRaw(m->base_, m->size_, &pos, &use_pi, 1) ||
      !ReadRaw(m->base_, m->size_, &pos, &meta.num_users, 4) ||
      !ReadRaw(m->base_, m->size_, &pos, &meta.num_items, 4) ||
      !ReadRaw(m->base_, m->size_, &pos, &meta.quant_type, 1) ||
      !ReadRaw(m->base_, m->size_, &pos, &meta.quant_block, 4) ||
      !ReadRaw(m->base_, m->size_, &pos, &blob_count, 4)) {
    return bad("truncated header");
  }
  if (version != kArtifactV2Version) {
    return bad("unsupported version " + std::to_string(version));
  }
  meta.use_sp = use_sp != 0;
  meta.use_pi = use_pi != 0;
  if (blob_count > kMaxBlobs) return bad("blob count out of range");
  const size_t header_bytes = HeaderBytes(blob_count);
  if (m->size_ < header_bytes) {
    return bad("file shorter than header + blob index");
  }

  // --- index + header CRC (always verified: a flipped bit in any offset
  // or size field must never become an out-of-bounds pointer) ---
  std::vector<BlobEntry> blobs(blob_count);
  for (BlobEntry& e : blobs) {
    ReadRaw(m->base_, m->size_, &pos, &e.tag, 4);
    ReadRaw(m->base_, m->size_, &pos, &e.dtype, 1);
    ReadRaw(m->base_, m->size_, &pos, &e.rows, 8);
    ReadRaw(m->base_, m->size_, &pos, &e.cols, 8);
    ReadRaw(m->base_, m->size_, &pos, &e.offset, 8);
    ReadRaw(m->base_, m->size_, &pos, &e.nbytes, 8);
    ReadRaw(m->base_, m->size_, &pos, &e.crc, 4);
  }
  const uint32_t computed = Crc32(m->base_, pos);
  uint32_t header_crc = 0;
  if (!ReadRaw(m->base_, m->size_, &pos, &header_crc, 4)) {
    return bad("truncated header checksum");
  }
  if (computed != header_crc) {
    return bad("header checksum mismatch");
  }

  // --- blob bounds ---
  const uint64_t data_start = AlignUp(header_bytes, kArtifactV2Align);
  for (size_t i = 0; i < blobs.size(); ++i) {
    const BlobEntry& e = blobs[i];
    if (!ValidDtype(e.dtype)) {
      return bad("unknown blob dtype at index " + std::to_string(i));
    }
    uint64_t shape_bytes = 0;
    if (!ShapeBytes(e.dtype, e.rows, e.cols, &shape_bytes) ||
        e.nbytes != shape_bytes) {
      return bad("blob size does not match its shape at index " +
                         std::to_string(i));
    }
    if (e.offset % kArtifactV2Align != 0) {
      return bad("misaligned blob offset at index " +
                         std::to_string(i));
    }
    if (e.offset < data_start || e.offset > m->size_ ||
        e.nbytes > m->size_ - e.offset) {
      return bad("blob out of file bounds at index " +
                         std::to_string(i));
    }
  }
  std::vector<BlobEntry> sorted = blobs;
  std::sort(sorted.begin(), sorted.end(),
            [](const BlobEntry& a, const BlobEntry& b) {
              return a.offset < b.offset;
            });
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].offset < sorted[i - 1].offset + sorted[i - 1].nbytes) {
      return bad("overlapping blobs");
    }
  }

  m->meta_ = meta;
  m->blobs_ = std::move(blobs);
  if (options.verify_crc) KGAG_RETURN_NOT_OK(m->VerifyBlobs());
  return m;
}

MappedArtifact::~MappedArtifact() {
#if KGAG_HAVE_MMAP
  if (is_mmap_ && base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), size_);
  }
#endif
}

const BlobEntry* MappedArtifact::Find(uint32_t tag) const {
  for (const BlobEntry& e : blobs_) {
    if (e.tag == tag) return &e;
  }
  return nullptr;
}

Status MappedArtifact::VerifyBlobs() const {
  for (size_t i = 0; i < blobs_.size(); ++i) {
    const BlobEntry& e = blobs_[i];
    if (Crc32(BlobData(e), e.nbytes) != e.crc) {
      return FormatError("blob checksum mismatch at index " +
                         std::to_string(i) + " (" + path_ + ")");
    }
  }
  return Status::OK();
}

uint64_t MappedArtifact::ResidentBytes() const {
#if KGAG_HAVE_MMAP
  if (!is_mmap_ || size_ == 0) return size_;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return size_;
  const size_t pages = (size_ + static_cast<uint64_t>(page) - 1) /
                       static_cast<uint64_t>(page);
  std::vector<unsigned char> vec(pages);
#if defined(__APPLE__)
  if (::mincore(const_cast<uint8_t*>(base_), size_,
                reinterpret_cast<char*>(vec.data())) != 0) {
#else
  if (::mincore(const_cast<uint8_t*>(base_), size_, vec.data()) != 0) {
#endif
    return size_;
  }
  uint64_t resident = 0;
  for (unsigned char v : vec) {
    if (v & 1) resident += static_cast<uint64_t>(page);
  }
  return std::min(resident, size_);
#else
  return size_;
#endif
}

RepView MakeRepView(const MappedArtifact& m, const BlobEntry& codes,
                    const BlobEntry* scales) {
  RepView v;
  v.type = static_cast<QuantType>(codes.dtype);
  v.rows = codes.rows;
  v.cols = codes.cols;
  v.block = m.meta().quant_block;
  v.codes = m.BlobData(codes);
  if (scales != nullptr) {
    v.scales = reinterpret_cast<const float*>(m.BlobData(*scales));
  }
  return v;
}

}  // namespace serve
}  // namespace kgag
