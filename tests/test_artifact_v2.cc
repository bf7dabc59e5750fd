// KGAGSRV2 mmap artifact tests (DESIGN.md §14): corruption rejection
// (truncation, bit flips, misaligned offsets, crafted index entries with
// valid CRCs), the mmap-vs-in-memory score bit-identity contract and
// byte-stable re-saves across every quantization tier, and the atomic
// publish contract under crash injection.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "serve/artifact_mmap.h"
#include "serve/frozen_model.h"
#include "serve/frozen_scorer.h"
#include "tensor/quant.h"

namespace kgag {
namespace serve {
namespace {

namespace fs = std::filesystem;

// The fixed header is 39 bytes (magic 8 + version 4 + dim 4 + group_size
// 4 + use_sp 1 + use_pi 1 + users 4 + items 4 + quant 1 + block 4 +
// blob_count 4) and each index entry 41 (tag 4 + dtype 1 + rows 8 +
// cols 8 + offset 8 + nbytes 8 + crc 4). Tests that surgically corrupt
// specific fields rely on these being pinned — changing them is a format
// break and must bump kArtifactV2Version.
constexpr size_t kFixedHeaderBytes = 39;
constexpr size_t kEntryBytes = 41;
// Byte offsets of the header's quant_type and of an index entry's fields.
constexpr size_t kQuantTypeByte = 30;
constexpr size_t kEntryDtype = 4;
constexpr size_t kEntryRows = 5;
constexpr size_t kEntryCols = 13;
constexpr size_t kEntryOffset = 21;
constexpr size_t kEntryNbytes = 29;
constexpr size_t kEntryCrc = 37;

template <typename T>
T Peek(const std::string& bytes, size_t pos) {
  T v;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

template <typename T>
void Poke(std::string* bytes, size_t pos, T v) {
  std::memcpy(bytes->data() + pos, &v, sizeof(v));
}

/// Start of the index entry for blob `tag`.
size_t EntryPos(const std::string& bytes, uint32_t tag) {
  const uint32_t count = Peek<uint32_t>(bytes, kFixedHeaderBytes - 4);
  for (size_t i = 0; i < count; ++i) {
    const size_t pos = kFixedHeaderBytes + i * kEntryBytes;
    if (Peek<uint32_t>(bytes, pos) == tag) return pos;
  }
  ADD_FAILURE() << "no blob with tag " << tag;
  return 0;
}

/// Recomputes the header CRC after the header or index was patched, so
/// only the loader's semantic checks stand between the bytes and a model.
void ResignHeader(std::string* bytes) {
  const uint32_t count = Peek<uint32_t>(*bytes, kFixedHeaderBytes - 4);
  const size_t crc_pos = kFixedHeaderBytes + count * kEntryBytes;
  Poke(bytes, crc_pos, Crc32(bytes->data(), crc_pos));
}

std::string TestTmpDir(const std::string& leaf) {
  const char* base = std::getenv("TEST_TMPDIR");
  fs::path dir = (base != nullptr ? fs::path(base)
                                  : fs::temp_directory_path()) /
                 leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A small random frozen model — serving fidelity is about bytes and
/// shapes, not training.
FrozenModel MakeModel(int num_users = 61, int num_items = 47, int dim = 16,
                      int group_size = 4) {
  Rng rng(321);
  FrozenModel m;
  m.dim = dim;
  m.group_size = group_size;
  m.use_sp = true;
  m.use_pi = true;
  m.num_users = num_users;
  m.num_items = num_items;
  auto fill = [&rng](Tensor* t, double lo, double hi) {
    for (size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.Uniform(lo, hi);
  };
  m.user_emb = Tensor(num_users, dim);
  m.item_emb = Tensor(num_items, dim);
  fill(&m.user_emb, -0.4, 0.4);
  fill(&m.item_emb, -0.4, 0.4);
  m.w1 = Tensor(dim, dim);
  m.w2 = Tensor(dim * (group_size - 1), dim);
  m.bias = Tensor(1, dim);
  m.vc = Tensor(dim, 1);
  fill(&m.w1, -0.1, 0.1);
  fill(&m.w2, -0.05, 0.05);
  fill(&m.bias, -0.1, 0.1);
  fill(&m.vc, -0.2, 0.2);
  return m;
}

std::vector<std::vector<UserId>> SampleGroups(int num_users) {
  Rng rng(99);
  std::vector<std::vector<UserId>> groups;
  for (int g = 0; g < 6; ++g) {
    std::vector<UserId> members;
    const int len = 1 + static_cast<int>(rng.UniformInt(0, 4));
    for (int i = 0; i < len; ++i) {
      members.push_back(static_cast<UserId>(rng.UniformInt(0, num_users - 1)));
    }
    groups.push_back(std::move(members));
  }
  return groups;
}

/// Scores every sample group through both models and demands bitwise
/// equality.
void ExpectBitIdenticalScores(const FrozenModel& a, const FrozenModel& b) {
  for (const std::vector<UserId>& members : SampleGroups(a.num_users)) {
    Result<GroupRep> ra = BuildGroupRep(a, members);
    Result<GroupRep> rb = BuildGroupRep(b, members);
    ASSERT_TRUE(ra.ok() && rb.ok());
    const std::vector<double> sa = ScoreAllItems(a, *ra);
    const std::vector<double> sb = ScoreAllItems(b, *rb);
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(
        std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(double)), 0);
  }
}

struct Tier {
  QuantType q;
  uint32_t block;
};
constexpr Tier kTiers[] = {{QuantType::kFp64, 0},
                           {QuantType::kFp32, 0},
                           {QuantType::kFp16, 0},
                           {QuantType::kInt8, 0},
                           {QuantType::kInt8, 8}};

TEST(ArtifactV2, MmapScoresBitIdenticalToHeapAcrossTiers) {
  const std::string dir = TestTmpDir("artifact_v2_tiers");
  const FrozenModel base = MakeModel();
  for (const Tier& tier : kTiers) {
    Result<FrozenModel> heap = QuantizeFrozenModel(base, tier.q, tier.block);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    const std::string path =
        dir + "/m" + std::to_string(static_cast<int>(tier.q)) + "_" +
        std::to_string(tier.block) + ".srv2";
    ASSERT_TRUE(SaveFrozenModelV2(*heap, path).ok());

    MmapLoadOptions opts;
    opts.verify_crc = true;  // also exercises the eager CRC path
    Result<FrozenModel> mapped = LoadFrozenModelMmap(path, opts);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped->is_mapped());
    EXPECT_EQ(mapped->quant, tier.q);
    EXPECT_EQ(mapped->quant_block, tier.block);
    EXPECT_EQ(mapped->num_users, heap->num_users);
    EXPECT_EQ(mapped->num_items, heap->num_items);
    ExpectBitIdenticalScores(*heap, *mapped);
  }
}

TEST(ArtifactV2, SaveFromMappedModelIsByteStable) {
  const std::string dir = TestTmpDir("artifact_v2_restable");
  const FrozenModel base = MakeModel();
  for (const Tier& tier : kTiers) {
    Result<FrozenModel> heap = QuantizeFrozenModel(base, tier.q, tier.block);
    ASSERT_TRUE(heap.ok());
    const std::string path = dir + "/m.srv2";
    ASSERT_TRUE(SaveFrozenModelV2(*heap, path).ok());
    MmapLoadOptions verify;
    verify.verify_crc = true;
    Result<FrozenModel> mapped = LoadFrozenModelMmap(path, verify);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    // Re-encoding straight from the mapping must reproduce the file.
    const std::string again = dir + "/again.srv2";
    ASSERT_TRUE(SaveFrozenModelV2(*mapped, again).ok());
    std::string b1, b2;
    ASSERT_TRUE(ReadFileToString(path, &b1).ok());
    ASSERT_TRUE(ReadFileToString(again, &b2).ok());
    EXPECT_EQ(b1, b2) << QuantTypeName(tier.q) << " block " << tier.block;
  }
}

TEST(ArtifactV2, TruncatedFilesRejected) {
  const std::string dir = TestTmpDir("artifact_v2_trunc");
  const std::string path = dir + "/m.srv2";
  ASSERT_TRUE(SaveFrozenModelV2(MakeModel(), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());

  // Cut inside the magic, inside the index, and inside the last blob.
  for (size_t cut : {size_t{4}, kFixedHeaderBytes + 10, bytes.size() - 3}) {
    const std::string t = dir + "/t.srv2";
    ASSERT_TRUE(AtomicWriteFile(t, bytes.substr(0, cut)).ok());
    Result<std::shared_ptr<MappedArtifact>> m = MappedArtifact::Map(t);
    EXPECT_FALSE(m.ok()) << "cut at " << cut;
  }
  // An empty file is rejected too (not a crash).
  ASSERT_TRUE(AtomicWriteFile(dir + "/e.srv2", "").ok());
  EXPECT_FALSE(MappedArtifact::Map(dir + "/e.srv2").ok());
}

TEST(ArtifactV2, HeaderBitFlipRejected) {
  const std::string dir = TestTmpDir("artifact_v2_flip_hdr");
  const std::string path = dir + "/m.srv2";
  ASSERT_TRUE(SaveFrozenModelV2(MakeModel(), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  // Flip one bit of the dim field; the header CRC must catch it.
  bytes[12] ^= 0x01;
  const std::string t = dir + "/t.srv2";
  ASSERT_TRUE(AtomicWriteFile(t, bytes).ok());
  Result<std::shared_ptr<MappedArtifact>> m = MappedArtifact::Map(t);
  EXPECT_FALSE(m.ok());
}

TEST(ArtifactV2, BlobBitFlipCaughtByCrc) {
  const std::string dir = TestTmpDir("artifact_v2_flip_blob");
  const std::string path = dir + "/m.srv2";
  ASSERT_TRUE(SaveFrozenModelV2(MakeModel(), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  // Flip a byte deep in the payload region (past header + index).
  bytes[bytes.size() - 9] ^= 0x40;
  const std::string t = dir + "/t.srv2";
  ASSERT_TRUE(AtomicWriteFile(t, bytes).ok());

  // Lazy map succeeds (the header is intact)…
  Result<std::shared_ptr<MappedArtifact>> lazy = MappedArtifact::Map(t);
  ASSERT_TRUE(lazy.ok());
  // …but both the on-demand check and the eager load reject the payload.
  EXPECT_FALSE((*lazy)->VerifyBlobs().ok());
  MmapLoadOptions eager;
  eager.verify_crc = true;
  EXPECT_FALSE(MappedArtifact::Map(t, eager).ok());
  EXPECT_FALSE(LoadFrozenModelMmap(t, eager).ok());
}

TEST(ArtifactV2, MisalignedBlobOffsetRejected) {
  const std::string dir = TestTmpDir("artifact_v2_align");
  const std::string path = dir + "/m.srv2";
  ASSERT_TRUE(SaveFrozenModelV2(MakeModel(), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());

  // Nudge entry 0's offset field off the 64-byte grid and re-sign the
  // header so ONLY the alignment check can reject it.
  const uint32_t blob_count = static_cast<uint32_t>(
      static_cast<uint8_t>(bytes[kFixedHeaderBytes - 4]) |
      static_cast<uint8_t>(bytes[kFixedHeaderBytes - 3]) << 8 |
      static_cast<uint8_t>(bytes[kFixedHeaderBytes - 2]) << 16 |
      static_cast<uint8_t>(bytes[kFixedHeaderBytes - 1]) << 24);
  ASSERT_GT(blob_count, 0u);
  const size_t offset_field = kFixedHeaderBytes + 4 + 1 + 8 + 8;
  bytes[offset_field] = static_cast<char>(bytes[offset_field] + 1);
  const size_t crc_pos = kFixedHeaderBytes + blob_count * kEntryBytes;
  const uint32_t crc = Crc32(bytes.data(), crc_pos);
  std::memcpy(&bytes[crc_pos], &crc, sizeof(crc));

  const std::string t = dir + "/t.srv2";
  ASSERT_TRUE(AtomicWriteFile(t, bytes).ok());
  Result<std::shared_ptr<MappedArtifact>> m = MappedArtifact::Map(t);
  EXPECT_FALSE(m.ok());
}

TEST(ArtifactV2, UnknownQuantTypeRejectedWithClearError) {
  const std::string dir = TestTmpDir("artifact_v2_quant_tag");
  const std::string path = dir + "/m.srv2";
  Result<FrozenModel> q = QuantizeFrozenModel(MakeModel(), QuantType::kInt8);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(SaveFrozenModelV2(*q, path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  // An artifact from a newer build with a quant tier this reader does
  // not know: the header is intact, only the tag is foreign.
  ASSERT_EQ(bytes[kQuantTypeByte], static_cast<char>(QuantType::kInt8));
  bytes[kQuantTypeByte] = 42;
  ResignHeader(&bytes);
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  Result<FrozenModel> loaded = LoadFrozenModelMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("unknown quantization type"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ArtifactV2, OverflowingBlobShapeRejectedWithoutAbort) {
  const std::string dir = TestTmpDir("artifact_v2_overflow");
  const std::string path = dir + "/m.srv2";
  ASSERT_TRUE(SaveFrozenModelV2(MakeModel(), path).ok());
  std::string clean;
  ASSERT_TRUE(ReadFileToString(path, &clean).ok());
  const size_t vc = EntryPos(clean, kBlobAttnVc);

  // rows * cols * 8 wraps to exactly 0 in 64 bits: a loader that trusts
  // the wrapped product would size a 2^61-row tensor from an empty blob.
  std::string bytes = clean;
  Poke<uint64_t>(&bytes, vc + kEntryRows, uint64_t{1} << 61);
  Poke<uint64_t>(&bytes, vc + kEntryCols, 1);
  Poke<uint64_t>(&bytes, vc + kEntryNbytes, 0);
  ResignHeader(&bytes);
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  EXPECT_FALSE(MappedArtifact::Map(path).ok());
  EXPECT_FALSE(LoadFrozenModelMmap(path).ok());

  // A size-consistent attention blob whose shape disagrees with the
  // header's dim is rejected as well (vc is dim x 1, not 1 x dim).
  bytes = clean;
  Poke<uint64_t>(&bytes, vc + kEntryRows, 1);
  Poke<uint64_t>(&bytes, vc + kEntryCols, 16);
  ResignHeader(&bytes);
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  EXPECT_FALSE(LoadFrozenModelMmap(path).ok());
}

TEST(ArtifactV2, ScalesBlobMustMatchItsCodes) {
  const std::string dir = TestTmpDir("artifact_v2_scales");
  const std::string path = dir + "/m.srv2";
  Result<FrozenModel> q = QuantizeFrozenModel(MakeModel(), QuantType::kInt8);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(SaveFrozenModelV2(*q, path).ok());
  std::string clean;
  ASSERT_TRUE(ReadFileToString(path, &clean).ok());
  const size_t uscl = EntryPos(clean, kBlobUserScales);
  ASSERT_EQ(Peek<uint64_t>(clean, uscl + kEntryRows), 61u);
  MmapLoadOptions verify;
  verify.verify_crc = true;

  // Cut the user scales from 61 rows to 1, with blob and header CRCs
  // recomputed: every CRC holds, but users 1..60 would read their scales
  // past the end of the blob.
  std::string bytes = clean;
  Poke<uint64_t>(&bytes, uscl + kEntryRows, 1);
  Poke<uint64_t>(&bytes, uscl + kEntryNbytes, sizeof(float));
  const uint64_t offset = Peek<uint64_t>(bytes, uscl + kEntryOffset);
  Poke(&bytes, uscl + kEntryCrc, Crc32(bytes.data() + offset, sizeof(float)));
  ResignHeader(&bytes);
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  EXPECT_FALSE(LoadFrozenModelMmap(path, verify).ok());

  // Same bytes declared as 61 x 4 int8 values instead of 61 fp32 scales.
  bytes = clean;
  bytes[uscl + kEntryDtype] = static_cast<char>(QuantType::kInt8);
  Poke<uint64_t>(&bytes, uscl + kEntryCols, 4);
  ResignHeader(&bytes);
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  EXPECT_FALSE(LoadFrozenModelMmap(path, verify).ok());

  // A tier without scales must not carry a scales blob.
  Result<FrozenModel> fp16 =
      QuantizeFrozenModel(MakeModel(), QuantType::kFp16);
  ASSERT_TRUE(fp16.ok());
  const RepView u = fp16->UserView();
  const RepView i = fp16->ItemView();
  ArtifactV2Meta meta;
  meta.dim = 16;
  meta.group_size = 4;
  meta.num_users = 61;
  meta.num_items = 47;
  meta.quant_type = static_cast<uint8_t>(QuantType::kFp16);
  const uint8_t f16 = static_cast<uint8_t>(QuantType::kFp16);
  const uint8_t f32 = static_cast<uint8_t>(QuantType::kFp32);
  const uint8_t f64 = static_cast<uint8_t>(QuantType::kFp64);
  const std::vector<float> stray(u.rows, 1.0f);
  ArtifactV2Writer w;
  ASSERT_TRUE(w.Open(path, meta,
                     {{kBlobUserRep, f16, u.rows, u.cols},
                      {kBlobUserScales, f32, u.rows, 1},
                      {kBlobItemRep, f16, i.rows, i.cols},
                      {kBlobAttnW1, f64, 16, 16},
                      {kBlobAttnW2, f64, 48, 16},
                      {kBlobAttnBias, f64, 1, 16},
                      {kBlobAttnVc, f64, 16, 1}})
                  .ok());
  ASSERT_TRUE(w.AddBlob(kBlobUserRep, u.codes, u.rows * u.RowBytes()).ok());
  ASSERT_TRUE(
      w.AddBlob(kBlobUserScales, stray.data(), stray.size() * sizeof(float))
          .ok());
  ASSERT_TRUE(w.AddBlob(kBlobItemRep, i.codes, i.rows * i.RowBytes()).ok());
  for (const auto& [tag, t] :
       {std::pair{kBlobAttnW1, &fp16->w1}, std::pair{kBlobAttnW2, &fp16->w2},
        std::pair{kBlobAttnBias, &fp16->bias},
        std::pair{kBlobAttnVc, &fp16->vc}}) {
    ASSERT_TRUE(w.AddBlob(tag, t->data(), t->size() * sizeof(double)).ok());
  }
  ASSERT_TRUE(w.Finish().ok());
  Result<FrozenModel> stray_loaded = LoadFrozenModelMmap(path, verify);
  EXPECT_FALSE(stray_loaded.ok());
}

TEST(ArtifactV2, WriterEnforcesDeclarationOrderAndSizes) {
  const std::string dir = TestTmpDir("artifact_v2_writer");
  ArtifactV2Meta meta;
  meta.dim = 2;
  meta.group_size = 2;
  meta.num_users = 2;
  meta.num_items = 1;
  const std::vector<BlobSpec> specs = {
      {kBlobUserRep, static_cast<uint8_t>(QuantType::kFp64), 2, 2},
      {kBlobItemRep, static_cast<uint8_t>(QuantType::kFp64), 1, 2},
  };

  // Out-of-order BeginBlob fails.
  {
    ArtifactV2Writer w;
    ASSERT_TRUE(w.Open(dir + "/a.srv2", meta, specs).ok());
    EXPECT_FALSE(w.BeginBlob(kBlobItemRep).ok());
    w.Abandon();
  }
  // Finishing with a short payload fails.
  {
    ArtifactV2Writer w;
    ASSERT_TRUE(w.Open(dir + "/b.srv2", meta, specs).ok());
    ASSERT_TRUE(w.BeginBlob(kBlobUserRep).ok());
    const double rows[2] = {1.0, 2.0};
    ASSERT_TRUE(w.Append(rows, sizeof(rows)).ok());
    EXPECT_FALSE(w.EndBlob().ok());  // declared 4 doubles, wrote 2
    w.Abandon();
  }
  // Finishing before every declared blob is written fails.
  {
    ArtifactV2Writer w;
    ASSERT_TRUE(w.Open(dir + "/c.srv2", meta, specs).ok());
    const double rows[4] = {1.0, 2.0, 3.0, 4.0};
    ASSERT_TRUE(w.AddBlob(kBlobUserRep, rows, sizeof(rows)).ok());
    EXPECT_FALSE(w.Finish().ok());
    w.Abandon();
  }
}

// ---------------------------------------------------------------------------
// Degenerate files and crash injection

TEST(AutoLoader, EmptyAndShortFilesGetClearInvalidArgument) {
  const std::string dir = TestTmpDir("short_artifacts");
  const struct {
    const char* leaf;
    const char* bytes;
  } cases[] = {
      {"empty.srv", ""},
      {"three.srv", "KGA"},
  };
  for (const auto& c : cases) {
    const std::string path = dir + "/" + c.leaf;
    ASSERT_TRUE(AtomicWriteFile(path, c.bytes).ok());
    Result<FrozenModel> loaded = LoadFrozenModelMmap(path);
    ASSERT_FALSE(loaded.ok()) << c.leaf;
    const std::string msg = loaded.status().ToString();
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << msg;
    // The message must name the offending path — "truncated read" alone
    // is useless when a watcher reloads dozens of artifacts.
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("too short"), std::string::npos) << msg;
  }
}

// Crash injection around the atomic publish contract: a writer killed at
// ANY instant must never leave a partial artifact at the target path —
// the path either doesn't exist, or holds a complete, loadable artifact
// (temp + fsync + rename). This is the invariant the serve_model --watch
// reloader and the OnlineTrainer publisher both lean on.
TEST(CrashInjection, KilledWriterNeverExposesPartialArtifact) {
  const std::string dir = TestTmpDir("crash_publish");
  const std::string target = dir + "/live.srv2";
  // Big enough that a write is interruptible mid-stream.
  const FrozenModel model =
      MakeModel(/*num_users=*/512, /*num_items=*/512, /*dim=*/64);

  for (int round = 0; round < 4; ++round) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: republish in a tight loop until killed. _exit on any
      // error so a failure can't masquerade as a successful run.
      for (;;) {
        if (!SaveFrozenModelV2(model, target).ok()) _exit(7);
      }
    }
    // Parent: play the watcher for a bit, then SIGKILL mid-write.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      if (fs::exists(target)) {
        Result<FrozenModel> seen = LoadFrozenModelMmap(target);
        EXPECT_TRUE(seen.ok())
            << "watcher observed a partial artifact: "
            << seen.status().ToString();
      }
    }
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "writer exited on its own (status " << status
        << ") — the kill never landed mid-write";

    // Post-mortem: whatever the path holds now must be complete.
    if (fs::exists(target)) {
      Result<FrozenModel> survivor = LoadFrozenModelMmap(target);
      EXPECT_TRUE(survivor.ok()) << survivor.status().ToString();
      if (survivor.ok()) {
        EXPECT_EQ(survivor->num_users, model.num_users);
        EXPECT_EQ(survivor->num_items, model.num_items);
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace kgag
