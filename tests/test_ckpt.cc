// Checkpoint container + manager tests: format round-trips, rejection of
// every corruption class (bad magic, version, header CRC, truncated
// chunks, bit flips in each chunk type, trailing garbage), atomic write
// behavior, retention, newest-intact-first load fallback, and the save /
// load latency series.
#include "ckpt/checkpoint.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "gtest/gtest.h"
#include "obs/obs.h"

namespace kgag {
namespace ckpt {
namespace {

namespace fs = std::filesystem;

std::string TestTmpDir(const std::string& leaf) {
  const char* base = std::getenv("TEST_TMPDIR");
  fs::path dir = (base != nullptr ? fs::path(base)
                                  : fs::temp_directory_path()) /
                 leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadAll(const std::string& path) {
  std::string out;
  EXPECT_TRUE(ReadFileToString(path, &out).ok());
  return out;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

TrainingState SampleState() {
  TrainingState s;
  s.epoch = 4;
  s.mid_epoch = true;
  s.batches_done = 17;
  s.partial_loss = 3.25;
  s.epoch_losses = {0.9, 0.7, 0.55, 0.5};
  s.params = std::string("PARAM-BLOB\0with\0nuls", 20);
  s.optimizer = "ADAM-moments";
  s.rng = "rng-engine-streams";
  s.batcher = "orders+cursors";
  s.selector = "best-epoch-snapshot";
  return s;
}

void ExpectStatesEqual(const TrainingState& a, const TrainingState& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.mid_epoch, b.mid_epoch);
  EXPECT_EQ(a.batches_done, b.batches_done);
  EXPECT_EQ(a.partial_loss, b.partial_loss);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.optimizer, b.optimizer);
  EXPECT_EQ(a.rng, b.rng);
  EXPECT_EQ(a.batcher, b.batcher);
  EXPECT_EQ(a.selector, b.selector);
}

TEST(Container, RoundTripsChunks) {
  std::vector<Chunk> chunks = {
      {kTagMeta, "meta-bytes"},
      {kTagParams, std::string("\x00\x01\x02\xff", 4)},
      {kTagRng, ""},  // empty payloads are legal
  };
  std::string encoded;
  ASSERT_TRUE(EncodeContainer(chunks, &encoded).ok());

  std::vector<Chunk> decoded;
  ASSERT_TRUE(DecodeContainer(encoded, &decoded).ok());
  ASSERT_EQ(decoded.size(), chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(decoded[i].tag, chunks[i].tag);
    EXPECT_EQ(decoded[i].payload, chunks[i].payload);
  }
}

TEST(Container, RejectsBadMagic) {
  std::string encoded;
  ASSERT_TRUE(EncodeContainer({{kTagMeta, "x"}}, &encoded).ok());
  encoded[0] = 'X';
  std::vector<Chunk> out;
  EXPECT_TRUE(DecodeContainer(encoded, &out).IsInvalidArgument());
}

TEST(Container, RejectsHeaderCorruption) {
  std::string encoded;
  ASSERT_TRUE(EncodeContainer({{kTagMeta, "x"}}, &encoded).ok());
  encoded[9] ^= 0x40;  // flips a bit inside the version field
  std::vector<Chunk> out;
  EXPECT_FALSE(DecodeContainer(encoded, &out).ok());
}

TEST(Container, RejectsTruncationAtEveryLength) {
  std::string encoded;
  ASSERT_TRUE(
      EncodeContainer({{kTagMeta, "meta"}, {kTagParams, "params"}}, &encoded)
          .ok());
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::vector<Chunk> out;
    EXPECT_FALSE(
        DecodeContainer(std::string_view(encoded.data(), len), &out).ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(Container, RejectsTrailingGarbage) {
  std::string encoded;
  ASSERT_TRUE(EncodeContainer({{kTagMeta, "x"}}, &encoded).ok());
  encoded += "extra";
  std::vector<Chunk> out;
  EXPECT_FALSE(DecodeContainer(encoded, &out).ok());
}

TEST(Container, RejectsOversizedChunkLength) {
  std::string encoded;
  ASSERT_TRUE(EncodeContainer({{kTagMeta, "abcd"}}, &encoded).ok());
  // Overwrite the chunk's u64 length (after 20-byte header + 4-byte tag)
  // with a huge value; the decoder must bound it, not allocate.
  const uint64_t huge = ~0ull;
  encoded.replace(24, sizeof(huge),
                  reinterpret_cast<const char*>(&huge), sizeof(huge));
  std::vector<Chunk> out;
  EXPECT_FALSE(DecodeContainer(encoded, &out).ok());
}

TEST(TrainingState, RoundTrips) {
  const TrainingState state = SampleState();
  std::string encoded;
  ASSERT_TRUE(EncodeTrainingState(state, &encoded).ok());
  TrainingState decoded;
  ASSERT_TRUE(DecodeTrainingState(encoded, &decoded).ok());
  ExpectStatesEqual(state, decoded);
}

TEST(TrainingState, BitFlipAnywhereIsRejected) {
  // A single flipped bit in ANY byte — header, any chunk header, any
  // payload (META, LOSS, PARM, OPTM, RNGS, BTCH, VSEL), any CRC — must
  // make the decode fail; nothing in the file is unprotected.
  std::string encoded;
  ASSERT_TRUE(EncodeTrainingState(SampleState(), &encoded).ok());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string corrupt = encoded;
    corrupt[i] ^= 0x01;
    TrainingState out;
    EXPECT_FALSE(DecodeTrainingState(corrupt, &out).ok())
        << "bit flip at byte " << i << " was accepted";
  }
}

TEST(TrainingState, MissingRequiredChunkIsRejected) {
  const TrainingState state = SampleState();
  std::string encoded;
  ASSERT_TRUE(EncodeTrainingState(state, &encoded).ok());
  std::vector<Chunk> chunks;
  ASSERT_TRUE(DecodeContainer(encoded, &chunks).ok());
  for (const uint32_t required :
       {kTagMeta, kTagParams, kTagOptimizer, kTagRng, kTagBatcher}) {
    std::vector<Chunk> pruned;
    for (const Chunk& c : chunks) {
      if (c.tag != required) pruned.push_back(c);
    }
    std::string reencoded;
    ASSERT_TRUE(EncodeContainer(pruned, &reencoded).ok());
    TrainingState out;
    EXPECT_FALSE(DecodeTrainingState(reencoded, &out).ok());
  }
}

TEST(TrainingState, UnknownChunkTypesAreSkipped) {
  std::string encoded;
  ASSERT_TRUE(EncodeTrainingState(SampleState(), &encoded).ok());
  std::vector<Chunk> chunks;
  ASSERT_TRUE(DecodeContainer(encoded, &chunks).ok());
  chunks.push_back(Chunk{MakeTag('F', 'U', 'T', 'R'), "from-a-newer-writer"});
  std::string reencoded;
  ASSERT_TRUE(EncodeContainer(chunks, &reencoded).ok());
  TrainingState out;
  ASSERT_TRUE(DecodeTrainingState(reencoded, &out).ok());
  ExpectStatesEqual(SampleState(), out);
}

TEST(AtomicWrite, ReplacesWithoutPartialStates) {
  const std::string dir = TestTmpDir("kgag_atomic_write");
  const std::string path = dir + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "first-version").ok());
  EXPECT_EQ(ReadAll(path), "first-version");
  ASSERT_TRUE(AtomicWriteFile(path, "second-version").ok());
  EXPECT_EQ(ReadAll(path), "second-version");
  // No temp files may survive a successful write.
  size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(Manager, SaveLoadRoundTrip) {
  CheckpointManager::Options opts;
  opts.dir = TestTmpDir("kgag_mgr_roundtrip");
  opts.fsync = false;
  CheckpointManager mgr(opts);

  const TrainingState state = SampleState();
  ASSERT_TRUE(mgr.Save(state).ok());
  Result<TrainingState> loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(state, *loaded);
}

#if KGAG_OBS_ACTIVE

TEST(Manager, SaveAndLoadEachObserveOneLatency) {
  CheckpointManager::Options opts;
  opts.dir = TestTmpDir("kgag_mgr_latency");
  opts.fsync = false;
  CheckpointManager mgr(opts);
  // Registering the series here lets the "before" reads work in any test
  // order.
  obs::HdrHistogram* saves =
      obs::MetricsRegistry::Global().GetHdrHistogram("ckpt.save_latency_us");
  obs::HdrHistogram* loads =
      obs::MetricsRegistry::Global().GetHdrHistogram("ckpt.load_latency_us");

  const obs::HdrSnapshot saves_before = saves->Snapshot();
  ASSERT_TRUE(mgr.Save(SampleState()).ok());
  obs::HdrSnapshot window = saves->Snapshot();
  window.Subtract(saves_before);
  EXPECT_EQ(window.total, 1u);

  const obs::HdrSnapshot loads_before = loads->Snapshot();
  ASSERT_TRUE(mgr.LoadLatest().ok());
  window = loads->Snapshot();
  window.Subtract(loads_before);
  EXPECT_EQ(window.total, 1u);
}

#endif  // KGAG_OBS_ACTIVE

TEST(Manager, EmptyDirIsNotFound) {
  CheckpointManager::Options opts;
  opts.dir = TestTmpDir("kgag_mgr_empty");
  CheckpointManager mgr(opts);
  Result<TrainingState> loaded = mgr.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST(Manager, RetentionKeepsNewestN) {
  CheckpointManager::Options opts;
  opts.dir = TestTmpDir("kgag_mgr_retention");
  opts.keep_last = 2;
  opts.fsync = false;
  CheckpointManager mgr(opts);

  for (uint64_t e = 0; e < 5; ++e) {
    TrainingState s = SampleState();
    s.epoch = e;
    ASSERT_TRUE(mgr.Save(s).ok());
  }
  const std::vector<std::string> snaps = mgr.ListSnapshots();
  ASSERT_EQ(snaps.size(), 2u);
  Result<TrainingState> loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->epoch, 4u);
}

TEST(Manager, FallsBackToNewestIntactSnapshot) {
  CheckpointManager::Options opts;
  opts.dir = TestTmpDir("kgag_mgr_fallback");
  opts.fsync = false;
  CheckpointManager mgr(opts);

  for (uint64_t e = 0; e < 3; ++e) {
    TrainingState s = SampleState();
    s.epoch = e;
    ASSERT_TRUE(mgr.Save(s).ok());
  }
  std::vector<std::string> snaps = mgr.ListSnapshots();
  ASSERT_EQ(snaps.size(), 3u);

  // Corrupt the newest (simulated torn write), truncate the middle one.
  std::string newest = ReadAll(snaps[2]);
  newest[newest.size() / 2] ^= 0xff;
  WriteAll(snaps[2], newest);
  WriteAll(snaps[1], ReadAll(snaps[1]).substr(0, 10));

  Result<TrainingState> loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 0u);  // the only intact snapshot
}

TEST(Manager, AllCorruptIsNotFound) {
  CheckpointManager::Options opts;
  opts.dir = TestTmpDir("kgag_mgr_all_corrupt");
  opts.fsync = false;
  CheckpointManager mgr(opts);
  ASSERT_TRUE(mgr.Save(SampleState()).ok());
  const std::vector<std::string> snaps = mgr.ListSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  WriteAll(snaps[0], "not a checkpoint at all");
  Result<TrainingState> loaded = mgr.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST(Manager, SequenceNumbersContinueAcrossManagers) {
  CheckpointManager::Options opts;
  opts.dir = TestTmpDir("kgag_mgr_seq");
  opts.fsync = false;
  {
    CheckpointManager mgr(opts);
    ASSERT_TRUE(mgr.Save(SampleState()).ok());
    ASSERT_TRUE(mgr.Save(SampleState()).ok());
  }
  // A new manager (a resumed process) must not reuse sequence numbers —
  // an overwrite of an existing snapshot would defeat retention history.
  CheckpointManager mgr2(opts);
  TrainingState s = SampleState();
  s.epoch = 99;
  ASSERT_TRUE(mgr2.Save(s).ok());
  ASSERT_EQ(mgr2.ListSnapshots().size(), 3u);
  Result<TrainingState> loaded = mgr2.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->epoch, 99u);
}

}  // namespace
}  // namespace ckpt
}  // namespace kgag
