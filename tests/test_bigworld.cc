// Big-world generator + streaming freeze tests (DESIGN.md §14): the
// counter-based generator must be chunk-invariant and deterministic (two
// processes with the same spec must agree on every byte of the world),
// group/KG structure must satisfy its documented invariants, and the
// streamed freeze must produce the same artifact regardless of chunk
// size, and that artifact must score bit-identically to the same world
// quantized in memory as whole tables.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "data/synthetic/bigworld.h"
#include "gtest/gtest.h"
#include "serve/bigworld_freeze.h"
#include "serve/frozen_model.h"
#include "serve/frozen_scorer.h"
#include "tensor/quant.h"

namespace kgag {
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

synthetic::BigWorldSpec SmallSpec() {
  synthetic::BigWorldSpec spec;
  spec.num_users = 300;
  spec.num_items = 120;
  spec.num_groups = 40;
  spec.dim = 16;
  spec.group_size = 4;
  spec.num_kg_attrs = 50;
  spec.kg_triples_per_item = 3;
  return spec;
}

TEST(BigWorldGen, RowGenerationIsChunkInvariant) {
  const synthetic::BigWorldGen gen(SmallSpec());
  const uint64_t n = gen.spec().num_users;
  const uint32_t d = gen.spec().dim;
  std::vector<double> whole(n * d);
  gen.UserRows(0, n, whole.data());

  // Any split — including pathological 1-row and prime-sized chunks —
  // must reproduce the same bytes.
  for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{64}, n}) {
    std::vector<double> pieced(n * d);
    for (uint64_t start = 0; start < n; start += chunk) {
      const uint64_t count = std::min(chunk, n - start);
      gen.UserRows(start, count, pieced.data() + start * d);
    }
    EXPECT_EQ(std::memcmp(whole.data(), pieced.data(),
                          whole.size() * sizeof(double)),
              0)
        << "chunk " << chunk;
  }

  // An interior window equals the corresponding slice of the whole.
  std::vector<double> window(10 * d);
  gen.ItemRows(33, 10, window.data());
  std::vector<double> items(gen.spec().num_items * d);
  gen.ItemRows(0, gen.spec().num_items, items.data());
  EXPECT_EQ(std::memcmp(window.data(), items.data() + 33 * d,
                        window.size() * sizeof(double)),
            0);
}

TEST(BigWorldGen, DeterministicPerSpecAndDistinctPerSeed) {
  const synthetic::BigWorldSpec spec = SmallSpec();
  const synthetic::BigWorldGen a(spec);
  const synthetic::BigWorldGen b(spec);
  synthetic::BigWorldSpec other = spec;
  other.seed += 1;
  const synthetic::BigWorldGen c(other);

  std::vector<double> ra(8 * spec.dim), rb(8 * spec.dim), rc(8 * spec.dim);
  a.UserRows(100, 8, ra.data());
  b.UserRows(100, 8, rb.data());
  c.UserRows(100, 8, rc.data());
  EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)), 0);
  EXPECT_NE(std::memcmp(ra.data(), rc.data(), ra.size() * sizeof(double)), 0);

  EXPECT_EQ(a.GroupMembers(7), b.GroupMembers(7));
  std::vector<Triple> ta(6), tb(6);
  a.KgTriples(10, 6, ta.data());
  b.KgTriples(10, 6, tb.data());
  EXPECT_EQ(std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(Triple)), 0);
}

TEST(BigWorldGen, GroupMembersAreCanonical) {
  const synthetic::BigWorldGen gen(SmallSpec());
  for (uint64_t g = 0; g < gen.spec().num_groups; ++g) {
    const std::vector<UserId> members = gen.GroupMembers(g);
    ASSERT_EQ(members.size(), gen.spec().group_size);
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_GE(members[i], 0);
      EXPECT_LT(static_cast<uint64_t>(members[i]), gen.spec().num_users);
      // Sorted strictly ascending = sorted + distinct.
      if (i > 0) {
        EXPECT_LT(members[i - 1], members[i]);
      }
    }
  }
}

TEST(BigWorldGen, KgTriplesRespectEntityPartition) {
  const synthetic::BigWorldGen gen(SmallSpec());
  const synthetic::BigWorldSpec& spec = gen.spec();
  const uint64_t total = spec.NumKgTriples();
  std::vector<Triple> triples(total);
  gen.KgTriples(0, total, triples.data());
  for (uint64_t t = 0; t < total; ++t) {
    // Heads are item entities, tails attribute entities, in order: each
    // item emits its kg_triples_per_item facts consecutively.
    EXPECT_EQ(static_cast<uint64_t>(triples[t].head),
              t / spec.kg_triples_per_item);
    EXPECT_GE(static_cast<uint64_t>(triples[t].tail), spec.num_items);
    EXPECT_LT(static_cast<uint64_t>(triples[t].tail), spec.NumKgEntities());
    EXPECT_GE(triples[t].relation, 0);
    EXPECT_LT(static_cast<uint32_t>(triples[t].relation),
              spec.num_kg_relations);
  }
}

TEST(BigWorldFreeze, ChunkSizeDoesNotChangeTheArtifact) {
  const std::string dir = TestTmpDir("bigworld_chunks");
  const synthetic::BigWorldGen gen(SmallSpec());
  for (QuantType q : {QuantType::kFp16, QuantType::kInt8}) {
    std::string first;
    for (uint64_t chunk : {uint64_t{7}, uint64_t{64}, uint64_t{100000}}) {
      serve::BigWorldFreezeOptions opts;
      opts.quant = q;
      opts.chunk_rows = chunk;
      const std::string path = dir + "/w.srv2";
      ASSERT_TRUE(serve::FreezeBigWorldV2(gen, opts, path).ok());
      std::string bytes;
      ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
      if (first.empty()) {
        first = bytes;
      } else {
        EXPECT_EQ(bytes, first)
            << "chunk " << chunk << " tier " << QuantTypeName(q);
      }
    }
  }
}

/// The world as an in-memory model: whole fp64 tables from the generator,
/// quantized in one QuantizeFrozenModel call. The streamed artifact must
/// agree with it to the bit, which pins that chunked quantization equals
/// whole-table quantization.
serve::FrozenModel InMemoryWorld(const synthetic::BigWorldGen& gen,
                                 QuantType q) {
  const synthetic::BigWorldSpec& spec = gen.spec();
  const size_t d = spec.dim;
  serve::FrozenModel m;
  m.dim = static_cast<int>(d);
  m.group_size = static_cast<int>(spec.group_size);
  m.num_users = static_cast<int32_t>(spec.num_users);
  m.num_items = static_cast<int32_t>(spec.num_items);
  m.user_emb = Tensor(spec.num_users, d);
  m.item_emb = Tensor(spec.num_items, d);
  gen.UserRows(0, spec.num_users, m.user_emb.data());
  gen.ItemRows(0, spec.num_items, m.item_emb.data());
  m.w1 = Tensor(d, d);
  m.w2 = Tensor(d * (spec.group_size - 1), d);
  m.bias = Tensor(1, d);
  m.vc = Tensor(d, 1);
  gen.Attention(m.w1.data(), m.w2.data(), m.bias.data(), m.vc.data());
  Result<serve::FrozenModel> quantized = serve::QuantizeFrozenModel(m, q);
  EXPECT_TRUE(quantized.ok()) << quantized.status().ToString();
  return quantized.ok() ? std::move(*quantized) : m;
}

TEST(BigWorldFreeze, StreamedArtifactsLoadAndAgreeAcrossLayouts) {
  const std::string dir = TestTmpDir("bigworld_layouts");
  const synthetic::BigWorldGen gen(SmallSpec());
  for (QuantType q : {QuantType::kFp64, QuantType::kFp16, QuantType::kInt8}) {
    serve::BigWorldFreezeOptions opts;
    opts.quant = q;
    opts.chunk_rows = 33;  // force several chunks per table
    const std::string path = dir + "/w.srv2";
    ASSERT_TRUE(serve::FreezeBigWorldV2(gen, opts, path).ok());

    serve::MmapLoadOptions verify;
    verify.verify_crc = true;
    Result<serve::FrozenModel> mapped =
        serve::LoadFrozenModelMmap(path, verify);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    const serve::FrozenModel memory = InMemoryWorld(gen, q);
    EXPECT_TRUE(mapped->is_mapped());
    EXPECT_FALSE(memory.is_mapped());
    EXPECT_EQ(mapped->num_users,
              static_cast<int32_t>(gen.spec().num_users));
    EXPECT_EQ(mapped->num_items,
              static_cast<int32_t>(gen.spec().num_items));
    EXPECT_EQ(mapped->dim, static_cast<int32_t>(gen.spec().dim));
    EXPECT_EQ(mapped->quant, q);
    EXPECT_EQ(memory.quant, q);

    // The world's own groups score bit-identically through the mapping
    // and the in-memory tables: same codes, same kernels.
    for (uint64_t g = 0; g < 5; ++g) {
      const std::vector<UserId> members = gen.GroupMembers(g);
      Result<serve::GroupRep> rm = serve::BuildGroupRep(*mapped, members);
      Result<serve::GroupRep> rh = serve::BuildGroupRep(memory, members);
      ASSERT_TRUE(rm.ok() && rh.ok());
      const std::vector<double> sm = serve::ScoreAllItems(*mapped, *rm);
      const std::vector<double> sh = serve::ScoreAllItems(memory, *rh);
      ASSERT_EQ(sm.size(), sh.size());
      EXPECT_EQ(
          std::memcmp(sm.data(), sh.data(), sm.size() * sizeof(double)), 0)
          << "tier " << QuantTypeName(q) << " group " << g;
    }
  }
}

}  // namespace
}  // namespace kgag
