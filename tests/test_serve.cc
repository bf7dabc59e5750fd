// Serving subsystem tests: KGAGSRV2 round trip + corruption rejection,
// the eval/serve bit-identity contract, the tiled serving scan against
// the materialized reference path, batched-vs-solo bit identity, ad-hoc
// group handling (single member, duplicates, order independence,
// untrained sizes) and rank-time exclusion semantics.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/file_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic/standard_datasets.h"
#include "eval/metrics.h"
#include "eval/ranking_evaluator.h"
#include "gtest/gtest.h"
#include "models/kgag_model.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/frozen_model.h"
#include "serve/frozen_scorer.h"
#include "serve/serving_engine.h"
#include "tensor/kernels.h"

namespace kgag {
namespace serve {
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

/// Shared fixture state: one small corpus frozen once (propagation is the
/// slow part; every test reads the same immutable artifact).
class ServeTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    dataset_ = new GroupRecDataset(
        MakeMovieLensRandDataset(/*seed=*/11, /*scale=*/0.15));
    KgagConfig config;
    config.propagation.dim = 16;
    config.propagation.depth = 2;
    config.propagation.sample_size = 4;
    config.propagation.final_tanh = false;
    config.eval_tree_samples = 2;
    config.seed = 77;
    auto model = KgagModel::Create(dataset_, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    // Untrained (randomly initialized) weights are enough: the serving
    // contract is about scoring fidelity, not model quality.
    Result<FrozenModel> frozen = FreezeKgagModel(model->get());
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    frozen_ = new FrozenModel(std::move(*frozen));
  }

  static void TearDownTestSuite() {
    delete frozen_;
    delete dataset_;
    frozen_ = nullptr;
    dataset_ = nullptr;
  }

  static const GroupRecDataset* dataset_;
  static const FrozenModel* frozen_;
};

const GroupRecDataset* ServeTest::dataset_ = nullptr;
const FrozenModel* ServeTest::frozen_ = nullptr;

std::vector<UserId> Members(GroupId g) {
  auto span = ServeTest::dataset_->groups.MembersOf(g);
  return {span.begin(), span.end()};
}

// ---------------------------------------------------------------------------
// Artifact format

/// Saves `model` as KGAGSRV2 and returns the file's bytes.
std::string SavedBytes(const FrozenModel& model, const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(SaveFrozenModelV2(model, path).ok());
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  return bytes;
}

TEST_F(ServeTest, SaveLoadFileRoundTrip) {
  const std::string dir = TestTmpDir("serve_artifact");
  const std::string path = dir + "/model.srv";
  const std::string original = SavedBytes(*frozen_, path);
  MmapLoadOptions verify;
  verify.verify_crc = true;
  Result<FrozenModel> loaded = LoadFrozenModelMmap(path, verify);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dim, frozen_->dim);
  EXPECT_EQ(loaded->group_size, frozen_->group_size);
  EXPECT_EQ(loaded->num_users, frozen_->num_users);
  EXPECT_EQ(loaded->num_items, frozen_->num_items);
  EXPECT_EQ(SavedBytes(*loaded, dir + "/again.srv"), original);
}

/// Flips one bit at a stride of positions across the header, the blob
/// index and every blob payload of `model`'s artifact (the zero padding
/// between them carries nothing and is skipped); each flip must fail an
/// eagerly CRC-checked load. Truncations and a checkpoint magic must fail
/// too.
void ExpectCorruptionRejected(const FrozenModel& model,
                              const std::string& dir) {
  const std::string bytes = SavedBytes(model, dir + "/clean.srv");
  Result<std::shared_ptr<MappedArtifact>> clean =
      MappedArtifact::Map(dir + "/clean.srv");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  // magic 8 + version 4 + meta 23 + blob count 4, 41 bytes per index
  // entry, then the header CRC.
  const size_t header_end = 39 + (*clean)->blobs().size() * 41 + 4;
  auto carries_data = [&](size_t pos) {
    if (pos < header_end) return true;
    for (const BlobEntry& e : (*clean)->blobs()) {
      if (pos >= e.offset && pos < e.offset + e.nbytes) return true;
    }
    return false;
  };
  MmapLoadOptions verify;
  verify.verify_crc = true;
  const std::string path = dir + "/corrupt.srv";
  for (size_t pos = 0; pos < bytes.size(); pos += 97) {
    if (!carries_data(pos)) continue;
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    ASSERT_TRUE(AtomicWriteFile(path, corrupt).ok());
    EXPECT_FALSE(LoadFrozenModelMmap(path, verify).ok())
        << "bit flip at byte " << pos << " was not detected";
  }
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, bytes.size() / 2,
                     bytes.size() - 1}) {
    ASSERT_TRUE(AtomicWriteFile(path, bytes.substr(0, len)).ok());
    EXPECT_FALSE(LoadFrozenModelMmap(path, verify).ok())
        << "truncation to " << len << " bytes was not detected";
  }
  // A checkpoint-magic file must not load as an artifact.
  std::string wrong_magic = bytes;
  wrong_magic.replace(0, 8, "KGAGCKP1");
  ASSERT_TRUE(AtomicWriteFile(path, wrong_magic).ok());
  EXPECT_FALSE(LoadFrozenModelMmap(path, verify).ok());
}

TEST_F(ServeTest, CorruptionIsRejected) {
  ExpectCorruptionRejected(*frozen_, TestTmpDir("serve_corrupt"));
}

// ---------------------------------------------------------------------------
// Eval/serve bit identity (the shared-scoring-path contract)

TEST_F(ServeTest, ServingTopKBitIdenticalToRankingEvaluator) {
  // The evaluator's protocol: rank the test-item pool per group. Serving
  // ranks the full catalog, so excluding everything outside the pool must
  // reproduce the evaluator's ranked list bit for bit.
  const std::vector<ItemId> pool = dataset_->TestItemPool();
  ASSERT_FALSE(pool.empty());
  std::vector<ItemId> outside;
  for (ItemId v = 0; v < frozen_->num_items; ++v) {
    if (!std::binary_search(pool.begin(), pool.end(), v)) {
      outside.push_back(v);
    }
  }
  const size_t k = 5;

  FrozenGroupScorer scorer(frozen_, &dataset_->groups);
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 8});

  const int num_groups = dataset_->groups.num_groups();
  for (GroupId g = 0; g < std::min(num_groups, 12); ++g) {
    const std::vector<double> eval_scores = scorer.ScoreGroup(g, pool);
    const std::vector<ItemId> eval_ranked = TopKItems(eval_scores, pool, k);

    Result<TopKResult> serve_result = engine.TopK(Members(g), k, outside);
    ASSERT_TRUE(serve_result.ok()) << serve_result.status().ToString();

    ASSERT_EQ(serve_result->items.size(), eval_ranked.size()) << "group " << g;
    for (size_t i = 0; i < eval_ranked.size(); ++i) {
      EXPECT_EQ(serve_result->items[i], eval_ranked[i])
          << "group " << g << " rank " << i;
      // Bitwise score equality: same frozen parameters, same shared
      // scoring path, no tolerance.
      const auto it = std::lower_bound(pool.begin(), pool.end(),
                                       serve_result->items[i]);
      ASSERT_NE(it, pool.end());
      const size_t pool_idx = static_cast<size_t>(it - pool.begin());
      EXPECT_EQ(serve_result->scores[i], eval_scores[pool_idx])
          << "group " << g << " rank " << i;
    }
  }
}

TEST_F(ServeTest, SubsetScoresBitIdenticalToFullCatalog) {
  Result<GroupRep> rep = BuildGroupRep(*frozen_, Members(0));
  ASSERT_TRUE(rep.ok());
  const std::vector<double> full = ScoreAllItems(*frozen_, *rep);

  // An arbitrary strided subset: gathered-GEMM scores must equal the
  // full-matrix scores bit for bit (fixed k-order accumulation).
  std::vector<ItemId> subset;
  for (ItemId v = 1; v < frozen_->num_items; v += 3) subset.push_back(v);
  const std::vector<double> sub = ScoreItems(*frozen_, *rep, subset);
  ASSERT_EQ(sub.size(), subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(sub[i], full[static_cast<size_t>(subset[i])]) << "item "
                                                            << subset[i];
  }
}

// ---------------------------------------------------------------------------
// The serving scan (ScanTopK) against the materialized reference path

constexpr size_t kTile = 512;  // ScanTopK's item tile

/// A hand-built fp64 model whose catalog spans three full scan tiles and
/// a ragged fourth. Every user shares one direction, and the items on
/// both sides of each tile boundary are duplicate rows along it: they are
/// every group's best items, with equal scores straddling tile edges.
FrozenModel MakeMultiTileModel() {
  constexpr int kDim = 24;
  constexpr int kGroupSize = 4;
  constexpr int kUsers = 40;
  constexpr int kItems = 3 * static_cast<int>(kTile) + 77;
  Rng rng(2024);
  auto fill = [&rng](Tensor* t, double lo, double hi) {
    for (size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.Uniform(lo, hi);
  };
  FrozenModel m;
  m.dim = kDim;
  m.group_size = kGroupSize;
  m.num_users = kUsers;
  m.num_items = kItems;
  m.user_emb = Tensor(kUsers, kDim);
  m.item_emb = Tensor(kItems, kDim);
  fill(&m.user_emb, -0.4, 0.4);
  fill(&m.item_emb, -0.4, 0.4);
  std::vector<double> shared(kDim);
  for (double& x : shared) x = rng.Uniform(0.2, 0.5);
  for (int u = 0; u < kUsers; ++u) {
    for (int c = 0; c < kDim; ++c) m.user_emb.at(u, c) += shared[c];
  }
  for (size_t v : {kTile - 1, kTile, 2 * kTile - 1, 2 * kTile,
                   3 * kTile - 1, 3 * kTile}) {
    for (int c = 0; c < kDim; ++c) m.item_emb.at(v, c) = 2.0 * shared[c];
  }
  m.w1 = Tensor(kDim, kDim);
  m.w2 = Tensor(kDim * (kGroupSize - 1), kDim);
  m.bias = Tensor(1, kDim);
  m.vc = Tensor(kDim, 1);
  fill(&m.w1, -0.1, 0.1);
  fill(&m.w2, -0.05, 0.05);
  fill(&m.bias, -0.1, 0.1);
  fill(&m.vc, -0.2, 0.2);
  return m;
}

TEST(ScanTopKTest, BitIdenticalToMaterializedReference) {
  const FrozenModel fp64 = MakeMultiTileModel();
  const size_t n = static_cast<size_t>(fp64.num_items);
  ASSERT_GT(n % kTile, 0u) << "the last tile must be ragged";
  // The trained group size (twice), an ad-hoc size and a single member;
  // every rep serves several queries, as coalesced requests do.
  const std::vector<std::vector<UserId>> groups = {
      {0, 1, 2, 3}, {4, 9}, {17}, {5, 6, 7, 8}};
  // First and last item of every tile, a duplicate and two ids outside
  // the catalog.
  const std::vector<ItemId> edges = {
      0, 511, 512, 1023, 1024, 1535, 1536, static_cast<ItemId>(n - 1),
      512, -3, static_cast<ItemId>(n + 9)};
  const std::vector<size_t> ks = {0, 1, 10, kTile + 1, n + 5};
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  struct Tier {
    QuantType type;
    uint32_t block;
  };
  for (const Tier tier : {Tier{QuantType::kFp64, 0}, Tier{QuantType::kFp32, 0},
                          Tier{QuantType::kFp16, 0}, Tier{QuantType::kInt8, 0},
                          Tier{QuantType::kInt8, 8}}) {
    SCOPED_TRACE(std::string(QuantTypeName(tier.type)) + " block " +
                 std::to_string(tier.block));
    Result<FrozenModel> model = QuantizeFrozenModel(fp64, tier.type,
                                                    tier.block);
    ASSERT_TRUE(model.ok()) << model.status().ToString();

    // Reference: materialize S for every group, reduce, rank.
    std::vector<GroupRep> reps;
    MemberStack stack(*model);
    std::vector<size_t> offsets;
    for (const std::vector<UserId>& members : groups) {
      Result<GroupRep> rep = BuildGroupRep(*model, members);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      offsets.push_back(stack.Append(*rep));
      reps.push_back(std::move(*rep));
    }
    std::vector<double> sp(stack.rows() * n);
    stack.SpLogitsAllItems(sp.data());
    std::vector<std::vector<double>> scores(reps.size(),
                                            std::vector<double>(n));
    for (size_t g = 0; g < reps.size(); ++g) {
      ReduceScores(*model, reps[g], sp.data() + offsets[g] * n, n, n,
                   scores[g].data());
    }

    std::vector<const GroupRep*> rep_ptrs;
    for (const GroupRep& rep : reps) rep_ptrs.push_back(&rep);
    std::vector<ScanQuery> queries;
    for (size_t g = 0; g < reps.size(); ++g) {
      for (size_t k : ks) {
        queries.push_back({.group = g, .k = k, .exclude = {}});
        queries.push_back({.group = g, .k = k, .exclude = edges});
      }
    }
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1,
                             &pool4}) {
      SCOPED_TRACE(pool == nullptr ? 0 : pool->num_threads());
      const std::vector<RankedItems> got =
          ScanTopK(*model, rep_ptrs, queries, pool);
      ASSERT_EQ(got.size(), queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        const ScanQuery& query = queries[q];
        std::vector<ItemId> excluded(query.exclude.begin(),
                                     query.exclude.end());
        std::sort(excluded.begin(), excluded.end());
        const std::vector<size_t> want = TopKIndicesWhere(
            scores[query.group], query.k, [&](size_t i) {
              return !std::binary_search(excluded.begin(), excluded.end(),
                                         static_cast<ItemId>(i));
            });
        ASSERT_EQ(got[q].items.size(), want.size()) << "query " << q;
        ASSERT_EQ(got[q].scores.size(), want.size()) << "query " << q;
        for (size_t r = 0; r < want.size(); ++r) {
          ASSERT_EQ(got[q].items[r], static_cast<ItemId>(want[r]))
              << "query " << q << " rank " << r;
          const double expect = scores[query.group][want[r]];
          ASSERT_EQ(std::memcmp(&got[q].scores[r], &expect, sizeof(double)),
                    0)
              << "query " << q << " rank " << r;
        }
        if (query.exclude.empty() && query.k >= 2) {
          // The data does exercise the tie: one score across the edge.
          EXPECT_EQ(got[q].items[0], static_cast<ItemId>(kTile - 1));
          EXPECT_EQ(got[q].items[1], static_cast<ItemId>(kTile));
          EXPECT_EQ(got[q].scores[0], got[q].scores[1]);
        }
      }
    }
  }
}

TEST(ScanTopKTest, EngineFansMultiTileBatchesOverItsPool) {
  // Batches and synchronous calls scanning a multi-tile catalog on a
  // 4-thread pool answer exactly as a pool-less engine does.
  const FrozenModel model = MakeMultiTileModel();
  ServingEngine solo(&model, {.max_batch = 1, .cache_capacity = 0});
  ThreadPool pool(4);
  ServingEngine pooled(&model, {.max_batch = 8,
                                .batch_deadline_us = 20000,
                                .cache_capacity = 8,
                                .pool = &pool});
  const std::vector<std::vector<UserId>> groups = {
      {0, 1, 2, 3}, {4, 9}, {17}, {0, 1, 2, 3}, {20, 21, 22, 23}};
  const std::vector<ItemId> exclude = {511, 512, 1024};
  std::vector<std::future<Result<TopKResult>>> futures;
  for (const std::vector<UserId>& members : groups) {
    futures.push_back(
        pooled.Submit({.members = members, .k = 10, .exclude_seen = exclude}));
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    const Result<TopKResult> want = solo.TopK(groups[i], 10, exclude);
    const Result<TopKResult> sync = pooled.TopK(groups[i], 10, exclude);
    const Result<TopKResult> batched = futures[i].get();
    ASSERT_TRUE(want.ok() && sync.ok() && batched.ok());
    EXPECT_EQ(sync->items, want->items) << "group " << i;
    EXPECT_EQ(sync->scores, want->scores) << "group " << i;
    EXPECT_EQ(batched->items, want->items) << "group " << i;
    EXPECT_EQ(batched->scores, want->scores) << "group " << i;
  }
}

TEST_F(ServeTest, BatchedSubmitBitIdenticalToSoloTopK) {
  // Solo reference results, one engine per mode so counters stay clean.
  ServingEngine solo(frozen_, {.max_batch = 1, .cache_capacity = 0});
  ThreadPool pool(2);
  ServingEngine batched(frozen_, {.max_batch = 8,
                                  .batch_deadline_us = 20000,
                                  .cache_capacity = 16,
                                  .pool = &pool});

  const int num_groups = dataset_->groups.num_groups();
  const size_t requests = std::min<size_t>(8, static_cast<size_t>(num_groups));
  std::vector<Result<TopKResult>> want;
  for (size_t i = 0; i < requests; ++i) {
    want.push_back(solo.TopK(Members(static_cast<GroupId>(i)), 7));
    ASSERT_TRUE(want.back().ok());
  }

  // Submit all requests before the deadline expires so they coalesce
  // into stacked GEMMs; row position within the batch must not change a
  // single score bit.
  std::vector<std::future<Result<TopKResult>>> futures;
  for (size_t i = 0; i < requests; ++i) {
    futures.push_back(batched.Submit(
        {.members = Members(static_cast<GroupId>(i)), .k = 7,
         .exclude_seen = {}}));
  }
  for (size_t i = 0; i < requests; ++i) {
    Result<TopKResult> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->items.size(), want[i]->items.size());
    for (size_t r = 0; r < got->items.size(); ++r) {
      EXPECT_EQ(got->items[r], want[i]->items[r]) << "req " << i;
      EXPECT_EQ(got->scores[r], want[i]->scores[r]) << "req " << i;
    }
  }
  EXPECT_EQ(batched.requests_served(), requests);
  // Coalescing must actually have happened (fewer batches than requests).
  EXPECT_LT(batched.batches_run(), requests);
}

TEST_F(ServeTest, DuplicateGroupsInOneBatchCoalesceBitIdentically) {
  ServingEngine solo(frozen_, {.max_batch = 1, .cache_capacity = 0});
  ServingEngine batched(frozen_, {.max_batch = 8,
                                  .batch_deadline_us = 20000,
                                  .cache_capacity = 0});

  // Same canonical group six times — permuted members and differing k /
  // exclusions must not defeat the dedup or change any score bit.
  std::vector<UserId> members = Members(1);
  const Result<TopKResult> want = solo.TopK(members, 6);
  ASSERT_TRUE(want.ok());

  std::vector<std::future<Result<TopKResult>>> futures;
  for (int i = 0; i < 6; ++i) {
    TopKRequest r;
    r.members = members;
    if (i % 2 == 1) std::reverse(r.members.begin(), r.members.end());
    r.k = 6;
    if (i == 5) r.exclude_seen = {want->items[0]};
    futures.push_back(batched.Submit(std::move(r)));
  }
  for (int i = 0; i < 6; ++i) {
    Result<TopKResult> got = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const size_t offset = i == 5 ? 1 : 0;  // excluded the top item
    ASSERT_GE(want->items.size(), got->items.size());
    for (size_t r = 0; r + offset < want->items.size(); ++r) {
      EXPECT_EQ(got->items[r], want->items[r + offset]) << "req " << i;
      EXPECT_EQ(got->scores[r], want->scores[r + offset]) << "req " << i;
    }
  }
  // All six shared one rep's GEMM rows and reduce.
  EXPECT_EQ(batched.batches_run(), 1u);
  EXPECT_EQ(batched.coalesced_requests(), 5u);
}

// ---------------------------------------------------------------------------
// Ad-hoc groups and edge cases serving exposes

TEST_F(ServeTest, MemberOrderAndDuplicatesDoNotChangeScores) {
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 0});
  std::vector<UserId> members = Members(1);
  Result<TopKResult> canonical = engine.TopK(members, 10);
  ASSERT_TRUE(canonical.ok());

  // Reversed order.
  std::vector<UserId> reversed(members.rbegin(), members.rend());
  Result<TopKResult> from_reversed = engine.TopK(reversed, 10);
  ASSERT_TRUE(from_reversed.ok());
  EXPECT_EQ(from_reversed->items, canonical->items);
  EXPECT_EQ(from_reversed->scores, canonical->scores);

  // Duplicated members.
  std::vector<UserId> dup = members;
  dup.insert(dup.end(), members.begin(), members.end());
  dup.push_back(members.front());
  Result<TopKResult> from_dup = engine.TopK(dup, 10);
  ASSERT_TRUE(from_dup.ok());
  EXPECT_EQ(from_dup->items, canonical->items);
  EXPECT_EQ(from_dup->scores, canonical->scores);
}

TEST_F(ServeTest, AdHocGroupsOfUntrainedSizesWork) {
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 4});
  // A never-seen member combination of a size != the trained group size:
  // the W2 peer term is dropped, the rest of the attention stays.
  ASSERT_GE(frozen_->num_users, 3);
  std::vector<UserId> trio = {0, static_cast<UserId>(frozen_->num_users / 2),
                              static_cast<UserId>(frozen_->num_users - 1)};
  ASSERT_NE(static_cast<int>(trio.size()), frozen_->group_size);
  Result<TopKResult> r = engine.TopK(trio, 5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 5u);
}

TEST_F(ServeTest, SingleMemberGroupScoresAreDotProducts) {
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 0});
  const UserId u = 3;
  Result<TopKResult> r = engine.TopK(std::vector<UserId>{u}, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 4u);
  // Softmax over one member is exactly 1, so the score reduces to
  // <u_rep, v_rep>. The reference dot product goes through the same GEMM
  // kernel (1x1 call) because the dispatched ISA variant may contract
  // mul+add into FMA — a plain C++ loop here would differ by an ULP.
  const size_t d = static_cast<size_t>(frozen_->dim);
  for (size_t i = 0; i < r->items.size(); ++i) {
    double dot = 0.0;
    kernels::Gemm(false, true, 1, 1, d,
                  frozen_->user_emb.data() + static_cast<size_t>(u) * d, d,
                  frozen_->item_emb.data() +
                      static_cast<size_t>(r->items[i]) * d,
                  d, &dot, 1);
    EXPECT_EQ(r->scores[i], dot) << "rank " << i;
  }
}

TEST_F(ServeTest, KLargerThanCatalogReturnsEverythingRanked) {
  // Up to the wire's u32 ceiling, through both paths: k sizes no
  // allocation on its own, so an untrusted k cannot exhaust memory.
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 0});
  for (size_t k : {static_cast<size_t>(frozen_->num_items) * 10,
                   size_t{UINT32_MAX}}) {
    Result<TopKResult> solo = engine.TopK(Members(0), k);
    Result<TopKResult> queued =
        engine.Submit({.members = Members(0), .k = k, .exclude_seen = {}})
            .get();
    for (const Result<TopKResult>* r : {&solo, &queued}) {
      ASSERT_TRUE(r->ok()) << r->status().ToString();
      EXPECT_EQ((*r)->items.size(), static_cast<size_t>(frozen_->num_items));
      for (size_t i = 1; i < (*r)->scores.size(); ++i) {
        EXPECT_GE((*r)->scores[i - 1], (*r)->scores[i])
            << "not descending at " << i;
      }
    }
    EXPECT_EQ(queued->items, solo->items);
  }
}

TEST_F(ServeTest, ExclusionFiltersAtRankTimeWithoutChangingScores) {
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 4});
  const std::vector<UserId> members = Members(2);

  // Empty exclusion list is the baseline (and a valid input).
  Result<TopKResult> all = engine.TopK(members, 1000, {});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->items.size(), static_cast<size_t>(frozen_->num_items));

  // Exclude the current top 3: the new ranking must equal the old one
  // with those items deleted — same scores, same relative order.
  std::vector<ItemId> exclude(all->items.begin(), all->items.begin() + 3);
  Result<TopKResult> rest = engine.TopK(members, 1000, exclude);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->items.size(),
            static_cast<size_t>(frozen_->num_items) - exclude.size());
  size_t j = 0;
  for (size_t i = 0; i < all->items.size(); ++i) {
    if (i < 3) continue;  // the excluded prefix
    ASSERT_LT(j, rest->items.size());
    EXPECT_EQ(rest->items[j], all->items[i]);
    EXPECT_EQ(rest->scores[j], all->scores[i]);
    ++j;
  }
}

TEST_F(ServeTest, InvalidRequestsFailCleanly) {
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 0});
  EXPECT_FALSE(engine.TopK({}, 5).ok());
  EXPECT_FALSE(
      engine.TopK(std::vector<UserId>{frozen_->num_users}, 5).ok());
  EXPECT_FALSE(engine.TopK(std::vector<UserId>{-1}, 5).ok());

  // Through the batched path too: the future resolves with the error.
  Result<TopKResult> via_queue =
      engine.Submit({.members = {}, .k = 5, .exclude_seen = {}}).get();
  EXPECT_FALSE(via_queue.ok());
}

TEST_F(ServeTest, CacheHitsAreReportedAndBitIdentical) {
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 8});
  const std::vector<UserId> members = Members(3);
  Result<TopKResult> first = engine.TopK(members, 6);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);

  // Same set, different order: must hit (canonical key) and return the
  // same bits.
  std::vector<UserId> shuffled(members.rbegin(), members.rend());
  Result<TopKResult> second = engine.TopK(shuffled, 6);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->items, first->items);
  EXPECT_EQ(second->scores, first->scores);
  EXPECT_EQ(engine.cache()->hits(), 1u);
  EXPECT_EQ(engine.cache()->misses(), 1u);
}

// ---------------------------------------------------------------------------
// Freeze determinism

TEST_F(ServeTest, FreezingTwiceIsByteIdentical) {
  // A fresh model with the same seed/config freezes to the same bytes:
  // eval trees are seeded per node, so artifact content cannot depend on
  // scoring history or map iteration order.
  KgagConfig config;
  config.propagation.dim = 16;
  config.propagation.depth = 2;
  config.propagation.sample_size = 4;
  config.propagation.final_tanh = false;
  config.eval_tree_samples = 2;
  config.seed = 77;
  auto model = KgagModel::Create(dataset_, config);
  ASSERT_TRUE(model.ok());
  Result<FrozenModel> again = FreezeKgagModel(model->get());
  ASSERT_TRUE(again.ok());
  const std::string dir = TestTmpDir("serve_freeze_twice");
  EXPECT_EQ(SavedBytes(*frozen_, dir + "/a.srv"),
            SavedBytes(*again, dir + "/b.srv"));
}

// ---------------------------------------------------------------------------
// Quantized artifacts (DESIGN.md §11)

TEST_F(ServeTest, QuantizedArtifactCorruptionIsRejected) {
  Result<FrozenModel> q =
      QuantizeFrozenModel(*frozen_, QuantType::kInt8, 0);
  ASSERT_TRUE(q.ok());
  ExpectCorruptionRejected(*q, TestTmpDir("serve_corrupt_int8"));
}

TEST_F(ServeTest, QuantizeFrozenModelValidatesInput) {
  // Only fp64 models quantize; re-quantizing and absurd blocks fail.
  Result<FrozenModel> q =
      QuantizeFrozenModel(*frozen_, QuantType::kInt8, 0);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(QuantizeFrozenModel(*q, QuantType::kFp16, 0).ok());
  EXPECT_FALSE(
      QuantizeFrozenModel(*frozen_,
                          QuantType::kInt8,
                          static_cast<uint32_t>(frozen_->dim) + 1)
          .ok());
  // kFp64 is the identity: same bytes out.
  Result<FrozenModel> same =
      QuantizeFrozenModel(*frozen_, QuantType::kFp64, 0);
  ASSERT_TRUE(same.ok());
  const std::string dir = TestTmpDir("serve_quant_identity");
  const std::string path = dir + "/a.srv";
  EXPECT_EQ(SavedBytes(*frozen_, path), SavedBytes(*same, dir + "/b.srv"));
  // A mapped model is not quantized in place.
  Result<FrozenModel> mapped = LoadFrozenModelMmap(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(QuantizeFrozenModel(*mapped, QuantType::kFp16, 0).ok());
}

TEST_F(ServeTest, QuantizedServingMatchesQuantizedEvalBitwise) {
  // The eval/serve shared-path contract holds per precision tier: the
  // ServingEngine and FrozenGroupScorer see identical scores on the SAME
  // quantized artifact (across-tier differences are expected and gated
  // by tools/quant_report instead).
  for (QuantType type :
       {QuantType::kFp32, QuantType::kFp16, QuantType::kInt8}) {
    Result<FrozenModel> q = QuantizeFrozenModel(*frozen_, type, 0);
    ASSERT_TRUE(q.ok());
    ServingEngine::Options opts;
    opts.max_batch = 4;
    ServingEngine engine(&*q, opts);
    const GroupId g = 1;
    Result<GroupRep> rep = BuildGroupRep(*q, Members(g));
    ASSERT_TRUE(rep.ok());
    const std::vector<double> all = ScoreAllItems(*q, *rep);
    // Subset scoring agrees with full-catalog scoring bit-for-bit.
    std::vector<ItemId> subset = {0, 3, 7, 11};
    const std::vector<double> sub = ScoreItems(*q, *rep, subset);
    for (size_t i = 0; i < subset.size(); ++i) {
      ASSERT_EQ(sub[i], all[static_cast<size_t>(subset[i])])
          << QuantTypeName(type);
    }
    // Engine TopK returns the catalog argmaxes of the same score vector.
    Result<TopKResult> resp = engine.TopK(Members(g), 5);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    const std::vector<size_t> want =
        TopKIndices(std::span<const double>(all), 5);
    ASSERT_EQ(resp->items.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(resp->items[i], static_cast<ItemId>(want[i]))
          << QuantTypeName(type);
      EXPECT_EQ(resp->scores[i], all[want[i]]) << QuantTypeName(type);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving observability: failure counters, cache gauge, request-scoped
// spans, SLO wiring and the /statusz JSON (DESIGN.md §12).

uint64_t CounterValue(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::Global().FindCounter(name);
  return c != nullptr ? c->Value() : 0;
}

/// Observations in the serving latency histogram so far. Creating the
/// series here (it is otherwise registered by the first served request)
/// lets a test take a "before" snapshot in any test order.
obs::HdrSnapshot LatencySnapshot() {
  return obs::MetricsRegistry::Global()
      .GetHdrHistogram("serve.request_latency_us")
      ->Snapshot();
}

TEST_F(ServeTest, FailedRequestsCountButStayOutOfLatencyStats) {
  const uint64_t failed_before = CounterValue("serve.requests.failed");
  const obs::HdrSnapshot latency_before = LatencySnapshot();
  ServingEngine::Options opts;
  opts.max_batch = 4;
  opts.batch_deadline_us = 0;
  opts.cache_capacity = 0;
  opts.slo_objectives = {{"avail", /*target=*/0.5,
                          /*latency_threshold_us=*/0.0,
                          /*count_errors=*/true}};
  ServingEngine engine(frozen_, opts);
  ASSERT_NE(engine.slo(), nullptr);

  EXPECT_FALSE(engine.TopK({}, 5).ok());
  Result<TopKResult> via_queue =
      engine.Submit({.members = {}, .k = 5, .exclude_seen = {}}).get();
  EXPECT_FALSE(via_queue.ok());

  // Failed requests never count as served and never enter the latency
  // histogram — a 2us rejection must not drag p50 down.
  EXPECT_EQ(engine.requests_served(), 0u);
  obs::HdrSnapshot window = LatencySnapshot();
  window.Subtract(latency_before);
#if KGAG_OBS_ACTIVE
  EXPECT_EQ(window.total, 0u);
  EXPECT_EQ(CounterValue("serve.requests.failed") - failed_before, 2u);
#else
  (void)failed_before;
#endif

  // Served requests, through both paths, each add exactly one
  // observation: the window holds precisely the requests it served.
  constexpr size_t kServed = 5;
  ASSERT_TRUE(engine.TopK(Members(0), 5).ok());
  std::vector<std::future<Result<TopKResult>>> futures;
  for (size_t i = 1; i < kServed; ++i) {
    futures.push_back(engine.Submit(
        {.members = Members(static_cast<GroupId>(i)), .k = 5,
         .exclude_seen = {}}));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(engine.requests_served(), kServed);
  window = LatencySnapshot();
  window.Subtract(latency_before);
  EXPECT_EQ(window.total, KGAG_OBS_ACTIVE ? kServed : 0u);

  // ...but the failures DO burn SLO error budget.
  const auto states = engine.slo()->Evaluate();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].short_window.bad, 2u);
  EXPECT_EQ(states[0].short_window.total, 2u + kServed);
}

TEST_F(ServeTest, ShutdownRejectsNewSubmissions) {
  ServingEngine engine(frozen_, {.max_batch = 4, .batch_deadline_us = 0,
                                 .cache_capacity = 4});
  Result<TopKResult> before_stop =
      engine.Submit({.members = Members(0), .k = 3, .exclude_seen = {}})
          .get();
  ASSERT_TRUE(before_stop.ok()) << before_stop.status().ToString();

  const uint64_t rejected_before = CounterValue("serve.requests.rejected");
  engine.Shutdown();
  engine.Shutdown();  // idempotent
  Result<TopKResult> after_stop =
      engine.Submit({.members = Members(0), .k = 3, .exclude_seen = {}})
          .get();
  EXPECT_FALSE(after_stop.ok());
#if KGAG_OBS_ACTIVE
  EXPECT_EQ(CounterValue("serve.requests.rejected") - rejected_before, 1u);
#else
  (void)rejected_before;
#endif
  // The synchronous path needs no dispatcher and keeps answering.
  EXPECT_TRUE(engine.TopK(Members(0), 3).ok());
  EXPECT_EQ(engine.requests_served(), 2u);
}

#if KGAG_OBS_ACTIVE

TEST_F(ServeTest, SynchronousTopKObservesOneBatchOfOne) {
  ServingEngine engine(frozen_, {.max_batch = 4, .cache_capacity = 0});
  obs::HdrHistogram* sizes =
      obs::MetricsRegistry::Global().GetHdrHistogram("serve.batch_size");
  const obs::HdrSnapshot before = sizes->Snapshot();
  ASSERT_TRUE(engine.TopK(Members(0), 5).ok());
  obs::HdrSnapshot window = sizes->Snapshot();
  window.Subtract(before);
  EXPECT_EQ(window.total, 1u);
  EXPECT_EQ(window.sum, 1.0);
  EXPECT_EQ(window.counts[obs::HdrHistogram::BucketFor(1.0)], 1u);
}

TEST_F(ServeTest, CacheSizeGaugeTracksOccupancy) {
  ServingEngine engine(frozen_, {.max_batch = 1, .cache_capacity = 4});
  // Three distinct single-member groups: three cache entries.
  for (UserId u : {UserId{0}, UserId{1}, UserId{2}}) {
    ASSERT_TRUE(engine.TopK(std::vector<UserId>{u}, 3).ok());
  }
  const obs::Gauge* size_gauge =
      obs::MetricsRegistry::Global().FindGauge("serve.cache.size");
  ASSERT_NE(size_gauge, nullptr);
  EXPECT_DOUBLE_EQ(size_gauge->Value(), 3.0);
  engine.cache()->Clear();
  EXPECT_DOUBLE_EQ(size_gauge->Value(), 0.0);
}

TEST_F(ServeTest, RequestScopedSpansShareOneIdAcrossThreads) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  ServingEngine engine(frozen_, {.max_batch = 4, .batch_deadline_us = 1000,
                                 .cache_capacity = 4});
  Result<TopKResult> r =
      engine.Submit({.members = Members(0), .k = 3, .exclude_seen = {}})
          .get();
  // .get() returns at set_value, but the dispatcher's serve.reply span
  // records at scope exit just after — join the dispatcher so every
  // span is flushed before collecting.
  engine.Shutdown();
  rec.SetEnabled(false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const std::vector<obs::TraceEvent> events = rec.Collect();
  // The submit span carries the request's id; every other span of that
  // request — including those recorded on the dispatcher thread — must
  // carry the same one.
  uint64_t req = 0;
  uint32_t submit_tid = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.name) == "serve.submit") {
      req = e.req;
      submit_tid = e.tid;
    }
  }
  ASSERT_NE(req, 0u) << "serve.submit span missing or unlinked";

  std::unordered_set<std::string_view> linked_names;
  bool crossed_thread = false;
  for (const obs::TraceEvent& e : events) {
    if (e.req == req) {
      linked_names.insert(e.name);
      crossed_thread = crossed_thread || e.tid != submit_tid;
    }
  }
  for (const char* name : {"serve.submit", "serve.queue_wait",
                           "serve.rep_build", "serve.topk", "serve.reply"}) {
    EXPECT_TRUE(linked_names.count(name) > 0) << "missing span: " << name;
  }
  EXPECT_TRUE(crossed_thread)
      << "linked spans must span the submitter/dispatcher thread boundary";
  // The batch envelope is batch-scoped, not request-scoped.
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.name) == "serve.batch") {
      EXPECT_EQ(e.req, 0u);
    }
  }
  rec.Clear();
}

#endif  // KGAG_OBS_ACTIVE

TEST_F(ServeTest, StatusJsonReportsEngineAndSloState) {
  ServingEngine::Options opts;
  opts.max_batch = 2;
  opts.cache_capacity = 8;
  opts.slo_objectives = obs::DefaultServingObjectives();
  ServingEngine engine(frozen_, opts);
  ASSERT_TRUE(engine.TopK(Members(0), 3).ok());

  const std::string json = engine.StatusJson();
  EXPECT_NE(json.find("\"requests_served\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_batch\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_p99\""), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);

  // Without objectives there is no tracker and no slo section.
  ServingEngine plain(frozen_, {.max_batch = 1, .cache_capacity = 0});
  EXPECT_EQ(plain.slo(), nullptr);
  EXPECT_EQ(plain.StatusJson().find("\"slo\""), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace kgag
