// Online-world tests (DESIGN.md §15): stream determinism, the DeltaKg
// overlay's merged reads and its compaction-equals-cold-rebuild
// guarantee, the reserved cold-user world, warm-start resume in
// OnlineTrainer, the determinism of published artifacts, and the
// cold-start evaluation mechanics.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "gtest/gtest.h"
#include "models/kgag_model.h"
#include "online/cold_start.h"
#include "online/delta_kg.h"
#include "online/online_trainer.h"
#include "online/stream.h"
#include "serve/frozen_model.h"
#include "serve/frozen_scorer.h"

namespace kgag {
namespace online {
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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

constexpr uint64_t kSeed = 4242;
constexpr int32_t kColdUsers = 8;

GroupRecDataset SmallWorld() {
  return MakeOnlineWorld(kSeed, /*scale=*/0.12, kColdUsers);
}

KgagConfig SmallConfig() {
  KgagConfig cfg;
  cfg.propagation.dim = 8;
  cfg.propagation.depth = 1;
  cfg.propagation.sample_size = 3;
  cfg.propagation.final_tanh = false;
  cfg.epochs = 2;
  cfg.batch_size = 4;
  cfg.pairs_per_epoch = 24;  // micro-epoch-sized training slices
  cfg.eval_tree_samples = 1;
  cfg.select_by_validation = false;
  cfg.seed = 99;
  return cfg;
}

// ---------------------------------------------------------------------------
// InteractionStream

TEST(InteractionStreamTest, EventsArePureFunctionsOfIndex) {
  const GroupRecDataset world = SmallWorld();
  const InteractionStream stream(StreamForWorld(world, kSeed, kColdUsers));
  // Random access, re-reads and an independent copy all agree.
  const InteractionStream copy(stream.spec());
  for (uint64_t i : {0ull, 1ull, 7ull, 999ull, 123456ull}) {
    const StreamEvent a = stream.Event(i);
    const StreamEvent b = copy.Event(i);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.item, b.item);
    EXPECT_EQ(a.index, i);
    EXPECT_GE(a.user, 0);
    EXPECT_LT(a.user, world.num_users);
    EXPECT_GE(a.item, 0);
    EXPECT_LT(a.item, world.num_items);
  }
}

TEST(InteractionStreamTest, ColdFractionShapesTheUserDraw) {
  const GroupRecDataset world = SmallWorld();
  StreamSpec spec = StreamForWorld(world, kSeed, kColdUsers,
                                   /*cold_fraction=*/0.25);
  const InteractionStream stream(spec);
  int cold = 0;
  const int n = 4000;
  for (uint64_t i = 0; i < n; ++i) {
    const StreamEvent ev = stream.Event(i);
    const bool is_cold = ev.user >= spec.cold_user_begin;
    EXPECT_EQ(is_cold, stream.IsColdEvent(i));
    cold += is_cold ? 1 : 0;
  }
  EXPECT_GT(cold, n / 8) << "cold tail starved";
  EXPECT_LT(cold, n / 2) << "cold tail dominates";

  // cold_fraction 0 never draws from the tail.
  spec.cold_fraction = 0.0;
  const InteractionStream warm_only(spec);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_FALSE(warm_only.IsColdEvent(i));
  }
}

TEST(OnlineWorldTest, ReservedColdUsersAreIsolated) {
  const GroupRecDataset world = SmallWorld();
  ASSERT_TRUE(world.Validate().ok());
  const int32_t cold_begin = world.num_users - kColdUsers;
  for (int32_t u = cold_begin; u < world.num_users; ++u) {
    EXPECT_EQ(world.user_item.ItemsOf(u).size(), 0u)
        << "cold user " << u << " has base interactions";
  }
  for (GroupId g = 0; g < world.groups.num_groups(); ++g) {
    for (UserId u : world.groups.MembersOf(g)) {
      EXPECT_LT(u, cold_begin) << "cold user in base group " << g;
    }
  }
}

// ---------------------------------------------------------------------------
// DeltaKg

TEST(DeltaKgTest, MergedReadsSeeOverlayWithoutRebuild) {
  const GroupRecDataset world = SmallWorld();
  auto model = KgagModel::Create(&world, SmallConfig());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const CollaborativeKg& base = (*model)->ckg();
  DeltaKg delta(&base);

  const UserId cold_user = world.num_users - 1;  // isolated in the base
  const ItemId item = 3;
  const EntityId user_node = base.UserNode(cold_user);
  const EntityId item_entity = base.ItemEntity(item);
  const RelationId r = base.interact_relation;
  const RelationId r_inv = r + base.graph.num_relations();

  ASSERT_EQ(base.graph.Degree(user_node), 0u);
  EXPECT_FALSE(delta.HasEdge(user_node, r, item_entity));

  ASSERT_TRUE(delta.AddInteraction(cold_user, item));
  EXPECT_EQ(delta.Degree(user_node), 1u);
  EXPECT_EQ(delta.Degree(item_entity), base.graph.Degree(item_entity) + 1);
  EXPECT_TRUE(delta.HasEdge(user_node, r, item_entity));
  EXPECT_TRUE(delta.HasEdge(item_entity, r_inv, user_node));
  EXPECT_EQ(delta.overlay_edges(), 2u);

  // Base CSR untouched — the overlay is the only thing that grew.
  EXPECT_EQ(base.graph.Degree(user_node), 0u);

  int seen = 0;
  delta.ForEachNeighbor(user_node, [&](const Edge& e) {
    EXPECT_EQ(e.neighbor, item_entity);
    EXPECT_EQ(e.relation, r);
    ++seen;
  });
  EXPECT_EQ(seen, 1);

  // Duplicates (overlay and base) and out-of-range ids are rejected.
  EXPECT_FALSE(delta.AddInteraction(cold_user, item));
  const auto base_pair = world.user_item.ToPairs().front();
  EXPECT_FALSE(delta.AddInteraction(base_pair.row, base_pair.item));
  EXPECT_FALSE(delta.AddInteraction(-1, 0));
  EXPECT_FALSE(delta.AddInteraction(0, world.num_items));
  EXPECT_EQ(delta.overlay_edges(), 2u);
  EXPECT_EQ(delta.added().size(), 1u);
}

TEST(DeltaKgTest, CompactionBitIdenticalToColdRebuild) {
  const GroupRecDataset world = SmallWorld();
  auto model = KgagModel::Create(&world, SmallConfig());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  DeltaKg delta(&(*model)->ckg());

  const InteractionStream stream(StreamForWorld(world, kSeed, kColdUsers));
  std::vector<std::pair<int32_t, int32_t>> base_pairs;
  for (const Interaction& it : world.user_item.ToPairs()) {
    base_pairs.emplace_back(it.row, it.item);
  }
  std::vector<Interaction> merged_raw = world.user_item.ToPairs();
  for (uint64_t i = 0; i < 200; ++i) {
    const StreamEvent ev = stream.Event(i);
    if (delta.AddInteraction(ev.user, ev.item)) {
      merged_raw.push_back(Interaction{ev.user, ev.item});
    }
  }
  ASSERT_GT(delta.added().size(), 0u);

  Result<CollaborativeKg> compacted =
      delta.Compact(world.kg_triples, world.num_entities,
                    world.num_relations, base_pairs);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();

  // Cold rebuild: a dataset that always contained the streamed pairs.
  const InteractionMatrix cold_matrix = InteractionMatrix::FromPairs(
      world.num_users, world.num_items, std::move(merged_raw));
  std::vector<std::pair<int32_t, int32_t>> cold_pairs;
  for (const Interaction& it : cold_matrix.ToPairs()) {
    cold_pairs.emplace_back(it.row, it.item);
  }
  Result<CollaborativeKg> cold = BuildCollaborativeKg(
      world.kg_triples, world.num_entities, world.num_relations,
      world.num_users, world.item_to_entity, cold_pairs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  ASSERT_EQ(compacted->graph.num_entities(), cold->graph.num_entities());
  ASSERT_EQ(compacted->graph.num_edges(), cold->graph.num_edges());
  for (EntityId e = 0; e < compacted->graph.num_entities(); ++e) {
    const std::span<const Edge> a = compacted->graph.Neighbors(e);
    const std::span<const Edge> b = cold->graph.Neighbors(e);
    ASSERT_EQ(a.size(), b.size()) << "degree mismatch at node " << e;
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].neighbor, b[j].neighbor) << "node " << e << " edge " << j;
      ASSERT_EQ(a[j].relation, b[j].relation)
          << "node " << e << " edge " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// OnlineTrainer

TEST(OnlineTrainerTest, WarmStartsFromCheckpointAndPublishes) {
  const std::string dir = TestTmpDir("online_trainer");
  const GroupRecDataset world = SmallWorld();
  const KgagConfig cfg = SmallConfig();

  // Offline phase: a short training run leaves a checkpoint behind.
  {
    auto model = KgagModel::Create(&world, cfg);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    (*model)->FineTuneEpoch();
    ckpt::CheckpointManager mgr({.dir = dir + "/ckpt"});
    ASSERT_TRUE(mgr.Save((*model)->CaptureTrainingState(
                             1, /*mid_epoch=*/false, /*batches_done=*/0,
                             /*partial_loss=*/0.0, /*selector=*/nullptr))
                    .ok());
  }

  OnlineTrainer::Options options;
  options.config = cfg;
  options.checkpoint_dir = dir + "/ckpt";
  options.artifact_path = dir + "/live.srv";
  options.micro_epochs = 1;
  const InteractionStream stream(StreamForWorld(world, kSeed, kColdUsers));
  auto trainer = OnlineTrainer::Create(SmallWorld(), stream, options);
  ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
  EXPECT_TRUE((*trainer)->resumed_from_checkpoint());

  const size_t accepted = (*trainer)->ApplyEvents(64);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ((*trainer)->pending_events(), accepted);
  Result<RefreshReport> report = (*trainer)->Refresh();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->version, 1u);
  EXPECT_EQ(report->new_edges, 2 * accepted);
  ASSERT_EQ(report->micro_epoch_losses.size(), 1u);
  EXPECT_EQ((*trainer)->pending_events(), 0u);

  // The published artifact is loadable and covers the cold tail.
  Result<serve::FrozenModel> live =
      serve::LoadFrozenModelMmap(dir + "/live.srv");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live->num_users, world.num_users);

  // A second refresh keeps consuming the stream where the first stopped.
  const uint64_t cursor = (*trainer)->next_event();
  EXPECT_EQ(cursor, 64u);
  (*trainer)->ApplyEvents(16);
  EXPECT_EQ((*trainer)->next_event(), 80u);
  Result<RefreshReport> second = (*trainer)->Refresh();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->version, 2u);
}

TEST(OnlineTrainerTest, RefreshesAreDeterministic) {
  const std::string dir = TestTmpDir("online_determinism");
  const GroupRecDataset world = SmallWorld();
  const KgagConfig cfg = SmallConfig();
  {
    auto model = KgagModel::Create(&world, cfg);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    (*model)->FineTuneEpoch();
    ckpt::CheckpointManager mgr({.dir = dir + "/ckpt"});
    ASSERT_TRUE(mgr.Save((*model)->CaptureTrainingState(
                             1, false, 0, 0.0, nullptr))
                    .ok());
  }

  const InteractionStream stream(StreamForWorld(world, kSeed, kColdUsers));
  auto run = [&](const std::string& artifact) {
    OnlineTrainer::Options options;
    options.config = cfg;
    options.checkpoint_dir = dir + "/ckpt";
    options.artifact_path = artifact;
    // Both runs must resume the SAME checkpoint: don't let the first
    // run's save advance the directory under the second.
    options.save_checkpoints = false;
    auto trainer = OnlineTrainer::Create(SmallWorld(), stream, options);
    ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
    ASSERT_TRUE((*trainer)->resumed_from_checkpoint());
    (*trainer)->ApplyEvents(48);
    Result<RefreshReport> report = (*trainer)->Refresh();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  };
  run(dir + "/a.srv");
  run(dir + "/b.srv");
  const std::string a = ReadFileBytes(dir + "/a.srv");
  const std::string b = ReadFileBytes(dir + "/b.srv");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same checkpoint + same stream window must publish "
                     "byte-identical artifacts";
}

// ---------------------------------------------------------------------------
// Cold-start evaluation

TEST(ColdStartTest, ScenariosTargetColdUsersDeterministically) {
  const GroupRecDataset world = SmallWorld();
  const InteractionStream stream(StreamForWorld(world, kSeed, kColdUsers));
  const ColdStartScenarios scenarios =
      BuildColdStartScenarios(world, stream, 0, 400, /*max_cases=*/6);
  ASSERT_GT(scenarios.unseen_member.size(), 0u);
  ASSERT_GT(scenarios.adhoc_group.size(), 0u);
  const int32_t cold_begin = world.num_users - kColdUsers;
  std::set<UserId> cold_seen;
  for (const ColdStartCase& c : scenarios.unseen_member) {
    EXPECT_GE(c.cold_user, cold_begin);
    EXPECT_EQ(static_cast<int32_t>(c.members.size()), world.group_size + 1);
    cold_seen.insert(c.cold_user);
  }
  // One case per distinct cold user.
  EXPECT_EQ(cold_seen.size(), scenarios.unseen_member.size());
  for (const ColdStartCase& c : scenarios.adhoc_group) {
    EXPECT_GE(c.cold_user, cold_begin);
    EXPECT_GE(c.members.size(), 2u);
    EXPECT_GE(c.target, 0);
  }
  // Deterministic: a rebuild yields the same cases.
  const ColdStartScenarios again =
      BuildColdStartScenarios(world, stream, 0, 400, 6);
  ASSERT_EQ(again.adhoc_group.size(), scenarios.adhoc_group.size());
  for (size_t i = 0; i < again.adhoc_group.size(); ++i) {
    EXPECT_EQ(again.adhoc_group[i].members,
              scenarios.adhoc_group[i].members);
    EXPECT_EQ(again.adhoc_group[i].target, scenarios.adhoc_group[i].target);
  }
}

TEST(ColdStartTest, EvaluationRanksTargetsOnFrozenArtifacts) {
  const GroupRecDataset world = SmallWorld();
  auto model = KgagModel::Create(&world, SmallConfig());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  Result<serve::FrozenModel> frozen = serve::FreezeKgagModel(model->get());
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

  const InteractionStream stream(StreamForWorld(world, kSeed, kColdUsers));
  const ColdStartScenarios scenarios =
      BuildColdStartScenarios(world, stream, 0, 400, 6);
  ASSERT_GT(scenarios.unseen_member.size(), 0u);

  const size_t k = 10;
  const ColdStartReport report =
      EvaluateColdStart(*frozen, scenarios.unseen_member, k);
  EXPECT_EQ(report.cases, scenarios.unseen_member.size());
  EXPECT_GE(report.mean_rank, 1.0);
  EXPECT_LE(report.mean_rank, static_cast<double>(world.num_items));
  EXPECT_GE(report.hit_at_k, 0.0);
  EXPECT_LE(report.hit_at_k, 1.0);
  EXPECT_GE(report.ndcg_at_k, 0.0);
  EXPECT_LE(report.ndcg_at_k, 1.0);

  const std::string json = ColdStartReportJson(report, k);
  EXPECT_NE(json.find("\"cases\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_at_k\""), std::string::npos);
}

}  // namespace
}  // namespace online
}  // namespace kgag
