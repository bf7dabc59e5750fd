// train_refresh: the model lifecycle. KGAG trains with per-epoch
// validation and checkpoints, is evaluated on the test split, then an
// online trainer warm-started from the training checkpoint runs refresh
// cycles (stream events -> fine-tune -> freeze -> publish) whose
// artifacts are mapped and hot-swapped into a live server that answers
// reads the whole time.
#include <cmath>
#include <filesystem>
#include <iostream>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "data/batcher.h"
#include "eval/ranking_evaluator.h"
#include "models/attention.h"
#include "models/kgag_model.h"
#include "models/losses.h"
#include "models/propagation.h"
#include "models/validation.h"
#include "online/online_trainer.h"
#include "online/stream.h"
#include "serve/frozen_scorer.h"
#include "serving.h"
#include "tensor/grad_buffer.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"
#include "workloads.h"

namespace perfbench {

namespace serve = kgag::serve;
namespace online = kgag::online;
using kgag::GroupRecDataset;
using kgag::KgagConfig;
using kgag::KgagModel;

namespace {

constexpr uint64_t kWorldSeed = 777;
constexpr double kWorldScale = 1.0;
constexpr int kColdUsers = 16;
constexpr int kSetups = 5;
constexpr int kEpochs = 5;
/// EvaluateTest runs; eval_s is their mean.
constexpr int kEvalPasses = 2;
constexpr size_t kEventsPerRefresh = 64;
constexpr double kReadRps = 200.0;
/// Shares of --seconds given to the open-loop reads that run beside the
/// refresh cycles and to the closed-loop reads on the refreshed model.
constexpr double kOpenShare = 0.35;
constexpr double kClosedShare = 0.1;
constexpr size_t kClosedWindow = 32;
constexpr int64_t kReadDeadlineUs = 2'000'000;
constexpr size_t kCaptureEvery = 4;
/// Test hit@5 a trained model must beat; random ranking of the test
/// pool scores well below it.
constexpr double kHitFloor = 0.05;

/// The benches' default KGAG cell (dim 16, depth 2, 6 samples, 1600
/// pairs per epoch) with training randomness taken from the seed.
KgagConfig MakeConfig(uint64_t seed, const std::string& ckpt_dir) {
  KgagConfig cfg;
  cfg.propagation.dim = 16;
  cfg.propagation.depth = 2;
  cfg.propagation.sample_size = 6;
  cfg.propagation.final_tanh = false;
  cfg.eval_tree_samples = 4;
  cfg.margin = 0.4;
  cfg.beta = 0.7;
  cfg.pairs_per_epoch = 1600;
  cfg.epochs = kEpochs;
  cfg.seed = 1234 + seed;
  cfg.train_threads = static_cast<int>(WorkerThreads());
  cfg.select_by_validation = true;
  cfg.checkpoint_dir = ckpt_dir;
  return cfg;
}

/// Read traffic: real groups of the world, one request in five with a
/// cold (history-less) member added, k = 10.
std::vector<serve::TopKRequest> MakeReads(const GroupRecDataset& world,
                                          uint64_t seed, size_t begin,
                                          size_t n) {
  std::vector<serve::TopKRequest> reqs;
  reqs.reserve(n);
  const int64_t groups = static_cast<int64_t>(world.groups.num_groups());
  for (size_t i = begin; i < begin + n; ++i) {
    kgag::Rng rng(kgag::DeriveStreamSeed(seed, 0, 0xD2, i));
    serve::TopKRequest r;
    const auto g = static_cast<kgag::GroupId>(rng.UniformInt(0, groups - 1));
    const auto members = world.groups.MembersOf(g);
    r.members.assign(members.begin(), members.end());
    if (rng.UniformInt(0, 4) == 0) {
      r.members.push_back(static_cast<kgag::UserId>(
          world.num_users - 1 - rng.UniformInt(0, kColdUsers - 1)));
    }
    r.k = 10;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

bool AllFinite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return !v.empty();
}

/// Per-batch layer times of the training replay, in seconds.
struct TrainReplay {
  double sample = 0, propagate = 0, attention = 0, loss = 0, backward = 0,
         reduce = 0, optimizer = 0;
  double wall = 0;
  size_t batches = 0;
  size_t batches_per_epoch = 0;
  double LayerSum() const {
    return sample + propagate + attention + loss + backward + reduce +
           optimizer;
  }
};

/// Untimed replay batches that bring tapes and buffers to size first.
constexpr size_t kReplayWarmBatches = 2;

/// Replays `batches` training batches at the epoch's shapes on replica
/// parameters (same graph, dims and batcher), calling the public layer
/// functions the training step is built from — SampleTree,
/// PropagateOnTape, AggregateOnTape, the losses, Tape::Backward,
/// GradBuffer::FlushInto and Adam::Step — in the order TrainEpoch does,
/// with the same fixed example shards.
TrainReplay ReplayTraining(const GroupRecDataset& world, const KgagModel& model,
                           const KgagConfig& cfg, size_t batches) {
  TrainReplay r;
  kgag::ParameterStore store;
  kgag::Rng init(cfg.seed);
  const kgag::CollaborativeKg& ckg = model.ckg();
  const int d = cfg.propagation.dim;
  kgag::Parameter* table =
      store.Create("entity_emb", ckg.graph.num_entities(), d,
                   kgag::Init::kNormal01, &init);
  const kgag::PropagationEngine prop(&ckg.graph, table, &store,
                                     cfg.propagation, &init);
  const kgag::PreferenceAggregator agg(d, world.group_size, cfg.use_sp,
                                       cfg.use_pi, &store, &init);
  kgag::Adam adam(cfg.learning_rate);
  kgag::Batcher batcher(&world, kgag::Batcher::Options{
                                    cfg.batch_size, cfg.user_ratio,
                                    cfg.pairs_per_epoch});
  kgag::Rng batch_rng(cfg.seed + 1);
  batcher.BeginEpoch(&batch_rng);
  r.batches_per_epoch = batcher.BatchesPerEpoch();
  const kgag::EpochStreams streams{cfg.seed, 0};
  const size_t shard_size = std::max<size_t>(1, cfg.train_shard_size);

  struct Shard {
    std::unique_ptr<kgag::Tape> tape;
    std::unique_ptr<kgag::GradBuffer> grads;
  };
  std::vector<Shard> shards;
  auto timed = [](const char* name, double* acc, auto&& fn) {
    Span span(name);
    const Clock::time_point t0 = Clock::now();
    auto v = fn();
    *acc += SecondsSince(t0);
    return v;
  };
  // Propagated representation of `node` with `query` on the tape.
  auto propagate = [&](kgag::Tape* tape, kgag::EntityId node, kgag::Var query,
                       kgag::Rng* rng) {
    const kgag::SampledTree tree =
        timed("train.sample", &r.sample, [&] { return prop.SampleTree(node, rng); });
    return timed("train.propagate", &r.propagate,
                 [&] { return prop.PropagateOnTape(tape, tree, query); });
  };

  Clock::time_point wall0 = Clock::now();
  kgag::MiniBatch batch;
  for (size_t b = 0;
       b < kReplayWarmBatches + batches && batcher.NextBatch(streams, &batch);
       ++b) {
    if (b == kReplayWarmBatches) {
      // Tapes, arenas and gradient buffers are now at steady-state size.
      r = TrainReplay{.batches_per_epoch = r.batches_per_epoch};
      wall0 = Clock::now();
    }
    const size_t n_group = batch.group_triplets.size();
    const size_t n_total = n_group + batch.user_instances.size();
    const size_t num_shards = (n_total + shard_size - 1) / shard_size;
    while (shards.size() < num_shards) {
      Shard s{std::make_unique<kgag::Tape>(true),
              std::make_unique<kgag::GradBuffer>(&store)};
      s.tape->set_grad_sink(s.grads.get());
      shards.push_back(std::move(s));
    }
    for (size_t s = 0; s < num_shards; ++s) {
      kgag::Tape& tape = *shards[s].tape;
      for (size_t e = s * shard_size; e < std::min(n_total, (s + 1) * shard_size);
           ++e) {
        tape.Clear();
        kgag::Var loss;
        if (e < n_group) {
          const kgag::GroupTriplet& t = batch.group_triplets[e];
          kgag::Rng rng = streams.For(0xA1, batch.group_index_base + e);
          const auto members = world.groups.MembersOf(t.group);
          std::vector<size_t> nodes;
          for (kgag::UserId u : members) {
            nodes.push_back(static_cast<size_t>(ckg.UserNode(u)));
          }
          auto score = [&](kgag::ItemId v) {
            const kgag::EntityId item = ckg.ItemEntity(v);
            kgag::Var query = tape.Gather(table, {static_cast<size_t>(item)});
            std::vector<kgag::Var> rows;
            for (size_t node : nodes) {
              rows.push_back(propagate(&tape, static_cast<kgag::EntityId>(node),
                                       query, &rng));
            }
            kgag::Var member_reps = tape.ConcatRows(rows);
            kgag::Var item_query = tape.MeanRows(tape.Gather(table, nodes));
            kgag::Var item_rep = propagate(&tape, item, item_query, &rng);
            kgag::Var group = timed("train.attention", &r.attention, [&] {
              return agg.AggregateOnTape(&tape, member_reps, item_rep);
            });
            return tape.DotAll(group, item_rep);
          };
          kgag::Var pos = score(t.positive);
          kgag::Var neg = score(t.negative);
          loss = timed("train.loss", &r.loss, [&] {
            return tape.ScalarMul(
                kgag::MarginPairLoss(&tape, pos, neg, cfg.margin),
                cfg.beta / static_cast<double>(n_group));
          });
        } else {
          const size_t j = e - n_group;
          const kgag::UserInstance& ui = batch.user_instances[j];
          kgag::Rng rng = streams.For(0xA2, batch.user_instance_base + j);
          const auto user = static_cast<size_t>(ckg.UserNode(ui.user));
          const auto item = static_cast<size_t>(ckg.ItemEntity(ui.item));
          kgag::Var user_emb = tape.Gather(table, {user});
          kgag::Var item_emb = tape.Gather(table, {item});
          kgag::Var user_rep = propagate(
              &tape, static_cast<kgag::EntityId>(user), item_emb, &rng);
          kgag::Var item_rep = propagate(
              &tape, static_cast<kgag::EntityId>(item), user_emb, &rng);
          kgag::Var logit = tape.DotAll(user_rep, item_rep);
          loss = timed("train.loss", &r.loss, [&] {
            return tape.ScalarMul(
                kgag::LogisticLoss(&tape, logit, ui.label),
                (1.0 - cfg.beta) /
                    static_cast<double>(n_total - n_group));
          });
        }
        timed("train.backward", &r.backward, [&] {
          tape.Backward(loss);
          return 0;
        });
      }
    }
    timed("train.reduce", &r.reduce, [&] {
      for (size_t s = 0; s < num_shards; ++s) {
        shards[s].grads->FlushInto();
        shards[s].grads->Reset();
      }
      return 0;
    });
    timed("train.optimizer", &r.optimizer, [&] {
      adam.Step(&store, cfg.l2);
      return 0;
    });
    ++r.batches;
  }
  r.wall = SecondsSince(wall0);
  const double nb = static_cast<double>(std::max<size_t>(1, r.batches));
  for (double* v : {&r.sample, &r.propagate, &r.attention, &r.loss,
                    &r.backward, &r.reduce, &r.optimizer}) {
    *v /= nb;
  }
  return r;
}

/// One published model version and the interval it may have served.
struct Version {
  std::shared_ptr<const serve::FrozenModel> model;
  Clock::time_point from;  ///< swap started
  Clock::time_point until = Clock::time_point::max();  ///< next swap done
};

/// True when the response equals, bit for bit, the answer of one version
/// that was live at some point while the request was in flight.
bool MatchesSomeVersion(const std::vector<Version>& versions,
                        const serve::TopKRequest& request,
                        const Captured& cap) {
  for (const Version& v : versions) {
    if (v.from > cap.received || v.until < cap.sent) continue;
    if (ResponseMatches(*v.model, request, cap)) return true;
  }
  return false;
}

}  // namespace

void RunTrainRefresh(const Args& args, Result* out) {
  out->Record("workload", "train_refresh");
  out->Record("seed", static_cast<double>(args.seed));
  out->Record("seconds", args.seconds);
  out->Record("trace", args.trace ? 1.0 : 0.0);
  out->Record("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out->Record("worker_threads", static_cast<double>(WorkerThreads()));
  out->Record("quant_isa_level", kgag::kernels::QuantIsaLevel());
  out->Record("build", "Release -O3, obs on");
  out->Record("world", "MakeOnlineWorld seed 777 scale 1, 16 cold users");
  out->Record("config", "dim 16, depth 2, 6 samples, 1600 pairs/epoch");
  out->Record("epochs", kEpochs);
  out->Record("eval_passes", kEvalPasses);
  out->Record("events_per_refresh", static_cast<double>(kEventsPerRefresh));
  out->Record("read_rps", kReadRps);
  out->Record("setups", kSetups);
  out->Record("read_open_share", kOpenShare);
  out->Record("read_closed_share", kClosedShare);
  out->Record("read_closed_window", static_cast<double>(kClosedWindow));
  out->Record("read_deadline_us", static_cast<double>(kReadDeadlineUs));
  out->Record("capture_every", static_cast<double>(kCaptureEvery));
  out->Record("hit_floor", kHitFloor);
  Tracer::Enable(args.trace);

  const std::filesystem::path dir =
      std::filesystem::path(".perfbench_run") / "train_refresh";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string ckpt_dir = (dir / "ckpt").string();
  const std::string live_path = (dir / "live.srv2").string();
  const KgagConfig cfg = MakeConfig(args.seed, ckpt_dir);

  // --- Set-up, repeated: world, model, initial artifact, server. --------
  std::vector<double> setup_s;
  std::unique_ptr<GroupRecDataset> world;
  std::unique_ptr<KgagModel> model;
  std::unique_ptr<ServerStack> stack;
  for (int s = 0; s < kSetups; ++s) {
    stack.reset();
    model.reset();
    world.reset();
    const Clock::time_point t0 = Clock::now();
    {
      Span span("setup.world");
      world = std::make_unique<GroupRecDataset>(
          online::MakeOnlineWorld(kWorldSeed, kWorldScale, kColdUsers));
      kgag::Result<std::unique_ptr<KgagModel>> created =
          KgagModel::Create(world.get(), cfg);
      if (!created.ok()) {
        out->Fail("model: " + created.status().ToString());
        return;
      }
      model = std::move(*created);
    }
    kgag::Status published;
    Timed("artifact.freeze", [&] {
      kgag::Result<serve::FrozenModel> frozen =
          serve::FreezeKgagModel(model.get());
      published = frozen.ok() ? serve::SaveFrozenModelV2(*frozen, live_path)
                              : frozen.status();
    });
    if (!published.ok()) {
      out->Fail("initial artifact: " + published.ToString());
      return;
    }
    double load = 0.0;
    stack = StartServer(live_path, &load);
    if (stack == nullptr) {
      out->Fail("server start");
      return;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  std::filesystem::remove_all(ckpt_dir);

  LoadOptions lo;
  lo.port = stack->port();
  lo.deadline_us = kReadDeadlineUs;

  // --- Warm-up (untimed). ---------------------------------------------------
  {
    Tracer::Enable(false);
    const auto warm = MakeReads(*world, args.seed, 1'000'000, 1024);
    auto phase = LoadPhase::ClosedLoop(lo, &warm, 2, 0.5);
    phase->Start();
    if (phase->Join().ok == 0) {
      out->Fail("warm-up served nothing");
      return;
    }
    Tracer::Enable(args.trace);
  }
  const Clock::time_point body0 = Clock::now();

  // --- Fit: epochs with validation and epoch checkpoints. ---------------
  const double fit_s = Timed("train.fit", [&] { model->Fit(); });
  const bool losses_ok = AllFinite(model->epoch_losses());
  out->Count(kEpochs, losses_ok ? 0 : kEpochs);
  if (!losses_ok) out->Fail("non-finite training loss");

  // Publishing the trained model samples every user and item eval tree,
  // so the parallel evaluator below only reads the model's tree cache.
  std::vector<Version> versions;
  versions.push_back({stack->model, body0});
  {
    Span span("publish");
    kgag::Result<serve::FrozenModel> frozen = serve::FreezeKgagModel(model.get());
    if (!frozen.ok()) {
      out->Fail("freeze after fit: " + frozen.status().ToString());
      return;
    }
    auto trained = std::make_shared<const serve::FrozenModel>(std::move(*frozen));
    const Clock::time_point from = Clock::now();
    if (!stack->engine->SwapModel(trained, "fit").ok()) out->Fail("swap fit");
    versions.back().until = Clock::now();
    versions.push_back({trained, from});
  }

  // --- Test evaluation on an evaluator pool. -----------------------------
  kgag::ThreadPool eval_pool(WorkerThreads());
  kgag::RankingEvaluator evaluator(world.get(), 5);
  evaluator.set_thread_pool(&eval_pool);
  kgag::EvalResult test;
  std::vector<double> eval_runs;
  for (int pass = 0; pass < kEvalPasses; ++pass) {
    eval_runs.push_back(
        Timed("eval.test", [&] { test = evaluator.EvaluateTest(model.get()); }));
    const bool eval_ok =
        std::isfinite(test.hit_at_k) && test.hit_at_k > kHitFloor;
    out->Count(1, eval_ok ? 0 : 1);
    if (!eval_ok) {
      out->Fail("test hit@5 " + std::to_string(test.hit_at_k) +
                " is not above the floor " + std::to_string(kHitFloor));
    }
  }
  const double eval_s = Mean(eval_runs);
  out->Record("test_hit_at_5", test.hit_at_k);

  // --- Refresh cycles beside live reads. ----------------------------------
  online::OnlineTrainer::Options topt;
  topt.config = cfg;
  topt.checkpoint_dir = ckpt_dir;
  topt.artifact_path = live_path;
  topt.micro_epochs = 1;
  topt.mmap_layout = true;
  topt.save_checkpoints = true;
  kgag::Result<std::unique_ptr<online::OnlineTrainer>> trainer_or = [&] {
    Span span("online.create");
    const online::InteractionStream stream(
        online::StreamForWorld(*world, kWorldSeed, kColdUsers));
    return online::OnlineTrainer::Create(
        online::MakeOnlineWorld(kWorldSeed, kWorldScale, kColdUsers), stream,
        topt);
  }();
  if (!trainer_or.ok() || !(*trainer_or)->resumed_from_checkpoint()) {
    out->Fail("online trainer did not warm-start from the fit checkpoint");
    return;
  }
  online::OnlineTrainer& trainer = **trainer_or;

  const std::vector<double> arrivals =
      PoissonArrivals(kReadRps, args.seconds * kOpenShare, args.seed);
  const auto open_reqs = MakeReads(*world, args.seed, 0, arrivals.size());
  const auto closed_reqs = MakeReads(*world, args.seed, arrivals.size(), 65536);
  lo.capture_every = kCaptureEvery;
  lo.capture_offset = static_cast<size_t>(args.seed % kCaptureEvery);

  std::vector<double> refresh_s, apply_s, load_s, swap_s, train_ms, freeze_ms;
  uint64_t events = 0, new_edges = 0, refresh_failures = 0;
  bool losses_finite = true;
  serve::MappedArtifact::Options verify;
  verify.verify_crc = true;
  // One refresh cycle: event batch -> fine-tune + freeze + publish ->
  // map with CRC verification -> swap.
  auto refresh_cycle = [&] {
    Span span("refresh");
    const Clock::time_point t0 = Clock::now();
    size_t accepted = 0;
    apply_s.push_back(Timed("online.apply", [&] {
      accepted = trainer.ApplyEvents(kEventsPerRefresh);
    }));
    events += kEventsPerRefresh;
    new_edges += accepted;
    kgag::Result<online::RefreshReport> report = [&] {
      Span s("online.refresh");
      return trainer.Refresh();
    }();
    if (!report.ok()) {
      ++refresh_failures;
      std::cerr << "refresh: " << report.status().ToString() << "\n";
      return;
    }
    losses_finite = losses_finite && AllFinite(report->micro_epoch_losses);
    train_ms.push_back(static_cast<double>(report->train_micros) / 1e3);
    freeze_ms.push_back(static_cast<double>(report->freeze_micros) / 1e3);
    kgag::Result<serve::FrozenModel> next = kgag::Status::Internal("unset");
    load_s.push_back(Timed("artifact.load", [&] {
      next = serve::LoadFrozenModelMmap(live_path, verify);
    }));
    if (!next.ok()) {
      ++refresh_failures;
      std::cerr << "map published artifact: " << next.status().ToString() << "\n";
      return;
    }
    auto ptr = std::make_shared<const serve::FrozenModel>(std::move(*next));
    const Clock::time_point from = Clock::now();
    bool swapped = false;
    std::string label = "v";
    label += std::to_string(report->version);
    swap_s.push_back(Timed("swap", [&] {
      swapped = stack->engine->SwapModel(ptr, label).ok();
    }));
    if (!swapped) {
      ++refresh_failures;
      return;
    }
    versions.back().until = Clock::now();
    versions.push_back({ptr, from});
    refresh_s.push_back(SecondsSince(t0));
  };

  // Refreshes run back to back on this thread while the open-loop reads
  // run on the client threads, until the read schedule is done.
  const EngineWindow w0 = EngineWindow::Take(stack->engine.get());
  LoadStats open;
  {
    Span span("phase.open_loop");
    auto phase = LoadPhase::OpenLoop(lo, &open_reqs, arrivals);
    phase->Start();
    std::atomic<bool> done{false};
    std::thread waiter([&] {
      open = phase->Join();
      done = true;
    });
    while (!done.load()) refresh_cycle();
    waiter.join();
  }
  // Read capacity of the refreshed model, with the trainer idle: reads
  // beside refreshes already show in the open loop, and their closed-loop
  // rate swung by a third between runs.
  const EngineWindow w1 = EngineWindow::Take(stack->engine.get());
  LoadStats closed;
  {
    Span span("phase.closed_loop");
    auto phase = LoadPhase::ClosedLoop(lo, &closed_reqs, kClosedWindow,
                                       args.seconds * kClosedShare);
    phase->Start();
    closed = phase->Join();
  }
  const EngineWindow w2 = EngineWindow::Take(stack->engine.get());
  const double body_s = SecondsSince(body0);

  const size_t cycles = apply_s.size();
  out->Count(cycles, refresh_failures);
  out->Count(open.sent + closed.sent, open.failed() + closed.failed());
  if (!losses_finite) out->Fail("non-finite fine-tuning loss");
  if (refresh_failures > 0) out->Fail("refresh cycle failed");
  if (open.failed() + closed.failed() > 0) {
    out->Fail("reads failed across swaps");
  }
  if (open.latency_ms.size() < 1000) {
    out->Fail("open loop has " + std::to_string(open.latency_ms.size()) +
              " samples; p99 needs at least 1000");
  }

  // --- Reads across swaps: each must equal one live version's answer. ---
  uint64_t mixed = 0;
  for (const Captured& cap : open.captured) {
    if (!MatchesSomeVersion(versions, open_reqs[cap.index % open_reqs.size()], cap)) {
      ++mixed;
    }
  }
  for (const Captured& cap : closed.captured) {
    if (!MatchesSomeVersion(versions, closed_reqs[cap.index % closed_reqs.size()],
                            cap)) {
      ++mixed;
    }
  }
  const size_t checked = open.captured.size() + closed.captured.size();
  out->Count(checked, mixed);
  if (checked == 0) out->Fail("no reads captured for the check");
  RecordOutcomes(open, closed, mixed, out);
  if (mixed > 0) {
    out->Fail(std::to_string(mixed) + " of " + std::to_string(checked) +
              " reads match no single live model version");
  }
  std::cerr << "train_refresh: fit " << fit_s << " s, eval " << eval_s
            << " s (hit@5 " << test.hit_at_k << "), " << cycles
            << " refreshes, reads " << open.ok + closed.ok << "/"
            << open.sent + closed.sent << " ok, checked " << checked << "\n";

  if (!args.trace) {
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("rss_mb", PeakRssMb(), "MiB");
    out->Metric("throughput_rps", MedianRate(closed.completed_s, 1.0), "1/s");
    out->Metric("epoch_s", fit_s / kEpochs, "s");
    out->Metric("eval_s", eval_s, "s");
    out->Metric("refresh_s", Median(refresh_s), "s");
  } else {
    // Training replay at the epoch's shapes: untraced, traced, untraced;
    // the traced excess is the tracing overhead.
    Tracer::Enable(false);
    const double plain_s = ReplayTraining(*world, *model, cfg, 4).wall;
    Tracer::Enable(true);
    const TrainReplay traced = ReplayTraining(*world, *model, cfg, 4);
    Tracer::Enable(false);
    const double plain2_s = ReplayTraining(*world, *model, cfg, 4).wall;
    Tracer::Enable(true);
    // TrainEpoch's own time on fresh replicas, at the workload's thread
    // count and at one thread (the replay's).
    auto epoch_time = [&](int threads) {
      KgagConfig c = cfg;
      c.train_threads = threads;
      c.checkpoint_dir.clear();
      auto replica = KgagModel::Create(world.get(), c);
      if (!replica.ok()) {
        out->Fail("replica: " + replica.status().ToString());
        return 0.0;
      }
      kgag::Rng rng(c.seed + 1);
      return Timed("train.epoch", [&] { (*replica)->TrainEpoch(&rng); });
    };
    const double epoch_s = epoch_time(cfg.train_threads);
    const double epoch_1t_s = epoch_time(1);
    const double per_epoch = static_cast<double>(traced.batches_per_epoch);
    out->Metric("train.batches", per_epoch, "count");
    out->Metric("train.sample_ms", 1e3 * traced.sample * per_epoch, "ms");
    out->Metric("train.propagate_ms", 1e3 * traced.propagate * per_epoch, "ms");
    out->Metric("train.attention_ms", 1e3 * traced.attention * per_epoch, "ms");
    out->Metric("train.loss_ms", 1e3 * traced.loss * per_epoch, "ms");
    out->Metric("train.backward_ms", 1e3 * traced.backward * per_epoch, "ms");
    out->Metric("train.reduce_ms", 1e3 * traced.reduce * per_epoch, "ms");
    out->Metric("train.optimizer_ms", 1e3 * traced.optimizer * per_epoch, "ms");
    out->Metric("train.epoch_s", epoch_s, "s");
    out->Metric("train.epoch_1t_s", epoch_1t_s, "s");
    out->Metric("train.coverage", traced.LayerSum() * per_epoch / epoch_1t_s,
                "ratio");
    out->Metric("trace.overhead_share",
                2.0 * traced.wall / (plain_s + plain2_s) - 1.0, "ratio");

    // Validation as Fit runs it (one eval tree per node), on a replica
    // holding the trained parameters: the first pass samples the trees as
    // epoch 1 does, the second reuses them as later epochs do, and the
    // two are weighted as Fit's epochs are.
    double valid_s = 0.0;
    {
      KgagConfig c = cfg;
      c.eval_tree_samples = cfg.valid_tree_samples;
      c.checkpoint_dir.clear();
      auto replica = KgagModel::Create(world.get(), c);
      if (!replica.ok()) {
        out->Fail("replica: " + replica.status().ToString());
      } else {
        kgag::ParameterStore* to = (*replica)->params();
        for (size_t i = 0; i < to->size(); ++i) {
          to->at(i)->value = model->params()->at(i)->value;
        }
        kgag::ValidationSelector selector(world.get(), to, 5,
                                          cfg.valid_max_interactions);
        const double first =
            Timed("eval.valid", [&] { selector.Observe(replica->get()); });
        const double later =
            Timed("eval.valid", [&] { selector.Observe(replica->get()); });
        valid_s = (first + (kEpochs - 1) * later) / kEpochs;
      }
    }
    // Checkpoint save of the trained state, as Fit and Refresh call it.
    std::vector<double> save_s;
    {
      kgag::ckpt::CheckpointManager mgr({.dir = (dir / "ckpt_probe").string()});
      const kgag::ckpt::TrainingState state = model->CaptureTrainingState(
          kEpochs, false, 0, 0.0, nullptr);
      for (int i = 0; i < 5; ++i) {
        save_s.push_back(Timed("ckpt.save", [&] { (void)mgr.Save(state); }));
      }
    }
    // Test-time group scoring over the test pool.
    const std::vector<kgag::ItemId> pool = world->TestItemPool();
    std::vector<double> score_s;
    for (kgag::GroupId g = 0; g < 64 && g < static_cast<kgag::GroupId>(world->groups.num_groups()); ++g) {
      score_s.push_back(Timed("eval.score_group", [&] {
        const std::vector<double> s = model->ScoreGroup(g, pool);
        asm volatile("" : : "g"(s.data()) : "memory");
      }));
    }
    out->Metric("eval.valid_s", valid_s, "s");
    out->Metric("eval.score_group_ms", 1e3 * Mean(score_s), "ms");
    out->Metric("ckpt.save_ms", 1e3 * Median(save_s), "ms");
    out->Metric("trace.coverage",
                kEpochs * (epoch_s + valid_s + Median(save_s)) / fit_s, "ratio");

    const serve::FrozenModel& live = *stack->engine->model_ref();
    const EngineWindow open_window = w1.Delta(w0);
    const ScorerReplay replay =
        ReplayScorer(live, open_reqs, MeanBatchSize(open_window), 64);
    Tracer::Enable(false);
    (void)ReportServingLayers(live, open, open_window, w2.Delta(w0),
                              open.sent + closed.sent, replay, out);
    out->Metric("artifact.freeze_s", Median(freeze_ms) / 1e3, "s");
    out->Metric("artifact.load_ms", 1e3 * Median(load_s), "ms");
    out->Metric("artifact.load_crc_ms", 1e3 * Median(load_s), "ms");
    out->Metric("artifact.resident_mb",
                live.is_mapped()
                    ? static_cast<double>(live.mapping->ResidentBytes()) / 1048576.0
                    : 0.0,
                "MiB");
    out->Metric("online.refreshes", static_cast<double>(cycles), "count");
    out->Metric("online.apply_ms", 1e3 * Median(apply_s), "ms");
    out->Metric("online.new_edge_share",
                events > 0 ? static_cast<double>(new_edges) / static_cast<double>(events)
                           : 0.0,
                "ratio");
    out->Metric("online.train_ms", Median(train_ms), "ms");
    out->Metric("online.freeze_ms", Median(freeze_ms), "ms");
    out->Metric("swap.swap_us", 1e6 * Median(swap_s), "us");
    out->Record("body_s", body_s);
    PrintSpanTable();
    ZeroMissingLayers(out);
  }
  stack.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
