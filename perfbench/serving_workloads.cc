// bigworld_scan and hot_groups: one serving stack, two request mixes.
//
// Both run: set-up (artifact build -> map -> engine -> server) repeated
// `setups` times with the median reported; an untimed warm-up; an
// open-loop Poisson phase at a fixed rate; a closed-loop phase at a fixed
// number of outstanding requests; republish cycles (artifact rewritten,
// re-mapped with CRC verification, hot-swapped, first request answered);
// and the output check that re-scores a seeded sample of wire responses
// in process.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>

#include "common/rng.h"
#include "data/synthetic/bigworld.h"
#include "serve/bigworld_freeze.h"
#include "serve/frozen_scorer.h"
#include "serving.h"
#include "tensor/kernels.h"
#include "workloads.h"

namespace perfbench {

namespace serve = kgag::serve;
using kgag::ItemId;
using kgag::UserId;

namespace {

/// Fixed parameters of one serving workload.
struct ServingSpec {
  const char* name;
  int setups;               ///< set-up repetitions (median reported)
  double open_rps;          ///< offered Poisson rate of the open loop
  double open_share;        ///< share of --seconds spent in the open loop
  double closed_share;      ///< share of --seconds spent in the closed loop
  size_t window;            ///< outstanding requests in the closed loop
  int64_t deadline_us;      ///< relative deadline stamped on every request
  size_t capture_every;     ///< every n-th response is re-scored
  size_t closed_requests;   ///< closed-loop request list length (cycled)
  size_t replay_batches;    ///< scorer-replay batches (traced runs)
  int republish_cycles;
  double warmup_s;
  /// Closed-loop throughput: median completions/s over bins of this
  /// width, or completions / phase wall time when 0.
  double throughput_bin_s;
  size_t eval_groups;  ///< sampled groups scored per eval_s pass
};

using Requests = std::vector<serve::TopKRequest>;
/// Builds the served artifact at a path.
using FreezeFn = std::function<kgag::Status(const std::string&)>;
/// Requests [begin, begin + n) of the workload's deterministic stream.
using RequestFn = std::function<Requests(size_t begin, size_t n)>;

std::string RunDir() {
  const std::filesystem::path dir = ".perfbench_run";
  std::filesystem::create_directories(dir);
  return dir.string();
}

void RecordCommon(const Args& args, const ServingSpec& spec, Result* out) {
  out->Record("workload", spec.name);
  out->Record("seed", static_cast<double>(args.seed));
  out->Record("seconds", args.seconds);
  out->Record("trace", args.trace ? 1.0 : 0.0);
  out->Record("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out->Record("worker_threads", static_cast<double>(WorkerThreads()));
  out->Record("quant_isa_level", kgag::kernels::QuantIsaLevel());
  out->Record("build", "Release -O3, obs on");
  out->Record("max_batch", static_cast<double>(kMaxBatch));
  out->Record("setups", spec.setups);
  out->Record("open_rps", spec.open_rps);
  out->Record("open_share", spec.open_share);
  out->Record("closed_share", spec.closed_share);
  out->Record("closed_window", static_cast<double>(spec.window));
  out->Record("deadline_us", static_cast<double>(spec.deadline_us));
  out->Record("capture_every", static_cast<double>(spec.capture_every));
}

void RunServing(const Args& args, const ServingSpec& spec,
                const FreezeFn& freeze, const RequestFn& make_requests,
                Result* out) {
  RecordCommon(args, spec, out);
  Tracer::Enable(args.trace);
  const std::string dir = RunDir();
  const std::string path = dir + "/" + spec.name + ".srv2";
  const std::string republish_path = dir + "/" + spec.name + ".next.srv2";

  // --- Set-up, repeated; the last stack stays up. ------------------------
  std::vector<double> setup_s, freeze_s, load_s;
  std::unique_ptr<ServerStack> stack;
  for (int s = 0; s < spec.setups; ++s) {
    stack.reset();
    std::filesystem::remove(path);
    const Clock::time_point t0 = Clock::now();
    kgag::Status frozen;
    freeze_s.push_back(Timed("artifact.freeze", [&] { frozen = freeze(path); }));
    if (!frozen.ok()) {
      out->Fail("freeze: " + frozen.ToString());
      return;
    }
    double load = 0.0;
    stack = StartServer(path, &load);
    if (stack == nullptr) {
      out->Fail("server start");
      return;
    }
    load_s.push_back(load);
    setup_s.push_back(SecondsSince(t0));
  }
  const serve::FrozenModel& model = *stack->model;

  LoadOptions lo;
  lo.port = stack->port();
  lo.deadline_us = spec.deadline_us;

  // --- Warm-up (untimed): page cache, first-touch buffers, metrics. -----
  {
    Tracer::Enable(false);
    const Requests warm = make_requests(90'000, 4096);
    auto phase = LoadPhase::ClosedLoop(lo, &warm, 4, spec.warmup_s);
    phase->Start();
    const LoadStats st = phase->Join();
    if (st.ok == 0) {
      out->Fail("warm-up served nothing");
      return;
    }
    Tracer::Enable(args.trace);
  }

  // --- Timed phases. -------------------------------------------------------
  const double open_s = args.seconds * spec.open_share;
  const double closed_s = args.seconds * spec.closed_share;
  const std::vector<double> arrivals =
      PoissonArrivals(spec.open_rps, open_s, args.seed);
  const Requests open_reqs = make_requests(0, arrivals.size());
  const Requests closed_reqs =
      make_requests(arrivals.size(), spec.closed_requests);
  lo.capture_every = spec.capture_every;
  lo.capture_offset = static_cast<size_t>(args.seed % spec.capture_every);

  const EngineWindow w0 = EngineWindow::Take(stack->engine.get());
  LoadStats open;
  {
    Span span("phase.open_loop");
    auto phase = LoadPhase::OpenLoop(lo, &open_reqs, arrivals);
    phase->Start();
    open = phase->Join();
  }
  const EngineWindow w1 = EngineWindow::Take(stack->engine.get());
  LoadStats closed;
  {
    Span span("phase.closed_loop");
    auto phase = LoadPhase::ClosedLoop(lo, &closed_reqs, spec.window, closed_s);
    phase->Start();
    closed = phase->Join();
  }
  const EngineWindow w2 = EngineWindow::Take(stack->engine.get());
  const double resident_mb =
      model.is_mapped()
          ? static_cast<double>(model.mapping->ResidentBytes()) / 1048576.0
          : 0.0;
  out->Count(open.sent + closed.sent, open.failed() + closed.failed());

  // --- Republish cycles: rewrite, re-map with CRC check, swap, serve. ----
  std::vector<double> refresh_s, swap_s, load_crc_s;
  for (int c = 0; c < spec.republish_cycles; ++c) {
    const Clock::time_point t0 = Clock::now();
    Span span("republish");
    kgag::Status saved;
    Timed("artifact.save", [&] {
      saved = serve::SaveFrozenModelV2(model, republish_path);
    });
    serve::MappedArtifact::Options verify;
    verify.verify_crc = true;
    kgag::Result<serve::FrozenModel> next = kgag::Status::Internal("unset");
    load_crc_s.push_back(Timed("artifact.load", [&] {
      next = serve::LoadFrozenModelMmap(republish_path, verify);
    }));
    bool ok = saved.ok() && next.ok();
    if (ok) {
      auto next_ptr =
          std::make_shared<const serve::FrozenModel>(std::move(*next));
      std::string label = "republish-";
      label += std::to_string(c);
      swap_s.push_back(Timed("swap", [&] {
        ok = stack->engine->SwapModel(next_ptr, label).ok();
      }));
      serve::TopKRequest first = open_reqs[static_cast<size_t>(c) % open_reqs.size()];
      ok = ok && stack->engine->Submit(std::move(first)).get().ok();
    }
    refresh_s.push_back(SecondsSince(t0));
    out->Count(1, ok ? 0 : 1);
    if (!ok) out->Fail("republish cycle " + std::to_string(c));
  }

  // --- Output check: captured wire responses re-scored in process. -------
  std::vector<std::pair<const serve::TopKRequest*, const Captured*>> sample;
  for (const Captured& cap : open.captured) {
    sample.push_back({&open_reqs[cap.index % open_reqs.size()], &cap});
  }
  for (const Captured& cap : closed.captured) {
    sample.push_back({&closed_reqs[cap.index % closed_reqs.size()], &cap});
  }
  uint64_t mismatches = 0;
  Timed("check.rescore", [&] {
    for (const auto& [req, cap] : sample) {
      if (!ResponseMatches(model, *req, *cap)) ++mismatches;
    }
  });
  // eval_s: offline scoring of a fixed number of the sampled groups,
  // seven passes, median.
  std::vector<double> eval_s;
  const size_t eval_n = std::min(spec.eval_groups, sample.size());
  for (int pass = 0; pass < 7; ++pass) {
    eval_s.push_back(Timed("eval.rescore", [&] {
      for (size_t i = 0; i < eval_n; ++i) {
        if (!ResponseMatches(model, *sample[i].first, *sample[i].second)) {
          ++mismatches;
        }
      }
    }));
  }
  if (eval_n < spec.eval_groups) {
    out->Fail("only " + std::to_string(eval_n) + " responses sampled; eval_s needs " +
              std::to_string(spec.eval_groups));
  }
  const size_t checked = sample.size() + 7 * eval_n;
  out->Count(checked, mismatches);
  if (checked == 0) out->Fail("no responses captured for the check");
  RecordOutcomes(open, closed, mismatches, out);
  if (mismatches > 0) {
    out->Fail(std::to_string(mismatches) + " of " + std::to_string(checked) +
              " responses differ from in-process scoring");
  }
  if (open.latency_ms.size() < 1000) {
    out->Fail("open loop has " + std::to_string(open.latency_ms.size()) +
              " samples; p99 needs at least 1000");
  }
  std::cerr << spec.name << ": open " << open.ok << "/" << open.sent
            << " ok, closed " << closed.ok << "/" << closed.sent
            << " ok, checked " << checked << ", batches "
            << w1.Delta(w0).batches << "\n";

  if (!args.trace) {
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("rss_mb", PeakRssMb(), "MiB");
    out->Metric("throughput_rps",
                spec.throughput_bin_s > 0.0
                    ? MedianRate(closed.completed_s, spec.throughput_bin_s)
                    : static_cast<double>(closed.ok) / closed.wall_s,
                "1/s");
    out->Metric("epoch_s", Median(freeze_s), "s");
    out->Metric("eval_s", Median(eval_s), "s");
    out->Metric("refresh_s", Median(refresh_s), "s");
  } else {
    // Scorer replay in batches of the measured mean size, untraced,
    // traced, untraced: the traced excess is the tracing overhead.
    const EngineWindow open_window = w1.Delta(w0);
    const size_t batch = MeanBatchSize(open_window);
    Tracer::Enable(false);
    const double plain_s =
        ReplayScorer(model, open_reqs, batch, spec.replay_batches).wall_s;
    Tracer::Enable(true);
    const ScorerReplay traced =
        ReplayScorer(model, open_reqs, batch, spec.replay_batches);
    Tracer::Enable(false);
    const double plain2_s =
        ReplayScorer(model, open_reqs, batch, spec.replay_batches).wall_s;
    out->Metric("trace.coverage",
                ReportServingLayers(model, open, open_window, w2.Delta(w0),
                                    open.sent + closed.sent, traced, out),
                "ratio");
    out->Metric("trace.overhead_share",
                2.0 * traced.wall_s / (plain_s + plain2_s) - 1.0, "ratio");
    out->Metric("artifact.freeze_s", Median(freeze_s), "s");
    out->Metric("artifact.load_ms", 1e3 * Median(load_s), "ms");
    out->Metric("artifact.load_crc_ms", 1e3 * Median(load_crc_s), "ms");
    out->Metric("artifact.resident_mb", resident_mb, "MiB");
    out->Metric("swap.swap_us", 1e6 * Median(swap_s), "us");
    PrintSpanTable();
    ZeroMissingLayers(out);
  }
  stack.reset();
  std::filesystem::remove(path);
  std::filesystem::remove(republish_path);
}

}  // namespace

// --- bigworld_scan --------------------------------------------------------

void RunBigworldScan(const Args& args, Result* out) {
  kgag::synthetic::BigWorldSpec world;  // 1M users x 100K items x dim 64
  world.seed = kgag::DeriveStreamSeed(world.seed, 0, 0xB1, args.seed);
  const kgag::synthetic::BigWorldGen gen(world);
  const ServingSpec spec = {
      .name = "bigworld_scan",
      .setups = 3,
      .open_rps = 31.0,
      .open_share = 0.75,
      .closed_share = 0.25,
      .window = 32,
      .deadline_us = 5'000'000,
      .capture_every = 40,
      .closed_requests = 8192,
      .replay_batches = 24,
      .republish_cycles = 2,
      .warmup_s = 1.5,
      .throughput_bin_s = 0.0,
      .eval_groups = 16,
  };
  out->Record("world", "bigworld 1M users x 100K items x dim 64, fp16, KGAGSRV2 mmap");
  const FreezeFn freeze = [&gen](const std::string& path) {
    return serve::FreezeBigWorldV2(gen, serve::BigWorldFreezeOptions{}, path);
  };
  // Every request is a distinct world group: an affine permutation of the
  // group ids (7919 is prime, so coprime to 100000) offset by the seed.
  const uint64_t groups = world.num_groups;
  const uint64_t base = kgag::DeriveStreamSeed(args.seed, 0, 0xB2, 0) % groups;
  const RequestFn requests = [&gen, &args, groups, base,
                              items = world.num_items](size_t begin, size_t n) {
    Requests reqs;
    reqs.reserve(n);
    for (size_t i = begin; i < begin + n; ++i) {
      kgag::Rng rng(kgag::DeriveStreamSeed(args.seed, 0, 0xB3, i));
      serve::TopKRequest r;
      r.members = gen.GroupMembers((base + i * 7919) % groups);
      r.k = 10;
      if (rng.UniformInt(0, 9) < 2) {
        for (int e = 0; e < 4; ++e) {
          r.exclude_seen.push_back(static_cast<ItemId>(
              rng.UniformInt(0, static_cast<int64_t>(items) - 1)));
        }
      }
      reqs.push_back(std::move(r));
    }
    return reqs;
  };
  RunServing(args, spec, freeze, requests, out);
}

// --- hot_groups -------------------------------------------------------------

namespace {

constexpr int kHotUsers = 4096;
constexpr int kHotItems = 4096;
constexpr int kHotDim = 64;
constexpr int kHotGroupSize = 4;
constexpr int kHotSet = 16;

/// A 4096 x 4096 dim-64 catalog with trained-range rep magnitudes, int8
/// per-row quantized. Values come from the seed; the shape is fixed.
kgag::Result<serve::FrozenModel> MakeHotCatalog(uint64_t seed) {
  kgag::Rng rng(kgag::DeriveStreamSeed(seed, 0, 0xC1, 0));
  serve::FrozenModel m;
  m.dim = kHotDim;
  m.group_size = kHotGroupSize;
  m.num_users = kHotUsers;
  m.num_items = kHotItems;
  auto fill = [&rng](kgag::Tensor* t, double lo, double hi) {
    for (size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.Uniform(lo, hi);
  };
  m.user_emb = kgag::Tensor(kHotUsers, kHotDim);
  m.item_emb = kgag::Tensor(kHotItems, kHotDim);
  fill(&m.user_emb, -0.35, 0.35);
  fill(&m.item_emb, -0.35, 0.35);
  m.w1 = kgag::Tensor(kHotDim, kHotDim);
  m.w2 = kgag::Tensor(kHotDim * (kHotGroupSize - 1), kHotDim);
  m.bias = kgag::Tensor(1, kHotDim);
  m.vc = kgag::Tensor(kHotDim, 1);
  fill(&m.w1, -0.1, 0.1);
  fill(&m.w2, -0.05, 0.05);
  fill(&m.bias, -0.1, 0.1);
  fill(&m.vc, -0.2, 0.2);
  return serve::QuantizeFrozenModel(m, kgag::QuantType::kInt8);
}

}  // namespace

void RunHotGroups(const Args& args, Result* out) {
  const ServingSpec spec = {
      .name = "hot_groups",
      .setups = 9,
      .open_rps = 1000.0,
      .open_share = 0.55,
      .closed_share = 0.2,
      .window = 64,
      .deadline_us = 1'000'000,
      .capture_every = 50,
      .closed_requests = 65536,
      .replay_batches = 256,
      .republish_cycles = 15,
      .warmup_s = 1.0,
      .throughput_bin_s = 1.0,
      .eval_groups = 500,
  };
  out->Record("world", "synthetic 4096 users x 4096 items x dim 64, int8, KGAGSRV2 mmap");
  const FreezeFn freeze = [&args](const std::string& path) -> kgag::Status {
    kgag::Result<serve::FrozenModel> m = MakeHotCatalog(args.seed);
    if (!m.ok()) return m.status();
    return serve::SaveFrozenModelV2(*m, path);
  };
  // 16 hot groups of 4 take 80% of traffic; the rest are fresh 2-4
  // member groups; one request in five excludes 4 items.
  std::vector<std::vector<UserId>> hot(kHotSet);
  {
    kgag::Rng rng(kgag::DeriveStreamSeed(args.seed, 0, 0xC2, 0));
    for (auto& g : hot) {
      while (g.size() < static_cast<size_t>(kHotGroupSize)) {
        const auto u = static_cast<UserId>(rng.UniformInt(0, kHotUsers - 1));
        if (std::find(g.begin(), g.end(), u) == g.end()) g.push_back(u);
      }
    }
  }
  const RequestFn requests = [&args, hot](size_t begin, size_t n) {
    Requests reqs;
    reqs.reserve(n);
    for (size_t i = begin; i < begin + n; ++i) {
      kgag::Rng rng(kgag::DeriveStreamSeed(args.seed, 0, 0xC3, i));
      serve::TopKRequest r;
      if (rng.UniformInt(0, 9) < 8) {
        r.members = hot[static_cast<size_t>(rng.UniformInt(0, kHotSet - 1))];
      } else {
        const int64_t size = rng.UniformInt(2, kHotGroupSize);
        for (int64_t m = 0; m < size; ++m) {
          r.members.push_back(
              static_cast<UserId>(rng.UniformInt(0, kHotUsers - 1)));
        }
      }
      r.k = 10;
      if (rng.UniformInt(0, 9) < 2) {
        for (int e = 0; e < 4; ++e) {
          r.exclude_seen.push_back(
              static_cast<ItemId>(rng.UniformInt(0, kHotItems - 1)));
        }
      }
      reqs.push_back(std::move(r));
    }
    return reqs;
  };
  RunServing(args, spec, freeze, requests, out);
}

}  // namespace perfbench
