// bench_serve: online-serving harness (DESIGN.md §10, §11). Builds a
// frozen artifact, proves the artifact round trip is byte-stable at every
// storage precision (fp64, fp32, fp16, int8 — DESIGN.md §11), then drives
// the same request stream through two ServingEngine configurations per
// precision:
//   naive    max_batch=1  — one GEMM per request (the item table is
//                           streamed from memory once per request)
//   batched  max_batch=16 — the dispatcher coalesces the queue and the
//                           item table is streamed once per BATCH
// and reports bytes-per-entity, throughput and p50/p99 request latency.
// Latency percentiles are exact: the engine records every request's
// micros (Options::record_latency) and the quantiles come from the sorted
// raw samples, not from histogram bucket bounds. Batched and naive
// results are bit-identical by construction (pinned in
// tests/test_serve.cc), so this harness is purely about speed and bytes.
//
// The default workload is serving-scale: a synthetic frozen artifact with
// 24576 users x 24576 items at dim 64 (weights random — throughput does
// not depend on how trained they are) under a popularity-skewed stream.
// --smoke keeps the old toy shape: a real model frozen from the tiny
// synthetic corpus, requests drawn from its trained groups.
//
// Each phase also cross-checks the serving path's HDR latency histogram
// (obs/hdr_histogram.h) against the raw samples: the snapshot delta over
// the timed window must contain exactly the phase's requests, and its
// p50/p99 must agree with the raw-sample nearest-rank percentiles within
// one HDR bucket width. That agreement is part of --acceptance in
// obs-enabled builds.
//
// Usage: bench_serve [--smoke] [--acceptance] [--overhead] [--requests N]
//                    [--out PATH]
//   --smoke       tiny dataset + short request stream (CI wiring check)
//   --acceptance  gate only: every precision's round trip byte-stable,
//                 fp64 batched >= naive, (scaled runs) int8 batched
//                 throughput >= 1.5x fp32 batched, and HDR percentiles
//                 within one bucket of raw; no JSON artifact unless
//                 --out is given
//   --overhead    A/B probe for tools/check_obs_overhead.py: drive the
//                 batched engine over a reduced artifact for >= 0.3s of
//                 wall time and emit {"bench":"bench_serve_overhead",
//                 "obs_enabled", "request_ns", ...}; run once obs-ON and
//                 once obs-OFF
//   --net         open-loop network bench only: spin up an in-process
//                 NetServer (or target --connect) and sweep offered QPS
//                 levels with Poisson arrivals, reporting p50/p99/p999
//                 vs offered rate and the saturation/shed point
//   --connect     HOST:PORT of an external serve_model data plane to
//                 drive instead of the in-process server (--net only)
//   --net_users   member-id bound for --connect request generation
//                 (default 32; ignored in-process where the model's own
//                 user count is used)
//   --requests    requests per phase (default 384, smoke 96; in --net
//                 mode requests per offered-QPS level, default 256,
//                 smoke 48)
//   --out         output path (default ./BENCH_serve.json)
//
// The default (non-smoke, non-acceptance) run also appends a
// "net_open_loop" section to BENCH_serve.json: the same open-loop sweep
// over a real loopback socket against the in-process data plane.
//
// The headline sections are "big_world" and "startup" (DESIGN.md §14):
// a million-entity synthetic world is streamed into a KGAGSRV2 artifact,
// startup cost — artifact map, time-to-first-query, RSS growth, mapping
// residency — is measured in forked single-shot child processes
// (including a second process mapping the same artifact, which rides the
// page cache), the mapped model's TopK scores are checked bit-identical
// to the same world quantized in memory, and the mapped model serves a
// batched request stream. Gates: score bit-identity and every startup
// probe completing.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define KGAG_BENCH_HAS_FORK 1
#else
#define KGAG_BENCH_HAS_FORK 0
#endif

#include "bench_util.h"
#include "common/check.h"
#include "common/file_io.h"
#include "net_client.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/synthetic/bigworld.h"
#include "data/synthetic/standard_datasets.h"
#include "models/kgag_model.h"
#include "ckpt/checkpoint.h"
#include "models/config.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "online/cold_start.h"
#include "online/online_trainer.h"
#include "online/stream.h"
#include "serve/bigworld_freeze.h"
#include "serve/frozen_model.h"
#include "serve/frozen_scorer.h"
#include "serve/net_server.h"
#include "serve/serving_engine.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"

namespace kgag {
namespace {

struct Options {
  bool smoke = false;
  bool acceptance = false;
  bool overhead = false;
  bool net = false;  // open-loop network bench only
  size_t requests = 0;  // 0 = pick by mode
  std::string connect_host;  // --connect HOST:PORT (net mode)
  int connect_port = 0;
  int net_users = 32;  // member-id bound for --connect traffic
  std::string out = "BENCH_serve.json";
};

/// The serving-scale artifact: entity counts and dim chosen so the rep
/// tables dwarf every cache level a request's working set used to fit in
/// at toy scale, which is the regime quantization is for.
constexpr int kScaledUsers = 24576;
constexpr int kScaledItems = 24576;
constexpr int kScaledDim = 64;
constexpr int kScaledGroupSize = 4;

/// Synthesizes a frozen artifact directly — no training, no propagation.
/// Serving throughput depends only on shapes, so random reps measure the
/// same thing a real freeze would, minutes faster.
serve::FrozenModel MakeScaledModel(int num_users = kScaledUsers,
                                   int num_items = kScaledItems) {
  Rng rng(bench::WorldSeed() * 2654435761u + 17);
  serve::FrozenModel m;
  m.dim = kScaledDim;
  m.group_size = kScaledGroupSize;
  m.use_sp = true;
  m.use_pi = true;
  m.num_users = num_users;
  m.num_items = num_items;
  const size_t d = kScaledDim;
  auto fill = [&rng](Tensor* t, double lo, double hi) {
    for (size_t i = 0; i < t->size(); ++i) {
      t->data()[i] = rng.Uniform(lo, hi);
    }
  };
  m.user_emb = Tensor(num_users, d);
  m.item_emb = Tensor(num_items, d);
  // Rep magnitudes in the range trained models land in, so sp logits and
  // softmax temperatures are realistic rather than saturated.
  fill(&m.user_emb, -0.35, 0.35);
  fill(&m.item_emb, -0.35, 0.35);
  m.w1 = Tensor(d, d);
  m.w2 = Tensor(d * (kScaledGroupSize - 1), d);
  m.bias = Tensor(1, d);
  m.vc = Tensor(d, 1);
  fill(&m.w1, -0.1, 0.1);
  fill(&m.w2, -0.05, 0.05);
  fill(&m.bias, -0.1, 0.1);
  fill(&m.vc, -0.2, 0.2);
  return m;
}

/// Deterministic, popularity-skewed request stream over synthetic groups:
/// 60% of traffic hits a 16-group hot set (what the rep cache and
/// in-batch coalescing exploit), the rest draws fresh member sets; a
/// sprinkle of requests carry exclusion lists.
std::vector<serve::TopKRequest> MakeScaledRequests(int num_users,
                                                   int num_items, size_t n) {
  Rng rng(913);
  constexpr int kHotGroups = 16;
  std::vector<std::vector<UserId>> hot(kHotGroups);
  for (auto& g : hot) {
    for (int i = 0; i < kScaledGroupSize; ++i) {
      g.push_back(static_cast<UserId>(rng.UniformInt(0, num_users - 1)));
    }
  }
  std::vector<serve::TopKRequest> reqs;
  reqs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    serve::TopKRequest r;
    if (rng.UniformInt(0, 9) < 6) {
      r.members = hot[static_cast<size_t>(rng.UniformInt(0, kHotGroups - 1))];
    } else {
      const int l = static_cast<int>(rng.UniformInt(2, kScaledGroupSize));
      for (int j = 0; j < l; ++j) {
        r.members.push_back(
            static_cast<UserId>(rng.UniformInt(0, num_users - 1)));
      }
    }
    if (rng.UniformInt(0, 9) < 2) {
      for (int e = 0; e < 4; ++e) {
        r.exclude_seen.push_back(
            static_cast<ItemId>(rng.UniformInt(0, num_items - 1)));
      }
    }
    r.k = 10;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// The smoke-mode stream: requests over a real dataset's trained groups
/// (hot set + ad-hoc membership edits), as the pre-quantization harness
/// shipped.
std::vector<serve::TopKRequest> MakeSmokeRequests(const GroupRecDataset& ds,
                                                  size_t n) {
  Rng rng(913);
  std::vector<serve::TopKRequest> reqs;
  reqs.reserve(n);
  const int num_groups = static_cast<int>(ds.groups.num_groups());
  const int num_hot = std::min(8, num_groups);
  for (size_t i = 0; i < n; ++i) {
    serve::TopKRequest r;
    GroupId g;
    if (rng.UniformInt(0, 9) < 6) {
      g = static_cast<GroupId>(rng.UniformInt(0, num_hot - 1));
    } else {
      g = static_cast<GroupId>(rng.UniformInt(0, num_groups - 1));
    }
    std::span<const UserId> members = ds.groups.MembersOf(g);
    r.members.assign(members.begin(), members.end());
    if (g >= num_hot && rng.UniformInt(0, 9) < 3) {
      const int keep =
          rng.UniformInt(1, static_cast<int>(r.members.size()) - 1);
      r.members.resize(static_cast<size_t>(keep));
    }
    if (rng.UniformInt(0, 9) < 2) {
      for (int e = 0; e < 4; ++e) {
        r.exclude_seen.push_back(static_cast<ItemId>(
            rng.UniformInt(0, static_cast<int>(ds.num_items) - 1)));
      }
    }
    r.k = 10;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// Nearest-rank percentile over the raw per-request samples.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(p * (samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

struct PhaseResult {
  std::string mode;
  size_t requests = 0;
  uint64_t batches = 0;
  double mean_batch = 0.0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  uint64_t coalesced = 0;
  // HDR cross-check: the serve.request_latency_us snapshot delta over
  // the timed window, against the raw samples above. hdr_agrees stays
  // true in obs-disabled builds (nothing recorded, nothing to check).
  uint64_t hdr_count = 0;
  double hdr_p50_us = 0.0;
  double hdr_p99_us = 0.0;
  bool hdr_agrees = true;
};

/// One-bucket-width agreement between an HDR quantile and the raw-sample
/// quantile it mirrors. The +1 covers the integer floor of the unit
/// buckets below 32 (a raw 31.7us sample lands in bucket [31, 31]).
bool HdrWithinOneBucket(double hdr_q, double raw_q) {
  const size_t b = obs::HdrHistogram::BucketFor(raw_q);
  const double width = obs::HdrHistogram::BucketUpperEdge(b) -
                       obs::HdrHistogram::BucketLowerEdge(b) + 1.0;
  return std::abs(hdr_q - raw_q) <= width;
}

/// Submits the whole stream as one burst and waits for every future —
/// the queue depth is what lets the batched dispatcher coalesce.
PhaseResult RunPhase(const std::string& mode, const serve::FrozenModel* model,
                     serve::ServingEngine::Options engine_opts,
                     const std::vector<serve::TopKRequest>& reqs) {
  engine_opts.record_latency = true;
  serve::ServingEngine engine(model, engine_opts);
  // Warm the engine untimed (first-touch metric registration, lazy
  // allocations), then drop those samples.
  for (size_t i = 0; i < std::min<size_t>(reqs.size(), 8); ++i) {
    KGAG_CHECK(engine.Submit(reqs[i]).get().ok());
  }
  engine.cache()->Clear();
  (void)engine.TakeLatencySamples();
  // Window the shared HDR series to exactly this phase's requests: the
  // registry is process-global, so the delta between two snapshots is
  // what this run contributed.
  const obs::HdrHistogram* hdr =
      obs::MetricsRegistry::Global().FindHdrHistogram(
          "serve.request_latency_us");
  obs::HdrSnapshot hdr_before;
  if (hdr != nullptr) hdr_before = hdr->Snapshot();

  std::vector<std::future<Result<serve::TopKResult>>> futures;
  futures.reserve(reqs.size());
  const uint64_t batches_before = engine.batches_run();
  Stopwatch sw;
  for (const serve::TopKRequest& r : reqs) futures.push_back(engine.Submit(r));
  for (auto& f : futures) {
    Result<serve::TopKResult> r = f.get();
    KGAG_CHECK(r.ok()) << r.status().ToString();
  }
  const double secs = sw.ElapsedSeconds();

  PhaseResult out;
  out.mode = mode;
  out.requests = reqs.size();
  out.batches = engine.batches_run() - batches_before;
  out.mean_batch = out.batches == 0
                       ? 0.0
                       : static_cast<double>(reqs.size()) /
                             static_cast<double>(out.batches);
  out.wall_ms = secs * 1e3;
  out.qps = secs == 0.0 ? 0.0 : static_cast<double>(reqs.size()) / secs;
  const std::vector<double> samples = engine.TakeLatencySamples();
  out.p50_us = Percentile(samples, 0.50);
  out.p99_us = Percentile(samples, 0.99);
  if (hdr != nullptr) {
    obs::HdrSnapshot delta = hdr->Snapshot();
    delta.Subtract(hdr_before);
    out.hdr_count = delta.total;
    out.hdr_p50_us = delta.Quantile(0.50);
    out.hdr_p99_us = delta.Quantile(0.99);
    out.hdr_agrees = delta.total == samples.size() &&
                     HdrWithinOneBucket(out.hdr_p50_us, out.p50_us) &&
                     HdrWithinOneBucket(out.hdr_p99_us, out.p99_us);
  }
  out.cache_hits = engine.cache()->hits();
  out.cache_misses = engine.cache()->misses();
  out.cache_hit_rate = engine.cache()->HitRate();
  out.coalesced = engine.coalesced_requests();
  return out;
}

// --- Open-loop network bench (DESIGN.md §13) -----------------------------

/// Offered-load multipliers swept against the calibrated peak rate: three
/// sub-saturation points for the flat part of the latency curve, two
/// overload points where shedding must kick in.
constexpr double kNetLoadLevels[] = {0.3, 0.6, 0.9, 1.2, 1.5};

struct NetReport {
  std::string target;      ///< "in-process" or HOST:PORT
  size_t connections = 0;
  size_t requests_per_level = 0;
  double calibration_qps = 0.0;  ///< burst throughput = capacity estimate
  int64_t deadline_us = 0;       ///< per-request deadline during the sweep
  std::vector<bench::OpenLoopResult> levels;
  bool saturated = false;
  double saturation_offered_qps = 0.0;  ///< first saturated level's rate
};

/// Sweeps offered-QPS levels against a live data plane. Calibration
/// first: the whole burst scheduled at once (offered rate effectively
/// infinite) with no deadline measures peak sustainable throughput.
/// The sweep then stamps every request with a deadline of 20 mean
/// service times — generous at any stable load, but crossed within a
/// couple hundred requests once the offered rate exceeds capacity, so
/// overload shows up as shedding rather than an unbounded queue.
NetReport RunNetSweep(const std::string& host, int port, int32_t pool_users,
                      size_t per_level, bool smoke) {
  NetReport rep;
  rep.connections = 8;
  rep.requests_per_level = per_level;
  const std::vector<serve::TopKRequest> pool =
      bench::MakeNetRequestPool(pool_users, 64, /*seed=*/42);

  bench::OpenLoopOptions level;
  level.host = host;
  level.port = port;
  level.connections = rep.connections;
  level.requests = smoke ? 64 : 128;
  level.offered_qps = 1e9;  // the whole burst due at t=0
  level.deadline_us = 0;
  level.seed = 1;
  const bench::OpenLoopResult calib = bench::RunOpenLoopLevel(level, pool);
  if (calib.ok == 0) {
    std::cerr << "net calibration failed: " << calib.errors
              << " errors, server unreachable?\n";
    return rep;
  }
  rep.calibration_qps = calib.achieved_qps;
  rep.deadline_us = std::max<int64_t>(
      5000, static_cast<int64_t>(20.0 * 1e6 / rep.calibration_qps));
  std::cout << "net calibration: " << rep.calibration_qps
            << " qps peak, sweep deadline " << rep.deadline_us << " us\n";

  level.requests = per_level;
  level.deadline_us = rep.deadline_us;
  for (double mult : kNetLoadLevels) {
    level.offered_qps = mult * rep.calibration_qps;
    level.seed = static_cast<uint64_t>(mult * 1000);
    const bench::OpenLoopResult r = bench::RunOpenLoopLevel(level, pool);
    const bool level_saturated =
        r.achieved_qps < 0.9 * r.empirical_offered_qps ||
        static_cast<double>(r.shed) > 0.005 * static_cast<double>(r.sent);
    if (level_saturated && !rep.saturated) {
      rep.saturated = true;
      rep.saturation_offered_qps = r.offered_qps;
    }
    std::cout << "net " << mult << "x: offered " << r.offered_qps
              << " qps, achieved " << r.achieved_qps << ", ok " << r.ok
              << " shed " << r.shed << " err " << r.errors << ", p50 "
              << r.p50_us << " us p99 " << r.p99_us << " us p999 "
              << r.p999_us << " us" << (level_saturated ? "  [saturated]" : "")
              << "\n";
    rep.levels.push_back(r);
  }
  return rep;
}

/// The in-process variant: a reduced scaled model behind a real
/// NetServer on an ephemeral loopback port, bounded admission queue so
/// overload sheds instead of queueing without limit.
NetReport RunInProcessNetSweep(size_t per_level, bool smoke) {
  constexpr int kUsers = 4096;
  constexpr int kItems = 4096;
  const serve::FrozenModel model = MakeScaledModel(kUsers, kItems);
  serve::ServingEngine::Options eo;
  eo.max_batch = 16;
  eo.batch_deadline_us = 200;
  eo.cache_capacity = 256;
  eo.max_queue = 1024;
  serve::ServingEngine engine(&model, eo);
  serve::NetServer server(&engine, {});
  KGAG_CHECK(server.Start().ok());
  NetReport rep = RunNetSweep("127.0.0.1", server.port(), kUsers, per_level,
                              smoke);
  rep.target = "in-process";
  server.Stop();
  engine.Shutdown();
  return rep;
}

void WriteNetReport(bench::JsonWriter* w, const NetReport& rep) {
  w->BeginObject("net_open_loop");
  w->Field("transport", "tcp-binary-pipelined");
  w->Field("target", rep.target);
  w->Field("connections", rep.connections);
  w->Field("requests_per_level", rep.requests_per_level);
  w->Field("calibration_qps", rep.calibration_qps);
  w->Field("deadline_us", rep.deadline_us);
  w->BeginArray("levels");
  for (const bench::OpenLoopResult& r : rep.levels) {
    w->BeginObject();
    w->Field("offered_qps", r.offered_qps);
    w->Field("empirical_offered_qps", r.empirical_offered_qps);
    w->Field("achieved_qps", r.achieved_qps);
    w->Field("sent", r.sent);
    w->Field("ok", r.ok);
    w->Field("shed", r.shed);
    w->Field("errors", r.errors);
    w->Field("wall_s", r.wall_s);
    w->Field("p50_us", r.p50_us);
    w->Field("p99_us", r.p99_us);
    w->Field("p999_us", r.p999_us);
    w->EndObject();
  }
  w->EndArray();
  w->Field("saturation_observed", rep.saturated);
  w->Field("saturation_offered_qps", rep.saturation_offered_qps);
  w->EndObject();
}

/// --net entry point: sweep only, against --connect or an in-process
/// server, standalone JSON artifact.
int RunNet(const Options& opt) {
  const size_t per_level =
      opt.requests > 0 ? opt.requests : (opt.smoke ? 48 : 256);
  NetReport rep;
  if (!opt.connect_host.empty()) {
    rep = RunNetSweep(opt.connect_host, opt.connect_port,
                      static_cast<int32_t>(opt.net_users), per_level,
                      opt.smoke);
    rep.target = opt.connect_host + ":" + std::to_string(opt.connect_port);
  } else {
    rep = RunInProcessNetSweep(per_level, opt.smoke);
  }
  if (rep.levels.empty()) return 1;
  size_t total_err = 0;
  for (const bench::OpenLoopResult& r : rep.levels) total_err += r.errors;

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 1;
  }
  bench::JsonWriter w(&out);
  w.BeginObject();
  w.Newline();
  w.Field("bench", "bench_serve_net");
  w.Newline();
  w.Field("smoke", opt.smoke);
  w.Newline();
  WriteNetReport(&w, rep);
  w.Newline();
  w.EndObject();
  w.Newline();
  std::cout << "wrote " << opt.out << "\n";
  // Transport errors mean the harness itself misbehaved; shedding under
  // overload is the expected signal, not a failure.
  return total_err == 0 ? 0 : 1;
}

struct TierResult {
  QuantType precision = QuantType::kFp64;
  size_t artifact_bytes = 0;
  size_t bytes_per_entity = 0;
  bool round_trip = false;
  PhaseResult naive;
  PhaseResult batched;
};

/// The A/B obs-overhead probe: the batched engine over a reduced
/// artifact (small enough that instrumentation cost is a visible
/// fraction, big enough that the GEMM still dominates scheduling), the
/// request stream replayed until at least `min_wall_s` of wall time so
/// per-run scheduler noise amortizes. Emits one JSON the overhead
/// checker can median across repeats.
int RunOverhead(const Options& opt) {
  constexpr int kUsers = 4096;
  constexpr int kItems = 4096;
  const double min_wall_s = opt.smoke ? 0.05 : 0.3;
  const serve::FrozenModel model = MakeScaledModel(kUsers, kItems);
  const std::vector<serve::TopKRequest> reqs =
      MakeScaledRequests(kUsers, kItems, opt.requests > 0 ? opt.requests : 256);

  serve::ServingEngine engine(&model, {.max_batch = 16,
                                       .batch_deadline_us = 200,
                                       .cache_capacity = 256,
                                       .pool = nullptr});
  for (size_t i = 0; i < std::min<size_t>(reqs.size(), 8); ++i) {
    KGAG_CHECK(engine.Submit(reqs[i]).get().ok());
  }
  engine.cache()->Clear();

  size_t total = 0;
  Stopwatch sw;
  double secs = 0.0;
  while (secs < min_wall_s) {
    std::vector<std::future<Result<serve::TopKResult>>> futures;
    futures.reserve(reqs.size());
    for (const serve::TopKRequest& r : reqs) {
      futures.push_back(engine.Submit(r));
    }
    for (auto& f : futures) {
      Result<serve::TopKResult> r = f.get();
      KGAG_CHECK(r.ok()) << r.status().ToString();
    }
    total += reqs.size();
    secs = sw.ElapsedSeconds();
  }
  const double request_ns = secs * 1e9 / static_cast<double>(total);
  std::cout << "overhead probe: " << total << " requests in " << secs * 1e3
            << " ms (" << request_ns << " ns/request), obs_enabled="
            << (KGAG_OBS_ACTIVE ? "true" : "false") << "\n";

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"bench_serve_overhead\",\n"
      << "  \"obs_enabled\": " << (KGAG_OBS_ACTIVE ? "true" : "false")
      << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
      << ",\n  \"num_users\": " << kUsers << ", \"num_items\": " << kItems
      << ", \"dim\": " << kScaledDim
      << ",\n  \"requests\": " << total
      << ",\n  \"min_wall_s\": " << min_wall_s
      << ",\n  \"wall_ms\": " << secs * 1e3
      << ",\n  \"request_ns\": " << request_ns << "\n}\n";
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}

// --- Big-world mmap benchmark (DESIGN.md §14) ------------------------------

/// One child process's startup measurement. Plain-old-data so it can be
/// shipped over a pipe from a forked child.
struct StartupProbe {
  int32_t ok = 0;
  double load_ms = 0.0;   ///< artifact map alone
  double ttfq_ms = 0.0;   ///< load + engine build + first TopK answered
  double rss_delta_kb = 0.0;  ///< VmRSS growth across the whole probe
  double mapped_mb = 0.0;     ///< mapping size
  double resident_mb = 0.0;   ///< pages faulted in by the query
};

/// VmRSS in KB from /proc/self/status (0 where there is no procfs).
uint64_t ReadVmRssKb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<uint64_t>(f.tellg()) : 0;
}

/// Cold-start measurement: map the artifact, build an engine, answer one
/// query. Run inside a fresh process so load cost, RSS growth and
/// page-fault residency are attributable to THIS artifact rather than
/// whatever the bench did before.
StartupProbe MeasureStartup(const std::string& path) {
  StartupProbe p;
  const uint64_t rss0 = ReadVmRssKb();
  Stopwatch sw;
  Result<serve::FrozenModel> model = serve::LoadFrozenModelMmap(path);
  if (!model.ok()) return p;
  p.load_ms = static_cast<double>(sw.ElapsedMicros()) / 1000.0;
  serve::ServingEngine engine(&*model, {.max_batch = 1,
                                        .batch_deadline_us = 0,
                                        .cache_capacity = 16,
                                        .pool = nullptr});
  serve::TopKRequest req;
  req.members = {0, 1, 2};
  req.k = 10;
  Result<serve::TopKResult> r = engine.Submit(std::move(req)).get();
  if (!r.ok()) return p;
  p.ttfq_ms = static_cast<double>(sw.ElapsedMicros()) / 1000.0;
  p.rss_delta_kb = static_cast<double>(ReadVmRssKb() - rss0);
  p.mapped_mb = static_cast<double>(model->mapping->mapped_bytes()) / 1048576.0;
  p.resident_mb =
      static_cast<double>(model->mapping->ResidentBytes()) / 1048576.0;
  p.ok = 1;
  return p;
}

/// Forks, measures in the child, ships the probe back over a pipe. The
/// caller must not have spawned any threads yet (fork + engine threads
/// don't mix); Main runs the big-world section first for exactly this
/// reason. Falls back to in-process measurement where fork is missing.
StartupProbe MeasureStartupInChild(const std::string& path) {
#if KGAG_BENCH_HAS_FORK
  int fds[2];
  if (pipe(fds) != 0) return MeasureStartup(path);
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    StartupProbe p = MeasureStartup(path);
    const ssize_t written = write(fds[1], &p, sizeof(p));
    _exit(written == static_cast<ssize_t>(sizeof(p)) ? 0 : 1);
  }
  close(fds[1]);
  StartupProbe p;
  const ssize_t n = read(fds[0], &p, sizeof(p));
  close(fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  if (pid < 0 || n != static_cast<ssize_t>(sizeof(p))) p = StartupProbe{};
  return p;
#else
  return MeasureStartup(path);
#endif
}

/// Group-shaped big-world traffic: 60% of requests hit a 16-group hot
/// set, the rest draw fresh groups from the world's deterministic
/// membership; a sprinkle carry exclusion lists (same skew profile as
/// MakeScaledRequests, but the member sets are real world groups).
std::vector<serve::TopKRequest> MakeBigWorldRequests(
    const synthetic::BigWorldGen& gen, size_t n) {
  Rng rng(913);
  const auto num_groups = static_cast<int>(gen.spec().num_groups);
  const auto num_items = static_cast<int>(gen.spec().num_items);
  constexpr int kHotGroups = 16;
  std::vector<serve::TopKRequest> reqs;
  reqs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    serve::TopKRequest r;
    const uint64_t g = rng.UniformInt(0, 9) < 6
                           ? static_cast<uint64_t>(
                                 rng.UniformInt(0, kHotGroups - 1))
                           : static_cast<uint64_t>(
                                 rng.UniformInt(0, num_groups - 1));
    r.members = gen.GroupMembers(g);
    if (rng.UniformInt(0, 9) < 2) {
      for (int e = 0; e < 4; ++e) {
        r.exclude_seen.push_back(
            static_cast<ItemId>(rng.UniformInt(0, num_items - 1)));
      }
    }
    r.k = 10;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// The world's rep tables quantized in memory, chunk by chunk, straight
/// from the generator — the reference the streamed artifact must score
/// bit-identically to. Chunking never materializes the fp64 tables.
serve::FrozenModel InMemoryBigWorld(const synthetic::BigWorldGen& gen,
                                    const serve::BigWorldFreezeOptions& opt) {
  const synthetic::BigWorldSpec& spec = gen.spec();
  const size_t d = spec.dim;
  serve::FrozenModel m;
  m.dim = static_cast<int>(spec.dim);
  m.group_size = static_cast<int>(spec.group_size);
  m.num_users = static_cast<int32_t>(spec.num_users);
  m.num_items = static_cast<int32_t>(spec.num_items);
  m.quant = opt.quant;
  m.quant_block = opt.quant == QuantType::kInt8 ? opt.quant_block : 0;
  using RowFiller =
      void (synthetic::BigWorldGen::*)(uint64_t, uint64_t, double*) const;
  auto table = [&](RowFiller fill, uint64_t rows) {
    QuantizedMatrix q;
    q.type = m.quant;
    q.rows = rows;
    q.cols = d;
    q.block = m.quant_block;
    q.data.resize(rows * q.RowBytes());
    q.scales.resize(rows * q.ScalesPerRow());
    const uint64_t chunk = std::max<uint64_t>(1, opt.chunk_rows);
    std::vector<double> raw(chunk * d);
    for (uint64_t start = 0; start < rows; start += chunk) {
      const uint64_t n = std::min(chunk, rows - start);
      (gen.*fill)(start, n, raw.data());
      QuantizeRows(q.type, q.block, n, d, raw.data(),
                   q.data.data() + start * q.RowBytes(),
                   q.scales.data() + start * q.ScalesPerRow());
    }
    return q;
  };
  m.q_user = table(&synthetic::BigWorldGen::UserRows, spec.num_users);
  m.q_item = table(&synthetic::BigWorldGen::ItemRows, spec.num_items);
  m.w1 = Tensor(d, d);
  m.w2 = Tensor(d * (spec.group_size - 1), d);
  m.bias = Tensor(1, d);
  m.vc = Tensor(d, 1);
  gen.Attention(m.w1.data(), m.w2.data(), m.bias.data(), m.vc.data());
  return m;
}

struct BigWorldReport {
  synthetic::BigWorldSpec spec;
  double freeze_v2_ms = 0.0;
  uint64_t v2_bytes = 0;
  StartupProbe v2_mmap;          ///< first process to map the artifact
  StartupProbe v2_second;        ///< again — page cache already warm
  bool score_bit_identical = false;
  PhaseResult mmap_batched;
  bool ok = false;
};

/// Freezes the big world, probes startup in forked children, proves the
/// mapped scores bit-identical to the in-memory world, then serves a
/// batched stream from the mapping. MUST run before any engine exists in
/// this process (see MeasureStartupInChild).
BigWorldReport RunBigWorld(const Options& opt) {
  BigWorldReport rep;
  synthetic::BigWorldSpec spec;
  if (opt.smoke) {
    spec.num_users = 20'000;
    spec.num_items = 4'000;
    spec.num_groups = 2'000;
    spec.dim = 32;
  }
  rep.spec = spec;
  const synthetic::BigWorldGen gen(spec);
  const serve::BigWorldFreezeOptions freeze_opts;  // fp16, the big default
  const std::string v2_path = "bigworld_bench.srv2";

  Stopwatch sw;
  const Status s2 = serve::FreezeBigWorldV2(gen, freeze_opts, v2_path);
  rep.freeze_v2_ms = static_cast<double>(sw.ElapsedMicros()) / 1000.0;
  if (!s2.ok()) {
    std::cerr << "big-world freeze failed: " << s2.ToString() << "\n";
    return rep;
  }
  rep.v2_bytes = FileBytes(v2_path);
  std::cout << "big world: " << spec.num_users << " users x "
            << spec.num_items << " items x " << spec.num_groups
            << " groups, dim " << spec.dim << "; froze "
            << rep.v2_bytes << " B in " << rep.freeze_v2_ms << " ms\n";

  // Startup probes, one fresh process each. The second mapping is the
  // page-cache-sharing claim: its pages are already resident system-wide.
  rep.v2_mmap = MeasureStartupInChild(v2_path);
  rep.v2_second = MeasureStartupInChild(v2_path);
  auto print_probe = [](const char* name, const StartupProbe& p) {
    std::cout << "  startup " << name << ": load " << p.load_ms
              << " ms, ttfq " << p.ttfq_ms << " ms, rss +"
              << p.rss_delta_kb / 1024.0 << " MB, mapped " << p.mapped_mb
              << " MB (resident " << p.resident_mb << " MB)"
              << (p.ok ? "" : "  [FAILED]") << "\n";
  };
  print_probe("v2-mmap", rep.v2_mmap);
  print_probe("v2-mmap-2nd-proc", rep.v2_second);

  // Score bit-identity: the same world's groups scored through the
  // in-memory tables and through the zero-copy mapping must agree to the
  // bit (the blobs hold the same bytes and RepView funnels both through
  // one kernel path — this check keeps that structural claim honest).
  Result<serve::FrozenModel> mapped = serve::LoadFrozenModelMmap(v2_path);
  KGAG_CHECK(mapped.ok()) << mapped.status().ToString();
  {
    const serve::FrozenModel memory = InMemoryBigWorld(gen, freeze_opts);
    rep.score_bit_identical = true;
    for (uint64_t g = 0; g < 8; ++g) {
      const std::vector<UserId> members = gen.GroupMembers(g);
      Result<serve::GroupRep> rh = serve::BuildGroupRep(memory, members);
      Result<serve::GroupRep> rm = serve::BuildGroupRep(*mapped, members);
      KGAG_CHECK(rh.ok() && rm.ok());
      const std::vector<double> sh = serve::ScoreAllItems(memory, *rh);
      const std::vector<double> sm = serve::ScoreAllItems(*mapped, *rm);
      rep.score_bit_identical &=
          sh.size() == sm.size() &&
          std::memcmp(sh.data(), sm.data(), sh.size() * sizeof(double)) == 0;
    }
  }
  std::cout << "  mmap vs in-memory scores: "
            << (rep.score_bit_identical ? "bit-identical" : "DIVERGED")
            << "\n";

  // The headline serving phase.
  const size_t n = opt.requests > 0 ? opt.requests : (opt.smoke ? 32 : 96);
  const std::vector<serve::TopKRequest> reqs = MakeBigWorldRequests(gen, n);
  const serve::ServingEngine::Options engine_opts = {.max_batch = 16,
                                                     .batch_deadline_us = 200,
                                                     .cache_capacity = 256,
                                                     .pool = nullptr};
  rep.mmap_batched = RunPhase("mmap_batched", &*mapped, engine_opts, reqs);
  const PhaseResult& r = rep.mmap_batched;
  std::cout << "  " << r.mode << ": " << r.qps << " qps (" << r.wall_ms
            << " ms), p50 " << r.p50_us << " us, p99 " << r.p99_us
            << " us, cache hit-rate " << r.cache_hit_rate << "\n";

  rep.ok = rep.v2_mmap.ok != 0 && rep.v2_second.ok != 0 &&
           rep.score_bit_identical;
  return rep;
}

void WriteStartupProbe(bench::JsonWriter* w, const char* key,
                       const StartupProbe& p) {
  w->BeginObject(key);
  w->Field("ok", p.ok != 0);
  w->Field("load_ms", p.load_ms);
  w->Field("ttfq_ms", p.ttfq_ms);
  w->Field("rss_delta_kb", p.rss_delta_kb);
  w->Field("mapped_mb", p.mapped_mb);
  w->Field("resident_mb", p.resident_mb);
  w->EndObject();
}

void WriteBigWorldReport(bench::JsonWriter* w, const BigWorldReport& rep) {
  w->BeginObject("big_world");
  w->BeginObject("spec");
  w->Field("num_users", rep.spec.num_users);
  w->Field("num_items", rep.spec.num_items);
  w->Field("num_groups", rep.spec.num_groups);
  w->Field("dim", rep.spec.dim);
  w->Field("group_size", rep.spec.group_size);
  w->Field("precision", "fp16");
  w->Field("seed", rep.spec.seed);
  w->EndObject();
  w->Field("freeze_v2_ms", rep.freeze_v2_ms);
  w->Field("v2_artifact_bytes", rep.v2_bytes);
  w->Field("score_bit_identical", rep.score_bit_identical);
  w->BeginArray("phases");
  const PhaseResult& r = rep.mmap_batched;
  w->BeginObject();
  w->Field("mode", r.mode);
  w->Field("requests", r.requests);
  w->Field("batches", r.batches);
  w->Field("wall_ms", r.wall_ms);
  w->Field("qps", r.qps);
  w->Field("p50_us", r.p50_us);
  w->Field("p99_us", r.p99_us);
  w->EndObject();
  w->EndArray();
  w->EndObject();
  w->Newline();
  w->BeginObject("startup");
  WriteStartupProbe(w, "v2_mmap", rep.v2_mmap);
  WriteStartupProbe(w, "v2_mmap_second_process", rep.v2_second);
  w->EndObject();
}

// --------------------------------------------------------------------------
// Online section: the freshness-vs-throughput curve (DESIGN.md §15).
//
// One online world, one checkpointed warm model, one deterministic
// interaction stream — served at three refresh cadences. "frozen" never
// refreshes (maximum throughput, zero freshness); "slow" and "fast"
// interleave OnlineTrainer refreshes with the request load, hot-swapping
// each published artifact into the live engine. Per cadence we record
// the serving side (qps, p50/p99, swap count, failed MUST be 0 — swaps
// are zero-downtime) and the freshness side (cold-start hit@k/mean-rank
// on unseen-member scenarios, before the run vs on the final artifact).

struct OnlineCadence {
  std::string name;
  size_t events_per_refresh = 0;  ///< 0 = never refresh
  uint64_t refreshes = 0;
  uint64_t swaps = 0;
  size_t requests = 0;
  uint64_t failed = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  online::ColdStartReport cold_after;
};

struct OnlineReport {
  std::string world;
  int num_users = 0;
  int cold_users = 0;
  size_t cold_cases = 0;
  online::ColdStartReport cold_before;
  std::vector<OnlineCadence> cadences;
  bool zero_failed = true;
};

OnlineReport RunOnlineSection(bool smoke) {
  namespace fs = std::filesystem;
  constexpr uint64_t kSeed = 777;
  constexpr int kColdUsers = 16;
  constexpr size_t kColdK = 10;
  const fs::path dir = fs::temp_directory_path() / "kgag_bench_online";
  fs::remove_all(dir);
  fs::create_directories(dir);

  OnlineReport report;
  const GroupRecDataset world =
      online::MakeOnlineWorld(kSeed, smoke ? 0.12 : 0.25, kColdUsers);
  report.world = world.name;
  report.num_users = world.num_users;
  report.cold_users = kColdUsers;

  KgagConfig cfg;
  cfg.propagation.dim = 16;
  cfg.propagation.depth = 1;
  cfg.propagation.sample_size = 4;
  cfg.propagation.final_tanh = false;
  cfg.pairs_per_epoch = smoke ? 32 : 96;
  cfg.batch_size = 8;
  cfg.eval_tree_samples = 1;
  cfg.select_by_validation = false;
  cfg.seed = 31;

  // Offline phase: warm the model and leave the checkpoint every online
  // trainer below resumes from.
  const std::string ckpt_dir = (dir / "ckpt").string();
  std::shared_ptr<const serve::FrozenModel> initial;
  {
    auto model = KgagModel::Create(&world, cfg);
    KGAG_CHECK(model.ok());
    (*model)->FineTuneEpoch();
    (*model)->FineTuneEpoch();
    ckpt::CheckpointManager mgr({.dir = ckpt_dir});
    KGAG_CHECK(mgr.Save((*model)->CaptureTrainingState(2, false, 0, 0.0,
                                                       nullptr))
                   .ok());
    Result<serve::FrozenModel> frozen = serve::FreezeKgagModel(model->get());
    KGAG_CHECK(frozen.ok());
    initial = std::make_shared<const serve::FrozenModel>(std::move(*frozen));
  }

  const online::InteractionStream stream(
      online::StreamForWorld(world, kSeed, kColdUsers));
  const online::ColdStartScenarios scenarios =
      online::BuildColdStartScenarios(world, stream, 0, smoke ? 600 : 2000,
                                      /*max_cases=*/12);
  report.cold_cases = scenarios.unseen_member.size();
  report.cold_before =
      online::EvaluateColdStart(*initial, scenarios.unseen_member, kColdK);

  struct Cadence {
    const char* name;
    size_t events;
  };
  const Cadence plan[] = {
      {"frozen", 0},
      {"slow", smoke ? size_t{96} : size_t{256}},
      {"fast", smoke ? size_t{32} : size_t{64}},
  };
  const size_t total_requests = smoke ? 240 : 960;

  Rng req_rng(4321);
  for (const Cadence& c : plan) {
    OnlineCadence row;
    row.name = c.name;
    row.events_per_refresh = c.events;

    online::OnlineTrainer::Options topt;
    topt.config = cfg;
    topt.checkpoint_dir = ckpt_dir;
    topt.artifact_path = (dir / (std::string(c.name) + ".srv")).string();
    topt.micro_epochs = 1;
    topt.save_checkpoints = false;  // every cadence resumes the SAME state
    auto trainer = online::OnlineTrainer::Create(
        online::MakeOnlineWorld(kSeed, smoke ? 0.12 : 0.25, kColdUsers),
        stream, topt);
    KGAG_CHECK(trainer.ok());

    serve::ServingEngine::Options eopt;
    eopt.max_batch = 8;
    eopt.batch_deadline_us = 50;
    eopt.cache_capacity = 256;
    eopt.record_latency = true;
    serve::ServingEngine engine(initial, eopt);

    // Client side: closed-loop submitters over real groups plus ad-hoc
    // groups that include a cold member (the requests a refresh helps).
    std::vector<serve::TopKRequest> reqs;
    reqs.reserve(total_requests);
    for (size_t i = 0; i < total_requests; ++i) {
      serve::TopKRequest r;
      if (i % 4 == 3 && !scenarios.adhoc_group.empty()) {
        r.members =
            scenarios.adhoc_group[i % scenarios.adhoc_group.size()].members;
      } else {
        const GroupId g = static_cast<GroupId>(
            req_rng.UniformInt(0, world.groups.num_groups() - 1));
        const auto span = world.groups.MembersOf(g);
        r.members.assign(span.begin(), span.end());
      }
      r.k = 10;
      reqs.push_back(std::move(r));
    }

    std::atomic<size_t> next{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<bool> done{false};
    Stopwatch wall;
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&] {
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= reqs.size()) break;
          if (!engine.Submit(reqs[i]).get().ok()) ++failed;
        }
        done = true;
      });
    }
    // Refresher (the bench thread): stream -> fine-tune -> publish ->
    // hot-swap, as long as the load is running.
    while (!done.load()) {
      if (c.events == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      (*trainer)->ApplyEvents(c.events);
      Result<online::RefreshReport> r = (*trainer)->Refresh();
      KGAG_CHECK(r.ok());
      ++row.refreshes;
      Result<serve::FrozenModel> published =
          serve::LoadFrozenModelMmap(topt.artifact_path);
      KGAG_CHECK(published.ok());
      KGAG_CHECK(engine
                     .SwapModel(std::make_shared<const serve::FrozenModel>(
                                    std::move(*published)),
                                "v" + std::to_string(r->version))
                     .ok());
    }
    for (std::thread& t : clients) t.join();
    row.wall_ms = wall.ElapsedMicros() / 1000.0;

    std::vector<double> samples = engine.TakeLatencySamples();
    row.requests = reqs.size();
    row.failed = failed.load();
    row.swaps = engine.swaps();
    row.qps = row.wall_ms > 0 ? 1000.0 * reqs.size() / row.wall_ms : 0.0;
    row.p50_us = Percentile(samples, 0.50);
    row.p99_us = Percentile(samples, 0.99);
    row.cold_after = online::EvaluateColdStart(
        *engine.model_ref(), scenarios.unseen_member, kColdK);
    report.zero_failed = report.zero_failed && row.failed == 0;
    report.cadences.push_back(std::move(row));
  }
  fs::remove_all(dir);
  return report;
}

void WriteOnlineReport(bench::JsonWriter* w, const OnlineReport& rep) {
  const auto cold = [&](const online::ColdStartReport& r) {
    w->Field("cases", static_cast<uint64_t>(r.cases));
    w->Field("hit_at_k", r.hit_at_k);
    w->Field("ndcg_at_k", r.ndcg_at_k);
    w->Field("mean_rank", r.mean_rank);
  };
  w->BeginObject("online");
  w->Field("world", rep.world);
  w->Field("num_users", rep.num_users);
  w->Field("reserved_cold_users", rep.cold_users);
  w->Field("zero_failed_requests", rep.zero_failed);
  w->BeginObject("cold_start_before");
  cold(rep.cold_before);
  w->EndObject();
  w->BeginArray("cadences");
  w->Newline();
  for (const OnlineCadence& c : rep.cadences) {
    w->BeginObject();
    w->Field("cadence", c.name);
    w->Field("events_per_refresh", static_cast<uint64_t>(c.events_per_refresh));
    w->Field("refreshes", c.refreshes);
    w->Field("swaps", c.swaps);
    w->Field("requests", static_cast<uint64_t>(c.requests));
    w->Field("failed", c.failed);
    w->Field("wall_ms", c.wall_ms);
    w->Field("qps", c.qps);
    w->Field("p50_us", c.p50_us);
    w->Field("p99_us", c.p99_us);
    w->BeginObject("cold_start_after");
    cold(c.cold_after);
    w->EndObject();
    w->EndObject();
    w->Newline();
  }
  w->EndArray();
  w->EndObject();
}

int Main(int argc, char** argv) {
  Options opt;
  bool out_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--acceptance") {
      opt.acceptance = true;
    } else if (arg == "--overhead") {
      opt.overhead = true;
    } else if (arg == "--net") {
      opt.net = true;
    } else if (arg == "--connect" || arg.rfind("--connect=", 0) == 0) {
      std::string target;
      if (arg == "--connect" && i + 1 < argc) target = argv[++i];
      else if (arg != "--connect") target = arg.substr(sizeof("--connect=") - 1);
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::cerr << "--connect expects HOST:PORT\n";
        return 2;
      }
      opt.connect_host = target.substr(0, colon);
      opt.connect_port = std::atoi(target.c_str() + colon + 1);
    } else if (arg == "--net_users" && i + 1 < argc) {
      opt.net_users = std::atoi(argv[++i]);
    } else if (arg.rfind("--net_users=", 0) == 0) {
      opt.net_users = std::atoi(arg.c_str() + sizeof("--net_users=") - 1);
    } else if (arg == "--requests" && i + 1 < argc) {
      opt.requests = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
      out_set = true;
    } else {
      std::cerr << "usage: bench_serve [--smoke] [--acceptance]"
                << " [--overhead] [--net] [--connect HOST:PORT]"
                << " [--net_users N] [--requests N] [--out PATH]\n";
      return 2;
    }
  }
  if (opt.net) {
    if (!out_set) opt.out = "BENCH_serve_net.json";
    return RunNet(opt);
  }
  if (opt.overhead) {
    if (!out_set) opt.out = "BENCH_serve_overhead.json";
    return RunOverhead(opt);
  }
  const size_t n_requests =
      opt.requests > 0 ? opt.requests : (opt.smoke ? 96 : 384);

  // --- Big world first: its startup probes fork, so they must run while
  //     this process is still single-threaded (no engines yet). ----------
  const BigWorldReport big = RunBigWorld(opt);

  // --- The full-precision base model + request stream. -------------------
  serve::FrozenModel base;
  std::vector<serve::TopKRequest> reqs;
  std::string dataset_name;
  if (opt.smoke) {
    const GroupRecDataset ds =
        MakeMovieLensRandDataset(bench::WorldSeed(), 0.12);
    KgagConfig cfg = bench::DefaultKgagConfig();
    Result<std::unique_ptr<KgagModel>> model = KgagModel::Create(&ds, cfg);
    KGAG_CHECK(model.ok()) << model.status().ToString();
    Result<serve::FrozenModel> frozen = serve::FreezeKgagModel(model->get());
    KGAG_CHECK(frozen.ok()) << frozen.status().ToString();
    base = *std::move(frozen);
    reqs = MakeSmokeRequests(ds, n_requests);
    dataset_name = ds.name;
  } else {
    base = MakeScaledModel();
    reqs = MakeScaledRequests(base.num_users, base.num_items, n_requests);
    dataset_name = "synthetic-scaled";
  }
  std::cout << "workload: " << base.num_users << " users x " << base.num_items
            << " items, dim " << base.dim << ", " << n_requests
            << " requests/phase, quant ISA level "
            << kernels::QuantIsaLevel() << "\n";

  // --- Per-precision sweep: round-trip gate + both engine phases. --------
  const QuantType tiers[] = {QuantType::kFp64, QuantType::kFp32,
                             QuantType::kFp16, QuantType::kInt8};
  std::vector<TierResult> results;
  for (QuantType tier : tiers) {
    TierResult tr;
    tr.precision = tier;
    Result<serve::FrozenModel> model =
        serve::QuantizeFrozenModel(base, tier, /*block=*/0);
    KGAG_CHECK(model.ok()) << model.status().ToString();
    tr.bytes_per_entity = serve::RepBytesPerEntity(*model);

    // Round trip: save, map back with every blob CRC checked, re-save
    // from the mapping; the two files must match byte for byte.
    const std::string saved = "bench_precision.srv2";
    const std::string resaved = "bench_precision_rt.srv2";
    serve::MmapLoadOptions verify;
    verify.verify_crc = true;
    std::string b1, b2;
    KGAG_CHECK(serve::SaveFrozenModelV2(*model, saved).ok());
    {
      Result<serve::FrozenModel> mapped =
          serve::LoadFrozenModelMmap(saved, verify);
      tr.round_trip = mapped.ok() &&
                      serve::SaveFrozenModelV2(*mapped, resaved).ok() &&
                      ReadFileToString(saved, &b1).ok() &&
                      ReadFileToString(resaved, &b2).ok() && b1 == b2;
    }
    std::remove(saved.c_str());
    std::remove(resaved.c_str());
    tr.artifact_bytes = b1.size();
    std::cout << QuantTypeName(tier) << ": artifact " << tr.artifact_bytes
              << " bytes (" << tr.bytes_per_entity
              << " rep bytes/entity), round trip "
              << (tr.round_trip ? "byte-stable" : "DIVERGED") << "\n";

    tr.naive = RunPhase("naive", &*model,
                        {.max_batch = 1,
                         .batch_deadline_us = 0,
                         .cache_capacity = 256,
                         .pool = nullptr},
                        reqs);
    tr.batched = RunPhase("batched", &*model,
                          {.max_batch = 16,
                           .batch_deadline_us = 200,
                           .cache_capacity = 256,
                           .pool = nullptr},
                          reqs);
    for (const PhaseResult& r : {tr.naive, tr.batched}) {
      std::cout << "  " << r.mode << ": " << r.qps << " qps (" << r.wall_ms
                << " ms), " << r.batches << " batches (mean " << r.mean_batch
                << "), " << r.coalesced << " coalesced, p50 " << r.p50_us
                << " us, p99 " << r.p99_us << " us (hdr p50 " << r.hdr_p50_us
                << " / p99 " << r.hdr_p99_us << ", "
                << (r.hdr_agrees ? "agrees" : "DISAGREES")
                << "), cache hit-rate " << r.cache_hit_rate << "\n";
    }
    results.push_back(std::move(tr));
  }

  const TierResult& fp64 = results[0];
  const TierResult& fp32 = results[1];
  const TierResult& int8 = results[3];
  bool round_trips_ok = true;
  for (const TierResult& tr : results) round_trips_ok &= tr.round_trip;
  bool hdr_ok = true;
  for (const TierResult& tr : results) {
    hdr_ok &= tr.naive.hdr_agrees && tr.batched.hdr_agrees;
  }
  const bool batched_wins = fp64.batched.qps >= fp64.naive.qps;
  const double int8_speedup =
      fp32.batched.qps == 0.0 ? 0.0 : int8.batched.qps / fp32.batched.qps;
  // The quantization payoff gate only binds at serving scale; the smoke
  // shape fits toy caches where precision barely moves the needle.
  const bool int8_wins = opt.smoke || int8_speedup >= 1.5;
  std::cout << "batched/naive (fp64): "
            << (fp64.naive.qps == 0.0 ? 0.0
                                      : fp64.batched.qps / fp64.naive.qps)
            << "x\nint8/fp32 batched: " << int8_speedup << "x\n";

  if (opt.acceptance) {
    const bool ok =
        round_trips_ok && batched_wins && int8_wins && hdr_ok && big.ok;
    std::cout << (ok ? "acceptance OK\n" : "acceptance FAILED\n");
    if (!round_trips_ok) std::cerr << "FAIL: artifact round trip diverged\n";
    if (!batched_wins) {
      std::cerr << "FAIL: fp64 batched throughput below naive ("
                << fp64.batched.qps << " < " << fp64.naive.qps << " qps)\n";
    }
    if (!int8_wins) {
      std::cerr << "FAIL: int8 batched throughput below 1.5x fp32 ("
                << int8_speedup << "x)\n";
    }
    if (!hdr_ok) {
      std::cerr << "FAIL: HDR latency percentiles diverged from raw "
                << "samples by more than one bucket width\n";
    }
    if (!big.score_bit_identical) {
      std::cerr << "FAIL: mmap and in-memory scores diverged on the big "
                   "world\n";
    }
    if (!(big.v2_mmap.ok != 0 && big.v2_second.ok != 0)) {
      std::cerr << "FAIL: a big-world startup probe did not complete\n";
    }
    if (opt.out == "BENCH_serve.json") return ok ? 0 : 1;
  }

  // --- Open-loop sweep over a real loopback socket (DESIGN.md §13). ------
  const NetReport net_report =
      RunInProcessNetSweep(opt.requests > 0 ? opt.requests
                                            : (opt.smoke ? 48 : 256),
                           opt.smoke);

  // --- Online world: refresh cadences + hot swaps under load. ------------
  const OnlineReport online_report = RunOnlineSection(opt.smoke);

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 1;
  }
  bench::JsonWriter w(&out);
  w.BeginObject();
  w.Newline();
  w.Field("bench", "bench_serve");
  w.Newline();
  w.Field("smoke", opt.smoke);
  w.Newline();
  w.BeginObject("workload");
  w.Field("dataset", dataset_name);
  w.Field("num_users", base.num_users);
  w.Field("num_items", base.num_items);
  w.Field("dim", base.dim);
  w.Field("group_size", base.group_size);
  w.Field("requests", n_requests);
  w.Field("k", 10);
  w.Field("quant_isa_level", kernels::QuantIsaLevel());
  w.EndObject();
  w.Newline();
  WriteBigWorldReport(&w, big);
  w.Newline();
  w.BeginArray("precisions");
  w.Newline();
  for (const TierResult& tr : results) {
    w.BeginObject();
    w.Field("precision", QuantTypeName(tr.precision));
    w.Field("artifact_bytes", tr.artifact_bytes);
    w.Field("rep_bytes_per_entity", tr.bytes_per_entity);
    w.Field("round_trip_byte_stable", tr.round_trip);
    w.BeginArray("phases");
    for (const PhaseResult& r : {tr.naive, tr.batched}) {
      w.BeginObject();
      w.Field("mode", r.mode);
      w.Field("requests", r.requests);
      w.Field("batches", r.batches);
      w.Field("mean_batch_size", r.mean_batch);
      w.Field("coalesced_requests", r.coalesced);
      w.Field("wall_ms", r.wall_ms);
      w.Field("qps", r.qps);
      w.Field("p50_us", r.p50_us);
      w.Field("p99_us", r.p99_us);
      w.Field("hdr_count", r.hdr_count);
      w.Field("hdr_p50_us", r.hdr_p50_us);
      w.Field("hdr_p99_us", r.hdr_p99_us);
      w.Field("hdr_agrees", r.hdr_agrees);
      w.BeginObject("cache");
      w.Field("hits", r.cache_hits);
      w.Field("misses", r.cache_misses);
      w.Field("hit_rate", r.cache_hit_rate);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Newline();
  }
  w.EndArray();
  w.Newline();
  WriteNetReport(&w, net_report);
  w.Newline();
  WriteOnlineReport(&w, online_report);
  w.Newline();
  w.Field("int8_over_fp32_batched_speedup", int8_speedup);
  w.Newline();
  w.Field("batched_ge_naive", batched_wins);
  w.Newline();
  w.Field("int8_ge_1_5x_fp32", int8_speedup >= 1.5);
  w.Newline();
  w.Field("hdr_percentiles_agree", hdr_ok);
  w.Newline();
  w.Field("big_world_ok", big.ok);
  w.Newline();
  w.EndObject();
  w.Newline();
  std::cout << "wrote " << opt.out << "\n";
  if (!online_report.zero_failed) {
    std::cerr << "FAIL: requests failed during online hot swaps\n";
  }
  return (round_trips_ok && batched_wins && int8_wins && hdr_ok && big.ok &&
          online_report.zero_failed)
             ? 0
             : 1;
}

}  // namespace
}  // namespace kgag

int main(int argc, char** argv) { return kgag::Main(argc, argv); }
