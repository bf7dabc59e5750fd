// bench_serve: the serving probes CI points at another binary. Timing and
// per-layer measurement of the serving path live in perfbench/
// (BENCHMARK.json); serving correctness lives in ctest.
//
// Usage: bench_serve --overhead [--smoke] [--requests N] [--out PATH]
//        bench_serve --net --connect HOST:PORT [--smoke] [--requests N]
//                    [--net_users N] [--out PATH]
//   --overhead    A/B probe for tools/check_obs_overhead.py: drive the
//                 batched engine over a synthetic 4096 x 4096 artifact
//                 for >= 0.3s of wall time and emit {"bench":
//                 "bench_serve_overhead", "obs_enabled", "request_ns",
//                 ...}; run once obs-ON and once obs-OFF
//   --net         open-loop network load against the serve_model data
//                 plane at --connect HOST:PORT: calibrate peak
//                 throughput, then sweep offered QPS levels with Poisson
//                 arrivals, reporting p50/p99/p999, shedding and the
//                 saturation point (DESIGN.md §13); exits non-zero on any
//                 transport error
//   --net_users   member-id bound for the --net request pool (default 32)
//   --smoke       shorter overhead window / smaller net levels
//   --requests    --overhead: requests per replayed stream (default 256);
//                 --net: requests per offered-QPS level (default 256,
//                 smoke 48)
//   --out         output path (default BENCH_serve_overhead.json or
//                 BENCH_serve_net.json)
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "net_client.h"
#include "obs/obs.h"
#include "serve/frozen_model.h"
#include "serve/serving_engine.h"

namespace kgag {
namespace {

struct Options {
  bool smoke = false;
  bool overhead = false;
  bool net = false;
  size_t requests = 0;  // 0 = pick by mode
  std::string connect_host;  // --connect HOST:PORT (net mode)
  int connect_port = 0;
  int net_users = 32;  // member-id bound for --net traffic
  std::string out;     // empty = the mode's default
};

constexpr int kDim = 64;
constexpr int kGroupSize = 4;

/// Synthesizes a frozen artifact directly — no training, no propagation.
/// Serving cost depends only on shapes, so random reps measure the same
/// thing a real freeze would, minutes faster.
serve::FrozenModel MakeScaledModel(int num_users, int num_items) {
  Rng rng(bench::WorldSeed() * 2654435761u + 17);
  serve::FrozenModel m;
  m.dim = kDim;
  m.group_size = kGroupSize;
  m.use_sp = true;
  m.use_pi = true;
  m.num_users = num_users;
  m.num_items = num_items;
  const size_t d = kDim;
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
  m.w2 = Tensor(d * (kGroupSize - 1), d);
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
    for (int i = 0; i < kGroupSize; ++i) {
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
      const int l = static_cast<int>(rng.UniformInt(2, kGroupSize));
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

// --- Open-loop network load (DESIGN.md §13) -------------------------------

/// Offered-load multipliers swept against the calibrated peak rate: three
/// sub-saturation points for the flat part of the latency curve, two
/// overload points where shedding must kick in.
constexpr double kNetLoadLevels[] = {0.3, 0.6, 0.9, 1.2, 1.5};

struct NetReport {
  std::string target;  ///< HOST:PORT
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

/// --net entry point: the sweep against --connect, standalone JSON.
int RunNet(const Options& opt) {
  const size_t per_level =
      opt.requests > 0 ? opt.requests : (opt.smoke ? 48 : 256);
  NetReport rep =
      RunNetSweep(opt.connect_host, opt.connect_port,
                  static_cast<int32_t>(opt.net_users), per_level, opt.smoke);
  rep.target = opt.connect_host + ":" + std::to_string(opt.connect_port);
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

// --- Obs overhead probe ---------------------------------------------------

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
      << ", \"dim\": " << kDim
      << ",\n  \"requests\": " << total
      << ",\n  \"min_wall_s\": " << min_wall_s
      << ",\n  \"wall_ms\": " << secs * 1e3
      << ",\n  \"request_ns\": " << request_ns << "\n}\n";
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}

int Usage() {
  std::cerr << "usage: bench_serve --overhead [--smoke] [--requests N]"
            << " [--out PATH]\n"
            << "       bench_serve --net --connect HOST:PORT [--smoke]"
            << " [--requests N] [--net_users N] [--out PATH]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
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
    } else {
      return Usage();
    }
  }
  if (opt.net == opt.overhead) return Usage();
  if (opt.net) {
    if (opt.connect_host.empty()) {
      std::cerr << "--net requires --connect HOST:PORT\n";
      return Usage();
    }
    if (opt.out.empty()) opt.out = "BENCH_serve_net.json";
    return RunNet(opt);
  }
  if (opt.out.empty()) opt.out = "BENCH_serve_overhead.json";
  return RunOverhead(opt);
}

}  // namespace
}  // namespace kgag

int main(int argc, char** argv) { return kgag::Main(argc, argv); }
