// serve_model: run a ServingEngine over a frozen artifact with the
// data-plane front-end (DESIGN.md §13) and the live introspection
// endpoint (DESIGN.md §12) attached.
//
// Maps the KGAGSRV2 artifact at --artifact (LoadFrozenModelMmap, O(header)
// startup; DESIGN.md §14), builds a
// continuous-batching ServingEngine with the default serving SLOs and a
// pool of one worker per hardware thread for its scan,
// enables request tracing, and serves /metrics, /healthz, /statusz and
// /tracez on --port plus the binary/HTTP data plane (net_server.h) on
// --data_port (both default 0 = ephemeral; the bound ports are printed
// either way, so scripts can scrape them). --max_queue bounds the
// scheduler's admission queue (0 = unbounded). --selftraffic=N submits
// N synthetic requests at startup — random groups against the
// artifact's own entity space — so every endpoint has real data to
// show without an external load generator. --duration_s=S exits after
// S seconds; 0 serves until SIGINT/SIGTERM.
//
// Zero-downtime artifact refresh (DESIGN.md §15) — three triggers, one
// path (LoadFrozenModelMmap + ServingEngine::SwapModel; in-flight
// batches drain on the old version, new admissions bind the new one):
//   --watch            poll the artifact path; reload when its
//                      (mtime, size) changes and holds stable for one
//                      interval (publishers rename atomically, so a
//                      change is a whole new artifact, never a partial)
//   SIGHUP             classic operator nudge: reload now
//   POST/GET /reload   introspection-port endpoint; returns the swap
//                      outcome as JSON
//
//   ./build/tools/freeze_model --out model.srv
//   ./build/tools/serve_model --artifact=model.srv --port=8080
//       --data_port=8081 --selftraffic=64 --watch
//   curl -s localhost:8080/statusz | python3 -m json.tool
//   curl -s -d 'members=1,2,3&k=10' localhost:8081/topk
//   curl -s localhost:8080/reload
//   ./build/bench/bench_serve --net --connect=127.0.0.1:8081
#include <sys/stat.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/introspect.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/frozen_model.h"
#include "serve/net_server.h"
#include "serve/serving_engine.h"

namespace {

struct Flags {
  std::string artifact;
  int port = 0;
  int data_port = 0;
  int selftraffic = 0;
  double duration_s = 0.0;
  size_t max_batch = 16;
  size_t max_queue = 0;
  bool watch = false;
  int watch_interval_ms = 200;
};

Flags Parse(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* name) -> const char* {
      const std::string prefix = std::string(name) + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    if (const char* v = val("--artifact")) f.artifact = v;
    else if (const char* vp = val("--port")) f.port = std::atoi(vp);
    else if (const char* vn = val("--data_port"))
      f.data_port = std::atoi(vn);
    else if (const char* vt = val("--selftraffic"))
      f.selftraffic = std::atoi(vt);
    else if (const char* vd = val("--duration_s"))
      f.duration_s = std::atof(vd);
    else if (const char* vb = val("--max_batch"))
      f.max_batch = static_cast<size_t>(std::atoi(vb));
    else if (const char* vq = val("--max_queue"))
      f.max_queue = static_cast<size_t>(std::atoi(vq));
    else if (arg == "--watch")
      f.watch = true;
    else if (const char* vw = val("--watch_interval_ms"))
      f.watch_interval_ms = std::atoi(vw);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return f;
}

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

volatile std::sig_atomic_t g_reload = 0;
void HandleReloadSignal(int) { g_reload = 1; }

/// Exports the serve.artifact.* gauges for whichever model is live.
void ExportArtifactGauges(const kgag::serve::FrozenModel& model,
                          uint64_t load_micros) {
  KGAG_GAUGE_SET("serve.artifact.load_micros",
                 static_cast<double>(load_micros));
  KGAG_GAUGE_SET("serve.artifact.mapped_bytes",
                 static_cast<double>(model.mapping->mapped_bytes()));
  KGAG_GAUGE_SET("serve.artifact.resident_bytes",
                 static_cast<double>(model.mapping->ResidentBytes()));
}

/// \brief Serializes reload triggers (watcher thread, /reload handler,
/// SIGHUP from the main loop) onto one load+swap path and keeps the
/// bookkeeping /statusz shows under "reload".
class Reloader {
 public:
  Reloader(std::string path, kgag::serve::ServingEngine* engine)
      : path_(std::move(path)), engine_(engine) {}

  /// Loads the artifact and swaps it in. Failure leaves the live model
  /// untouched — a bad artifact on disk must never take serving down.
  kgag::Status Reload(const char* trigger) {
    std::lock_guard<std::mutex> lock(mu_);
    kgag::Stopwatch watch;
    kgag::Result<kgag::serve::FrozenModel> loaded =
        kgag::serve::LoadFrozenModelMmap(path_);
    if (!loaded.ok()) {
      ++failures_;
      last_error_ = loaded.status().ToString();
      std::fprintf(stderr, "reload (%s): %s\n", trigger,
                   last_error_.c_str());
      return loaded.status();
    }
    const uint64_t load_micros = watch.ElapsedMicros();
    auto next = std::make_shared<const kgag::serve::FrozenModel>(
        std::move(*loaded));
    kgag::Status swapped = engine_->SwapModel(next);
    if (!swapped.ok()) {
      ++failures_;
      last_error_ = swapped.ToString();
      return swapped;
    }
    ++count_;
    last_error_.clear();
    ExportArtifactGauges(*next, load_micros);
    std::printf("reload (%s): %s -> %s (%d users x %d items, %s, %.1f ms)\n",
                trigger, path_.c_str(), engine_->model_version().c_str(),
                next->num_users, next->num_items,
                kgag::QuantTypeName(next->quant), load_micros / 1000.0);
    std::fflush(stdout);
    return kgag::Status::OK();
  }

  std::string StatusJson() {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{\"count\": " << count_ << ", \"failures\": " << failures_
       << ", \"watching\": " << (watching_ ? "true" : "false")
       << ", \"last_error\": \"" << last_error_ << "\"}";
    return os.str();
  }

  /// Polls (mtime, size) of the artifact; a change that holds stable for
  /// one further interval triggers a reload. Publishers rename
  /// atomically, so stability is a courtesy (coalesce bursts), not a
  /// correctness requirement.
  void WatchLoop(int interval_ms) {
    watching_ = true;
    auto signature = [&]() -> std::pair<int64_t, int64_t> {
      struct stat st;
      if (::stat(path_.c_str(), &st) != 0) return {-1, -1};
      return {static_cast<int64_t>(st.st_mtime),
              static_cast<int64_t>(st.st_size)};
    };
    std::pair<int64_t, int64_t> live = signature();
    std::pair<int64_t, int64_t> pending{-1, -1};
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      const auto now = signature();
      if (now.first < 0 || now == live) {
        pending = {-1, -1};
        continue;
      }
      if (now == pending) {
        if (Reload("watch").ok()) live = now;
        pending = {-1, -1};
      } else {
        pending = now;
      }
    }
  }

 private:
  const std::string path_;
  kgag::serve::ServingEngine* engine_;
  std::mutex mu_;
  uint64_t count_ = 0;
  uint64_t failures_ = 0;
  std::atomic<bool> watching_{false};
  std::string last_error_;
};

/// Submits `n` random-group requests through the micro-batch path and
/// waits for them all, so /metrics, /statusz and /tracez show a served
/// workload immediately.
void RunSelfTraffic(kgag::serve::ServingEngine* engine, int n) {
  using kgag::serve::TopKRequest;
  const int32_t num_users = engine->model()->num_users;
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int32_t> user(0, num_users - 1);
  std::uniform_int_distribution<int> size(1, 3);
  std::vector<std::future<kgag::Result<kgag::serve::TopKResult>>> futures;
  futures.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TopKRequest req;
    const int members = size(rng);
    for (int m = 0; m < members; ++m) req.members.push_back(user(rng));
    req.k = 10;
    futures.push_back(engine->Submit(std::move(req)));
  }
  int failed = 0;
  for (auto& f : futures) {
    if (!f.get().ok()) ++failed;
  }
  std::printf("selftraffic: %d requests (%d failed), %llu batches\n", n,
              failed,
              static_cast<unsigned long long>(engine->batches_run()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgag;
  const Flags flags = Parse(argc, argv);
  if (flags.artifact.empty()) {
    std::fprintf(stderr,
                 "usage: serve_model --artifact=FILE [--port=N] "
                 "[--data_port=N] [--selftraffic=N] [--duration_s=S] "
                 "[--max_batch=N] [--max_queue=N] [--watch] "
                 "[--watch_interval_ms=MS]\n");
    return 2;
  }
  // Pool task wait/run series, the queue-depth gauge and log-line
  // counters on /metrics.
  KGAG_OBS_ONLY(obs::InstallDefaultInstrumentation();)

  Stopwatch load_watch;
  Result<serve::FrozenModel> loaded =
      serve::LoadFrozenModelMmap(flags.artifact);
  const uint64_t load_micros = load_watch.ElapsedMicros();
  if (!loaded.ok()) {
    std::fprintf(stderr, "artifact: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  // Shared ownership from the start: a hot swap retires this model only
  // once the last in-flight batch holding it drains.
  auto model =
      std::make_shared<const serve::FrozenModel>(std::move(*loaded));
  ExportArtifactGauges(*model, load_micros);
  std::printf(
      "loaded %s (%s): %d users x %d items, dim %d, precision %s, "
      "%.1f ms\n",
      flags.artifact.c_str(),
      model->mapping->is_mmap() ? "mmap" : "owned buffer",
      model->num_users, model->num_items, model->dim,
      QuantTypeName(model->quant), load_micros / 1000.0);

  obs::TraceRecorder::Global().SetEnabled(true);

  // One worker per hardware thread (0): the engine's scan fans each
  // batch's item tiles out over it. Declared before the engine, which
  // borrows it, so it outlives every batch.
  ThreadPool scan_pool(0);
  serve::ServingEngine::Options engine_options;
  engine_options.pool = &scan_pool;
  engine_options.max_batch = flags.max_batch;
  engine_options.max_queue = flags.max_queue;
  engine_options.slo_objectives = obs::DefaultServingObjectives();
  serve::ServingEngine engine(model, engine_options);
  model.reset();  // the engine's slot is the only owner now
  serve::NetServer data_plane(&engine, {.port = flags.data_port});
  Reloader reloader(flags.artifact, &engine);

  obs::IntrospectionServer server({.port = flags.port});
  obs::RegisterDefaultIntrospection(&server);
  server.AddStatusSource("artifact", [&] {
    return serve::ArtifactStatusJson(*engine.model_ref());
  });
  server.AddStatusSource("engine", [&] { return engine.StatusJson(); });
  server.AddStatusSource("net", [&] { return data_plane.StatusJson(); });
  server.AddStatusSource("reload", [&] { return reloader.StatusJson(); });
  server.Handle("/reload", [&] {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    Status st = reloader.Reload("http");
    if (st.ok()) {
      resp.body = "{\"ok\": true, \"version\": \"" +
                  engine.model_version() + "\"}\n";
    } else {
      resp.status = 500;
      resp.body =
          "{\"ok\": false, \"error\": \"" + st.ToString() + "\"}\n";
    }
    return resp;
  });
  // Refresh derived gauges on every scrape so /metrics never shows a
  // stale burn rate or stale residency (pages fault in as queries touch
  // them).
  server.SetRefresh([&] {
    if (engine.slo() != nullptr) engine.slo()->ExportGauges();
    const std::shared_ptr<const serve::FrozenModel> live = engine.model_ref();
    KGAG_GAUGE_SET("serve.artifact.resident_bytes",
                   live->mapping->ResidentBytes());
  });
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "introspection: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  Status net_started = data_plane.Start();
  if (!net_started.ok()) {
    std::fprintf(stderr, "data plane: %s\n", net_started.ToString().c_str());
    return 1;
  }
  // Scripts parse these lines for the bound (possibly ephemeral) ports.
  std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::printf("data plane on 127.0.0.1:%d\n", data_plane.port());
  std::fflush(stdout);

  if (flags.selftraffic > 0) RunSelfTraffic(&engine, flags.selftraffic);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGHUP, HandleReloadSignal);
  std::thread watcher;
  if (flags.watch) {
    watcher = std::thread(
        [&] { reloader.WatchLoop(flags.watch_interval_ms); });
    std::printf("watching %s every %d ms\n", flags.artifact.c_str(),
                flags.watch_interval_ms);
    std::fflush(stdout);
  }
  const auto start = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      (void)reloader.Reload("sighup");
    }
    if (flags.duration_s > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= flags.duration_s) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  g_stop = 1;  // stops the watcher even on a --duration_s exit
  if (watcher.joinable()) watcher.join();

  data_plane.Stop();
  server.Stop();
  std::printf("served %llu requests; bye\n",
              static_cast<unsigned long long>(engine.requests_served()));
  return 0;
}
