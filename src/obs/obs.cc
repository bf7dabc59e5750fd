#include "obs/obs.h"

#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace kgag {
namespace obs {

namespace {

std::mutex g_jsonl_mutex;
std::ofstream* g_jsonl = nullptr;  // guarded by g_jsonl_mutex

/// Publishes pool activity into the global registry. Histogram/gauge
/// handles are resolved once at construction; updates are lock-free.
class PoolMetricsObserver : public ThreadPoolObserver {
 public:
  PoolMetricsObserver()
      : wait_(MetricsRegistry::Global().GetHdrHistogram(
            "threadpool.task_wait_us")),
        run_(MetricsRegistry::Global().GetHdrHistogram(
            "threadpool.task_run_us")),
        depth_(MetricsRegistry::Global().GetGauge("threadpool.queue_depth")),
        parallel_fors_(MetricsRegistry::Global().GetCounter(
            "threadpool.parallel_for.calls")),
        parallel_items_(MetricsRegistry::Global().GetCounter(
            "threadpool.parallel_for.items")) {}

  void OnTaskQueued(size_t queue_depth) override {
    depth_->Set(static_cast<double>(queue_depth));
  }

  void OnTaskDone(double wait_us, double run_us) override {
    wait_->Observe(wait_us);
    run_->Observe(run_us);
  }

  void OnParallelFor(size_t n, size_t grain) override {
    (void)grain;
    parallel_fors_->Increment();
    parallel_items_->Add(n);
  }

 private:
  HdrHistogram* wait_;
  HdrHistogram* run_;
  Gauge* depth_;
  Counter* parallel_fors_;
  Counter* parallel_items_;
};

}  // namespace

Status OpenMetricsJsonl(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*file) {
    return Status::IoError("cannot open metrics sink: " + path);
  }
  std::lock_guard<std::mutex> lock(g_jsonl_mutex);
  delete g_jsonl;
  g_jsonl = file.release();
  return Status::OK();
}

void CloseMetricsJsonl() {
  std::lock_guard<std::mutex> lock(g_jsonl_mutex);
  delete g_jsonl;
  g_jsonl = nullptr;
}

bool MetricsJsonlOpen() {
  std::lock_guard<std::mutex> lock(g_jsonl_mutex);
  return g_jsonl != nullptr;
}

void SnapshotMetrics(std::string_view label) {
  if (!MetricsJsonlOpen()) return;
  // Merge outside the sink lock: snapshotting walks every metric stripe.
  const std::string line = MetricsRegistry::Global().JsonSnapshot(label);
  std::lock_guard<std::mutex> lock(g_jsonl_mutex);
  if (g_jsonl == nullptr) return;
  *g_jsonl << line << "\n";
  g_jsonl->flush();
}

void InstallDefaultInstrumentation() {
  static const bool installed = [] {
    SetThreadPoolObserver(new PoolMetricsObserver);  // leaked: outlives pools

    // Count log lines per level, then forward to whatever sink (or
    // stderr) was active before.
    LogSink previous = SetLogSink({});
    Counter* lines[4] = {
        MetricsRegistry::Global().GetCounter("log.lines.debug"),
        MetricsRegistry::Global().GetCounter("log.lines.info"),
        MetricsRegistry::Global().GetCounter("log.lines.warning"),
        MetricsRegistry::Global().GetCounter("log.lines.error"),
    };
    SetLogSink([previous = std::move(previous), lines](
                   LogLevel level, const std::string& line) {
      const int idx = static_cast<int>(level);
      if (idx >= 0 && idx < 4) lines[idx]->Increment();
      if (previous) {
        previous(level, line);
      } else {
        std::cerr << line << "\n";
      }
    });

    // KGAG_METRICS_JSONL=path auto-opens the sink, so any instrumented
    // binary can emit snapshots without code changes.
    if (const char* path = std::getenv("KGAG_METRICS_JSONL")) {
      if (path[0] != '\0') (void)OpenMetricsJsonl(path);
    }
    return true;
  }();
  (void)installed;
}

}  // namespace obs
}  // namespace kgag
