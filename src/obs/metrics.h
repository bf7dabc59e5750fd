// Process-wide metrics: lock-free counters, gauges and HDR log-bucketed
// histograms (obs/hdr_histogram.h, the one distribution type). Hot-path
// writes go to per-thread shards (each thread owns a stripe of relaxed
// atomics, so increments never contend in the common case); readers
// merge all stripes on demand. Snapshots are exported as JSONL (one JSON
// object per line, one line per epoch/eval) and as a Prometheus-style
// text dump.
//
// Call sites normally go through the KGAG_COUNTER_ADD / KGAG_GAUGE_SET /
// KGAG_HDR_OBSERVE macros in obs/obs.h, which cache the metric
// pointer in a function-local static and compile to nothing when
// KGAG_OBS_ENABLED is off. The classes here are always available, so
// drivers and tests can use the registry directly in either build mode.
#ifndef KGAG_OBS_METRICS_H_
#define KGAG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/hdr_histogram.h"

namespace kgag {
namespace obs {

/// Number of shard stripes per metric. Each thread is assigned one stripe
/// (round-robin at first use); with more live threads than stripes two
/// threads may share one, which stays correct because all shard writes are
/// atomic read-modify-writes.
inline constexpr size_t kMetricStripes = 64;

/// Stable per-thread stripe index in [0, kMetricStripes).
size_t ThreadStripe();

/// Small sequential id of the calling thread (0 for the first thread that
/// asks, 1 for the second, ...). Shared by trace events and log lines.
uint32_t ObsThreadId();

/// \brief Monotonic counter, sharded per thread.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Merged value across all stripes.
  uint64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name);

  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };

  std::string name_;
  std::unique_ptr<Shard[]> shards_;  // kMetricStripes entries
};

/// \brief Last-write-wins instantaneous value (doubles stored as bits so
/// the update is a single relaxed store).
class Gauge {
 public:
  void Set(double v);
  double Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name);

  std::string name_;
  std::atomic<uint64_t> bits_{0};
};

/// \brief Owns all metrics; creation is mutex-guarded, updates are
/// lock-free through the returned handles (stable addresses for the
/// registry's lifetime).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (leaked singleton: safe to touch from static
  /// destructors and late-exiting worker threads).
  static MetricsRegistry& Global();

  /// Returns the named metric, creating it on first use. The pointer is
  /// stable; hot paths should cache it (the obs.h macros do).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// Log-bucketed histogram with exact-count quantiles (hdr_histogram.h);
  /// needs no bounds — every series shares the same ~3% grid.
  HdrHistogram* GetHdrHistogram(std::string_view name);

  /// nullptr when the metric was never registered.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const HdrHistogram* FindHdrHistogram(std::string_view name) const;

  size_t NumMetrics() const;

  /// One JSON object (single line, no trailing newline) with every metric
  /// merged: {"label":..,"seq":..,"counters":{..},"gauges":{..},
  /// "hdr_histograms":{..}}. `seq` increments per call.
  std::string JsonSnapshot(std::string_view label) const;

  /// Prometheus text exposition of every metric (kgag_ prefix, dots
  /// mapped to underscores, HDR histograms as quantile summaries).
  std::string PrometheusText() const;

 private:
  mutable std::mutex mutex_;  // guards the maps, never the shard writes
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HdrHistogram>, std::less<>>
      hdr_histograms_;
  mutable std::atomic<uint64_t> snapshot_seq_{0};
};

}  // namespace obs
}  // namespace kgag

#endif  // KGAG_OBS_METRICS_H_
