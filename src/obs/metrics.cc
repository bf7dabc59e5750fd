#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

namespace kgag {
namespace obs {

namespace {

std::atomic<uint32_t> g_next_thread_id{0};

struct ThreadIds {
  uint32_t id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  size_t stripe = id % kMetricStripes;
};

thread_local ThreadIds t_ids;

/// JSON-safe number: NaN/Inf are not valid JSON literals.
void AppendDouble(std::ostringstream* os, double v) {
  if (std::isfinite(v)) {
    *os << v;
  } else {
    *os << "null";
  }
}

/// Metric names here are dotted lowercase identifiers; Prometheus wants
/// [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PrometheusName(const std::string& name) {
  std::string out = "kgag_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

size_t ThreadStripe() { return t_ids.stripe; }

uint32_t ObsThreadId() { return t_ids.id; }

Counter::Counter(std::string name)
    : name_(std::move(name)), shards_(new Shard[kMetricStripes]) {}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (size_t s = 0; s < kMetricStripes; ++s) {
    total += shards_[s].v.load(std::memory_order_relaxed);
  }
  return total;
}

Gauge::Gauge(std::string name) : name_(std::move(name)) {
  bits_.store(std::bit_cast<uint64_t>(0.0), std::memory_order_relaxed);
}

void Gauge::Set(double v) {
  bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
}

double Gauge::Value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;  // leaked on exit
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

HdrHistogram* MetricsRegistry::GetHdrHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = hdr_histograms_.find(name);
  if (it == hdr_histograms_.end()) {
    it = hdr_histograms_
             .emplace(std::string(name), std::unique_ptr<HdrHistogram>(
                                             new HdrHistogram(std::string(name))))
             .first;
  }
  return it->second.get();
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const HdrHistogram* MetricsRegistry::FindHdrHistogram(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = hdr_histograms_.find(name);
  return it == hdr_histograms_.end() ? nullptr : it->second.get();
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + hdr_histograms_.size();
}

std::string MetricsRegistry::JsonSnapshot(std::string_view label) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os.precision(12);
  os << "{\"label\":\"" << label << "\",\"seq\":"
     << snapshot_seq_.fetch_add(1, std::memory_order_relaxed)
     << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\"" << name << "\":" << c->Value();
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\"" << name << "\":";
    AppendDouble(&os, g->Value());
    first = false;
  }
  // HDR series: quantiles, not raw buckets — ~1.2K cells per series would
  // swamp the line; the quantiles are exact-count (one bucket width).
  os << "},\"hdr_histograms\":{";
  first = true;
  for (const auto& [name, h] : hdr_histograms_) {
    const HdrSnapshot snap = h->Snapshot();
    os << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << snap.total
       << ",\"sum\":";
    AppendDouble(&os, snap.sum);
    for (const auto& [qkey, p] :
         {std::pair<const char*, double>{"p50", 0.50},
          {"p90", 0.90},
          {"p99", 0.99},
          {"p999", 0.999}}) {
      os << ",\"" << qkey << "\":";
      AppendDouble(&os, snap.Quantile(p));
    }
    os << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os.precision(12);
  for (const auto& [name, c] : counters_) {
    const std::string pn = PrometheusName(name);
    os << "# TYPE " << pn << " counter\n" << pn << " " << c->Value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string pn = PrometheusName(name);
    os << "# TYPE " << pn << " gauge\n" << pn << " " << g->Value() << "\n";
  }
  // HDR histograms export as summaries: precomputed quantile samples are
  // what dashboards want, and the dense log grid would be an unreadable
  // wall of _bucket lines.
  for (const auto& [name, h] : hdr_histograms_) {
    const std::string pn = PrometheusName(name);
    const HdrSnapshot snap = h->Snapshot();
    os << "# TYPE " << pn << " summary\n";
    for (const auto& [label, p] :
         {std::pair<const char*, double>{"0.5", 0.50},
          {"0.9", 0.90},
          {"0.99", 0.99},
          {"0.999", 0.999}}) {
      os << pn << "{quantile=\"" << label << "\"} " << snap.Quantile(p)
         << "\n";
    }
    os << pn << "_sum " << snap.sum << "\n";
    os << pn << "_count " << snap.total << "\n";
  }
  return os.str();
}

}  // namespace obs
}  // namespace kgag
