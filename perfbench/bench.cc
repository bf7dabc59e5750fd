#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

size_t WorkerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hw == 0 ? 1 : hw));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& at_s, double p,
                          size_t min_per_window, size_t max_windows) {
  if (values.empty() || values.size() != at_s.size()) return 0.0;
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return at_s[a] < at_s[b]; });
  const size_t windows = std::clamp<size_t>(
      values.size() / std::max<size_t>(1, min_per_window), 1,
      std::max<size_t>(1, max_windows));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = values.size() * w / windows;
    const size_t end = values.size() * (w + 1) / windows;
    std::vector<double> chunk;
    chunk.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) chunk.push_back(values[order[i]]);
    per_window.push_back(Percentile(std::move(chunk), p));
  }
  return Median(std::move(per_window));
}

double MedianRate(const std::vector<double>& event_s, double bin_s) {
  if (event_s.empty() || bin_s <= 0.0) return 0.0;
  const double last = *std::max_element(event_s.begin(), event_s.end());
  const auto bins = static_cast<size_t>(last / bin_s);
  if (bins == 0) return 0.0;
  std::vector<double> counts(bins, 0.0);
  for (double t : event_s) {
    const auto b = static_cast<size_t>(t / bin_s);
    if (b < bins) counts[b] += 1.0;
  }
  return Median(std::move(counts)) / bin_s;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision JSON number (finite values only; anything else is
/// reported as 0 and flagged by the caller's checks).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, {value, unit}});
}

bool Result::Has(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.first == name) return true;
  }
  return false;
}

void Result::Fail(const std::string& why) {
  correct_ = false;
  std::cerr << "check failed: " << why << "\n";
}

void Result::Record(const std::string& key, const std::string& value) {
  record_.push_back({key, JsonString(value)});
}

void Result::Record(const std::string& key, double value) {
  record_.push_back({key, JsonNumber(value)});
}

void Result::Print() const {
  std::ostringstream rec;
  rec << "{";
  for (size_t i = 0; i < record_.size(); ++i) {
    rec << (i ? ", " : "") << JsonString(record_[i].first) << ": "
        << record_[i].second;
  }
  rec << "}";
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(1, attempted_)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(metrics_[i].first)
        << ": {\"value\": " << JsonNumber(metrics_[i].second.first)
        << ", \"unit\": " << JsonString(metrics_[i].second.second) << "}";
  }
  out << "}}";
  std::cout << "record " << rec.str() << "\n" << out.str() << std::endl;
}

// --- Tracer -------------------------------------------------------------------

namespace {

struct Event {
  const char* name;
  uint64_t id;
  uint64_t parent;
  double dur_s;
};

struct ThreadBuffer {
  std::vector<Event> events;
  std::vector<uint64_t> open;  ///< ids of this thread's open spans
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->events.reserve(1 << 12);
    local = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(owned));
  }
  return local;
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::map<std::string, SpanStats> Tracer::Aggregate() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::unordered_map<uint64_t, double> child_time;
  for (const auto& buf : Buffers()) {
    for (const Event& e : buf->events) {
      if (e.parent != 0) child_time[e.parent] += e.dur_s;
    }
  }
  std::map<std::string, SpanStats> out;
  for (const auto& buf : Buffers()) {
    for (const Event& e : buf->events) {
      SpanStats& s = out[e.name];
      ++s.count;
      s.total_s += e.dur_s;
      const auto it = child_time.find(e.id);
      s.self_s += e.dur_s - (it == child_time.end() ? 0.0 : it->second);
    }
  }
  return out;
}

Span::Span(const char* name) : name_(name) {
  if (!Tracer::enabled()) return;
  ThreadBuffer* buf = LocalBuffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf->open.empty() ? 0 : buf->open.back();
  buf->open.push_back(id_);
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const double dur = SecondsSince(start_);
  ThreadBuffer* buf = LocalBuffer();
  buf->open.pop_back();
  buf->events.push_back({name_, id_, parent_, dur});
}

}  // namespace perfbench
