// Shared pieces of the benchmark program: command-line arguments, the
// result line, robust statistics, process probes and the in-memory span
// tracer used by traced runs.
//
// Spans are recorded only from the benchmark's own files, around calls
// into the library's public functions; nothing inside the library is
// instrumented for these numbers (its own obs tracing stays off).
#ifndef KGAG_PERFBENCH_BENCH_H_
#define KGAG_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
};

/// min(4, hardware threads): the cap on client threads, connections and
/// every worker pool the workloads create.
size_t WorkerThreads();

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Splits the samples, ordered by `at_s`, into as many equal-count
/// windows of at least `min_per_window` samples as fit (at most
/// `max_windows`, at least one) and returns the median over windows of
/// each window's p-percentile. A transient stall then moves one window,
/// not the reported figure.
double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& at_s, double p,
                          size_t min_per_window, size_t max_windows);

/// Median over the full `bin_s`-second bins of [0, last event) of the
/// events per second in each bin; 0 when no bin is full.
double MedianRate(const std::vector<double>& event_s, double bin_s);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// \brief The benchmark's result: the JSON object printed as the last
/// line of standard output, plus a run record printed just before it.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Adds `n` attempted operations of which `failed` failed.
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Marks an output check as failed (one failed operation).
  void Fail(const std::string& why);
  void Record(const std::string& key, const std::string& value);
  void Record(const std::string& key, double value);

  bool correct() const { return correct_; }
  bool Has(const std::string& name) const;
  /// Prints the run record line, then the result line.
  void Print() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;  // JSON values
};

// --- Tracing ----------------------------------------------------------------

/// Per-name aggregate of the recorded spans.
struct SpanStats {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus time covered by child spans
};

/// \brief Lossless in-memory span store. Each thread appends to its own
/// buffer; nothing is written out until Aggregate() runs at the end.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Aggregates every span recorded so far by name. Call when no span is
  /// open on any thread.
  static std::map<std::string, SpanStats> Aggregate();
};

/// RAII span; a no-op unless the tracer is enabled. `name` must be a
/// string literal. Nested spans on one thread are children of the
/// enclosing one.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Clock::time_point start_;
};

/// Runs `fn` inside a span and returns its wall time in seconds (the
/// time is measured whether or not tracing is on).
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  Span span(name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

}  // namespace perfbench

#endif  // KGAG_PERFBENCH_BENCH_H_
