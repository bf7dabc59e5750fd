// HDR-style log-bucketed histogram (DESIGN.md §12): the one distribution
// type in the metrics registry, for latencies and small counts alike.
//
// It needs no configuration: values are bucketed on a base-2 logarithmic
// grid with 32 sub-buckets per octave, so every bucket is at most ~3.1%
// wide relative to its value, across the whole range [0, 2^42) (in
// microseconds: sub-nanosecond granularity near zero up to ~52 days);
// integers below 32 get exact unit buckets. Quantile extraction is exact
// counting — the returned value is the upper edge of the bucket holding
// the nearest-rank observation, guaranteed within one bucket width of the
// true sample quantile.
//
// Writes are lock-free: each thread owns a stripe of relaxed atomics
// (same discipline as Counter); readers merge stripes into an
// HdrSnapshot, and snapshots merge/subtract bucket-wise, so deltas over
// a window and shard aggregation across processes are plain vector sums.
#ifndef KGAG_OBS_HDR_HISTOGRAM_H_
#define KGAG_OBS_HDR_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace kgag {
namespace obs {

/// \brief Mergeable point-in-time view of an HdrHistogram (or of a delta
/// between two views). Plain data: copy, subtract and merge freely.
struct HdrSnapshot {
  std::vector<uint64_t> counts;  ///< one cell per log bucket
  double sum = 0.0;              ///< sum of observed values
  uint64_t total = 0;            ///< number of observations

  /// Nearest-rank quantile, p in [0, 1]: the upper edge of the bucket
  /// holding the round(p * (total - 1))-th smallest observation. 0 when
  /// empty.
  double Quantile(double p) const;

  double Mean() const {
    return total == 0 ? 0.0 : sum / static_cast<double>(total);
  }

  /// Bucket-wise accumulate (associative and commutative).
  HdrSnapshot& Merge(const HdrSnapshot& other);

  /// Bucket-wise subtract `earlier` from this snapshot — the window delta
  /// between two reads of the same histogram. Counts must not underflow
  /// (checked).
  HdrSnapshot& Subtract(const HdrSnapshot& earlier);
};

/// \brief Lock-free log-bucketed histogram. Create through
/// MetricsRegistry::GetHdrHistogram; addresses are stable for the
/// registry's lifetime.
class HdrHistogram {
 public:
  /// Sub-buckets per octave (2^5 = 32): relative bucket width <= 2^-5.
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSubCount = uint64_t{1} << kSubBits;
  /// Values are clamped to [0, 2^42): at microsecond units that is ~52
  /// days, far beyond any latency this process can observe.
  static constexpr int kMaxExponent = 42;
  /// Dense bucket count for the full clamped range.
  static constexpr size_t kNumBuckets =
      (kMaxExponent - kSubBits) * kSubCount + kSubCount;
  /// Writer stripes. Fewer than kMetricStripes: an HDR histogram carries
  /// ~1.2K cells per stripe, and serve paths have few concurrent writers.
  static constexpr size_t kStripes = 16;

  /// Dense bucket index for a value (negatives clamp to 0).
  static size_t BucketFor(double v);
  /// Smallest / largest value mapping to bucket `idx`.
  static double BucketLowerEdge(size_t idx);
  static double BucketUpperEdge(size_t idx);

  void Observe(double v);

  /// Merged view across all stripes.
  HdrSnapshot Snapshot() const;

  uint64_t TotalCount() const { return Snapshot().total; }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit HdrHistogram(std::string name);

  std::string name_;
  // Row layout per stripe: [bucket 0 .. kNumBuckets-1] [sum bits]
  // [observation count]. Rows are cache-line padded via stride_.
  size_t stride_;
  std::unique_ptr<std::atomic<uint64_t>[]> cells_;
};

}  // namespace obs
}  // namespace kgag

#endif  // KGAG_OBS_HDR_HISTOGRAM_H_
