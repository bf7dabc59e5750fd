// Observability layer tests: metric shard merging under real ThreadPool
// concurrency, trace span nesting and ring wrap-around, the JSONL /
// Prometheus / chrome://tracing exporters, and an end-to-end check that a
// tiny KGAG train+eval run publishes the metrics the dashboards key on.
//
// Counters in the global registry are process-wide and monotonic, and
// every test in this binary shares them, so assertions use before/after
// deltas, never absolute values.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "eval/ranking_evaluator.h"
#include "models/kgag_model.h"
#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "test_util.h"

namespace kgag {
namespace {

using obs::MetricsRegistry;
using obs::TraceRecorder;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

size_t CountLines(const std::string& text) {
  size_t n = 0;
  for (char c : text) n += (c == '\n');
  return n;
}

TEST(MetricsTest, CounterMergesAcrossPoolThreads) {
  obs::Counter* c =
      MetricsRegistry::Global().GetCounter("test.counter_merge");
  const uint64_t before = c->Value();
  ThreadPool pool(4);
  // 1000 items x 7 each, incremented from whichever worker gets the item:
  // the merged value must be exact regardless of stripe assignment.
  pool.ParallelFor(1000, /*grain=*/8, [&](size_t) { c->Add(7); });
  EXPECT_EQ(c->Value() - before, 7000u);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  obs::Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge");
  g->Set(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 1.5);
  g->Set(-3.25);
  EXPECT_DOUBLE_EQ(g->Value(), -3.25);
}

TEST(MetricsTest, FindReturnsNullForUnknownNames) {
  EXPECT_EQ(MetricsRegistry::Global().FindCounter("test.never_created"),
            nullptr);
  EXPECT_EQ(MetricsRegistry::Global().FindGauge("test.never_created"),
            nullptr);
  EXPECT_EQ(MetricsRegistry::Global().FindHdrHistogram("test.never_created"),
            nullptr);
}

TEST(MetricsTest, JsonSnapshotAndPrometheusContainMetrics) {
  MetricsRegistry::Global().GetCounter("test.export_counter")->Add(3);
  MetricsRegistry::Global().GetGauge("test.export_gauge")->Set(2.5);
  const std::string json =
      MetricsRegistry::Global().JsonSnapshot("unit-test");
  EXPECT_NE(json.find("\"label\":\"unit-test\""), std::string::npos) << json;
  EXPECT_NE(json.find("test.export_counter"), std::string::npos);
  EXPECT_NE(json.find("test.export_gauge"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "snapshot must be 1 line";

  const std::string prom = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(prom.find("kgag_test_export_counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("kgag_test_export_gauge"), std::string::npos);
}

TEST(MetricsTest, JsonlSinkWritesOneLinePerSnapshot) {
  const std::string path = ::testing::TempDir() + "/obs_sink_test.jsonl";
  ASSERT_TRUE(obs::OpenMetricsJsonl(path).ok());
  EXPECT_TRUE(obs::MetricsJsonlOpen());
  MetricsRegistry::Global().GetCounter("test.sink_counter")->Increment();
  obs::SnapshotMetrics("first");
  obs::SnapshotMetrics("second");
  obs::CloseMetricsJsonl();
  EXPECT_FALSE(obs::MetricsJsonlOpen());

  const std::string text = ReadFile(path);
  EXPECT_EQ(CountLines(text), 2u) << text;
  EXPECT_NE(text.find("\"label\":\"first\""), std::string::npos);
  EXPECT_NE(text.find("\"label\":\"second\""), std::string::npos);
  EXPECT_NE(text.find("test.sink_counter"), std::string::npos);
}

TEST(TraceTest, SpansNestByTimeContainment) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  {
    obs::TraceSpan outer("test.outer");
    {
      obs::TraceSpan inner("test.inner");
    }
  }
  rec.SetEnabled(false);

  const std::vector<obs::TraceEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 2u);
  // Collect() sorts by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Containment is what chrome://tracing uses to draw the flame graph.
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  rec.Clear();
}

TEST(TraceTest, DisabledSpanRecordsNothing) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(false);
  {
    obs::TraceSpan span("test.disabled");
  }
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceTest, RingWrapDropsOldestAndCounts) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  const obs::Counter* dropped_probe =
      MetricsRegistry::Global().FindCounter("obs.trace.dropped_spans");
  const uint64_t dropped_before = dropped_probe ? dropped_probe->Value() : 0;
  const size_t total = TraceRecorder::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    rec.Record("test.wrap", static_cast<double>(i), 1.0);
  }
  rec.SetEnabled(false);
  EXPECT_EQ(rec.size(), TraceRecorder::kRingCapacity);
  EXPECT_GE(rec.dropped(), 100u);
  // Wrap-around is also surfaced as a counter (visible on /metrics and
  // /tracez), not only via dropped().
  const obs::Counter* dropped_counter =
      MetricsRegistry::Global().FindCounter("obs.trace.dropped_spans");
  ASSERT_NE(dropped_counter, nullptr);
  EXPECT_GE(dropped_counter->Value() - dropped_before, 100u);
  // The exported JSON carries the same count in its metadata block.
  EXPECT_NE(rec.ChromeTracingJson().find("\"dropped_spans\""),
            std::string::npos);
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceTest, RequestIdLinksSpansAcrossThreadsAndExports) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  {
    obs::TraceSpan span("test.req_span", /*req=*/77);
  }
  // Same request id recorded from another thread (the serving engine does
  // exactly this for serve.queue_wait: submitter clock, dispatcher record).
  std::thread other(
      [&rec] { rec.Record("test.req_span_other_thread", 10.0, 2.0, 77); });
  other.join();
  {
    obs::TraceSpan unlinked("test.no_req_span");
  }
  rec.SetEnabled(false);

  const std::vector<obs::TraceEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 3u);
  int linked = 0;
  uint32_t first_tid = 0, second_tid = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.req == 77) {
      if (linked == 0) first_tid = e.tid; else second_tid = e.tid;
      ++linked;
    } else {
      EXPECT_EQ(e.req, 0u);
      EXPECT_STREQ(e.name, "test.no_req_span");
    }
  }
  EXPECT_EQ(linked, 2);
  EXPECT_NE(first_tid, second_tid)
      << "the two linked spans must come from different threads";

  // chrome://tracing export annotates linked spans with the request id
  // and leaves unlinked spans without an args block.
  const std::string json = rec.ChromeTracingJson();
  EXPECT_NE(json.find("\"args\":{\"req\":77}"), std::string::npos) << json;
  rec.Clear();
}

TEST(TraceTest, ChromeTracingExportIsLoadableJson) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  {
    obs::TraceSpan span("test.export_span");
  }
  rec.SetEnabled(false);

  const std::string json = rec.ChromeTracingJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "spans must be complete events";

  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(rec.ExportChromeTracing(path).ok());
  EXPECT_EQ(ReadFile(path), json);
  rec.Clear();
}

// ---------------------------------------------------------------------------
// HdrHistogram: log-bucketed exact-count quantiles.

/// Nearest-rank quantile over raw samples — the same rank rule
/// HdrSnapshot::Quantile applies to bucket counts.
double NearestRank(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(
      std::llround(p * static_cast<double>(samples.size() - 1)));
  return samples[rank];
}

/// Width of the bucket holding `v`. The +1 covers the integer floor of
/// the sub-32 unit buckets (a raw 31.7 lands in the [31, 31] bucket).
double BucketWidthAt(double v) {
  const size_t b = obs::HdrHistogram::BucketFor(v);
  return obs::HdrHistogram::BucketUpperEdge(b) -
         obs::HdrHistogram::BucketLowerEdge(b) + 1.0;
}

TEST(HdrHistogramTest, BucketEdgesContainTheirValues) {
  for (double v : {0.0, 1.0, 7.5, 31.0, 31.9, 32.0, 33.0, 100.0, 12345.678,
                   1e6, 4.2e9, 3.9e12}) {
    const size_t b = obs::HdrHistogram::BucketFor(v);
    ASSERT_LT(b, obs::HdrHistogram::kNumBuckets) << v;
    EXPECT_LE(obs::HdrHistogram::BucketLowerEdge(b), v) << v;
    EXPECT_LT(v, obs::HdrHistogram::BucketUpperEdge(b) + 1.0) << v;
  }
  // Bucket index is monotone in the value, and every bucket is at most
  // ~2^-5 wide relative to its lower edge once past the unit-bucket zone.
  size_t prev = 0;
  for (double v = 1.0; v < 1e12; v *= 1.37) {
    const size_t b = obs::HdrHistogram::BucketFor(v);
    EXPECT_GE(b, prev) << v;
    prev = b;
    if (v >= 32.0) {
      const double lo = obs::HdrHistogram::BucketLowerEdge(b);
      const double hi = obs::HdrHistogram::BucketUpperEdge(b);
      EXPECT_LE((hi - lo) / lo, 1.0 / 32.0 + 1e-9) << v;
    }
  }
}

TEST(HdrHistogramTest, QuantilesMatchSortedReferenceOnAdversarialShapes) {
  struct Case {
    const char* name;
    std::vector<double> samples;
  };
  std::vector<Case> cases;
  // Point mass: every quantile is the same bucket.
  cases.push_back({"point_mass", std::vector<double>(10000, 12345.678)});
  // Bimodal with a 5-decade gap: the median sits exactly on the cliff
  // between the modes, where a one-off rank error would be ~1e6 wrong.
  {
    std::vector<double> s(5000, 3.0);
    s.insert(s.end(), 5000, 1e6);
    cases.push_back({"bimodal", std::move(s)});
  }
  // Heavy tail: exponentially spread over ~9 decades, so p999 lives in a
  // region with almost no mass.
  {
    std::vector<double> s;
    s.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      s.push_back(10.0 * std::exp(0.002 * i));
    }
    cases.push_back({"heavy_tail", std::move(s)});
  }

  int case_idx = 0;
  for (const Case& c : cases) {
    obs::HdrHistogram* h = MetricsRegistry::Global().GetHdrHistogram(
        std::string("test.hdr_adversarial_") + c.name);
    for (double v : c.samples) h->Observe(v);
    const obs::HdrSnapshot snap = h->Snapshot();
    ASSERT_EQ(snap.total, c.samples.size()) << c.name;
    for (double p : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double raw = NearestRank(c.samples, p);
      EXPECT_NEAR(snap.Quantile(p), raw, BucketWidthAt(raw))
          << c.name << " p=" << p;
    }
    ++case_idx;
  }
  EXPECT_EQ(case_idx, 3);
}

TEST(HdrHistogramTest, EmptySnapshotQuantileIsZero) {
  obs::HdrHistogram* h =
      MetricsRegistry::Global().GetHdrHistogram("test.hdr_empty");
  const obs::HdrSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HdrHistogramTest, MergeIsAssociativeAndSubtractInverts) {
  obs::HdrHistogram* ha =
      MetricsRegistry::Global().GetHdrHistogram("test.hdr_merge_a");
  obs::HdrHistogram* hb =
      MetricsRegistry::Global().GetHdrHistogram("test.hdr_merge_b");
  obs::HdrHistogram* hc =
      MetricsRegistry::Global().GetHdrHistogram("test.hdr_merge_c");
  for (int i = 0; i < 100; ++i) ha->Observe(10.0 + i);
  for (int i = 0; i < 50; ++i) hb->Observe(1e5 + 13.0 * i);
  for (int i = 0; i < 25; ++i) hc->Observe(0.5);
  const obs::HdrSnapshot a = ha->Snapshot();
  const obs::HdrSnapshot b = hb->Snapshot();
  const obs::HdrSnapshot c = hc->Snapshot();

  // (a + b) + c == a + (b + c): shard aggregation order cannot matter.
  obs::HdrSnapshot left = a;
  left.Merge(b);
  left.Merge(c);
  obs::HdrSnapshot bc = b;
  bc.Merge(c);
  obs::HdrSnapshot right = a;
  right.Merge(bc);
  EXPECT_EQ(left.counts, right.counts);
  EXPECT_EQ(left.total, right.total);
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  EXPECT_EQ(left.total, a.total + b.total + c.total);

  // Subtract undoes Merge: the window-delta identity that per-window
  // stats (e.g. the serving tests' request-count windows) rely on.
  obs::HdrSnapshot delta = left;
  delta.Subtract(a);
  delta.Subtract(c);
  EXPECT_EQ(delta.counts, b.counts);
  EXPECT_EQ(delta.total, b.total);
  EXPECT_NEAR(delta.sum, b.sum, 1e-6 * b.sum);
}

TEST(HdrHistogramTest, ConcurrentObserveIsExactAcrossStripes) {
  obs::HdrHistogram* h =
      MetricsRegistry::Global().GetHdrHistogram("test.hdr_concurrent");
  ThreadPool pool(4);
  // Values 0..15 land in 16 distinct unit buckets; each must count
  // exactly 625 regardless of which stripe each worker hit.
  pool.ParallelFor(10000, /*grain=*/8, [&](size_t i) {
    h->Observe(static_cast<double>(i % 16));
  });
  const obs::HdrSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.total, 10000u);
  EXPECT_NEAR(snap.sum, 625.0 * (15.0 * 16.0 / 2.0), 1e-6);
  for (int v = 0; v < 16; ++v) {
    EXPECT_EQ(snap.counts[obs::HdrHistogram::BucketFor(v)], 625u) << v;
  }
}

// ---------------------------------------------------------------------------
// SloTracker: sliding-window burn rates with injected time.

TEST(SloTest, DefaultServingObjectivesShape) {
  const std::vector<obs::SloObjective> objs = obs::DefaultServingObjectives();
  ASSERT_EQ(objs.size(), 2u);
  EXPECT_EQ(objs[0].name, "latency_p99");
  EXPECT_DOUBLE_EQ(objs[0].target, 0.99);
  EXPECT_GT(objs[0].latency_threshold_us, 0.0);
  EXPECT_EQ(objs[1].name, "availability");
  EXPECT_DOUBLE_EQ(objs[1].target, 0.999);
  EXPECT_EQ(objs[1].latency_threshold_us, 0.0);
  EXPECT_TRUE(objs[1].count_errors);
}

TEST(SloTest, WindowMathFromInjectedTime) {
  obs::SloTracker tracker(
      {{"lat", /*target=*/0.9, /*latency_threshold_us=*/100.0,
        /*count_errors=*/false}});
  // 90 good + 10 slow requests in one bucket: bad_rate = 0.1 = exactly
  // the error budget, so burn rate 1.0 in both windows.
  for (int i = 0; i < 90; ++i) {
    tracker.RecordRequestAtTime(50.0, /*error=*/false, /*now_s=*/5.0);
  }
  for (int i = 0; i < 10; ++i) {
    tracker.RecordRequestAtTime(200.0, /*error=*/false, /*now_s=*/5.0);
  }
  // count_errors=false: an errored-but-fast request is NOT bad for a
  // latency-only objective.
  tracker.RecordRequestAtTime(50.0, /*error=*/true, /*now_s=*/5.0);

  const std::vector<obs::SloTracker::ObjectiveState> states =
      tracker.EvaluateAtTime(5.0);
  ASSERT_EQ(states.size(), 1u);
  const obs::SloTracker::ObjectiveState& s = states[0];
  EXPECT_EQ(s.short_window.total, 101u);
  EXPECT_EQ(s.short_window.bad, 10u);
  EXPECT_NEAR(s.short_window.bad_rate, 10.0 / 101.0, 1e-12);
  EXPECT_NEAR(s.short_window.burn_rate, (10.0 / 101.0) / 0.1, 1e-9);
  EXPECT_EQ(s.long_window.total, 101u);
  EXPECT_EQ(s.long_window.bad, 10u);
  EXPECT_FALSE(s.burning) << "burn ~1.0 is below the 2.0 alert threshold";
}

TEST(SloTest, BurningRequiresBothWindowsOverThreshold) {
  const obs::SloObjective avail{"avail", /*target=*/0.99,
                                /*latency_threshold_us=*/0.0,
                                /*count_errors=*/true};
  // Case A: a long quiet stretch then a 10s bad burst. The short window
  // burns hot but the long window says the budget spend is immaterial —
  // no alert.
  obs::SloTracker burst({avail});
  for (int t = 10; t < 580; ++t) {
    for (int i = 0; i < 10; ++i) {
      burst.RecordRequestAtTime(100.0, /*error=*/false, t);
    }
  }
  for (int t = 590; t < 600; ++t) {
    for (int i = 0; i < 5; ++i) {
      burst.RecordRequestAtTime(100.0, /*error=*/false, t);
      burst.RecordRequestAtTime(100.0, /*error=*/true, t);
    }
  }
  {
    const auto states = burst.EvaluateAtTime(599.5);
    ASSERT_EQ(states.size(), 1u);
    EXPECT_EQ(states[0].long_window.bad, 50u);
    EXPECT_GE(states[0].long_window.total, 5000u);
    EXPECT_GT(states[0].short_window.burn_rate, 2.0);
    EXPECT_LT(states[0].long_window.burn_rate, 2.0);
    EXPECT_FALSE(states[0].burning)
        << "short-window burst alone must not alert";
  }

  // Case B: 10% errors sustained across the whole long window — both
  // windows burn at ~10x and the alert fires.
  obs::SloTracker sustained({avail});
  for (int t = 0; t < 600; t += 10) {
    for (int i = 0; i < 9; ++i) {
      sustained.RecordRequestAtTime(100.0, /*error=*/false, t);
    }
    sustained.RecordRequestAtTime(100.0, /*error=*/true, t);
  }
  {
    const auto states = sustained.EvaluateAtTime(599.5);
    ASSERT_EQ(states.size(), 1u);
    EXPECT_GT(states[0].short_window.burn_rate, 2.0);
    EXPECT_GT(states[0].long_window.burn_rate, 2.0);
    EXPECT_TRUE(states[0].burning);
  }
}

TEST(SloTest, BucketRingRecyclesPastTheLongWindow) {
  obs::SloTracker tracker({{"avail", 0.99, 0.0, true}});
  for (int i = 0; i < 100; ++i) {
    tracker.RecordRequestAtTime(100.0, /*error=*/true, /*now_s=*/5.0);
  }
  EXPECT_TRUE(tracker.EvaluateAtTime(5.0)[0].burning);
  // 700s later both windows have slid past the burst: the ring must not
  // resurrect the stale bucket.
  {
    const auto states = tracker.EvaluateAtTime(705.0);
    EXPECT_EQ(states[0].long_window.total, 0u);
    EXPECT_DOUBLE_EQ(states[0].long_window.bad_rate, 0.0);
    EXPECT_FALSE(states[0].burning);
  }
  // Recording after the wrap reuses recycled buckets cleanly.
  tracker.RecordRequestAtTime(100.0, /*error=*/false, /*now_s=*/710.0);
  const auto states = tracker.EvaluateAtTime(710.0);
  EXPECT_EQ(states[0].short_window.total, 1u);
  EXPECT_EQ(states[0].short_window.bad, 0u);
}

TEST(SloTest, ExportGaugesAndStateJsonPublish) {
  obs::SloTracker tracker({{"test_export", 0.99, 0.0, true}});
  tracker.RecordRequest(/*latency_us=*/80.0, /*error=*/false);
  tracker.ExportGauges();
  for (const char* name :
       {"slo.test_export.bad_rate", "slo.test_export.burn_rate_short",
        "slo.test_export.burn_rate_long", "slo.test_export.burning"}) {
    EXPECT_NE(MetricsRegistry::Global().FindGauge(name), nullptr) << name;
  }
  const std::string json = tracker.StateJson();
  EXPECT_NE(json.find("\"test_export\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"burn_rate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"burning\""), std::string::npos) << json;
}

#if KGAG_OBS_ACTIVE

TEST(ObsMacrosTest, MacrosPublishToGlobalRegistry) {
  const obs::Counter* before_probe =
      MetricsRegistry::Global().FindCounter("test.macro_counter");
  const uint64_t before = before_probe ? before_probe->Value() : 0;
  for (int i = 0; i < 5; ++i) {
    KGAG_COUNTER_ADD("test.macro_counter", 2);
  }
  KGAG_GAUGE_SET("test.macro_gauge", 42);

  const obs::Counter* c =
      MetricsRegistry::Global().FindCounter("test.macro_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value() - before, 10u);
  const obs::Gauge* g =
      MetricsRegistry::Global().FindGauge("test.macro_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->Value(), 42.0);
}

TEST(ObsMacrosTest, HdrObserveMacroPublishes) {
  const obs::HdrHistogram* probe =
      MetricsRegistry::Global().FindHdrHistogram("test.macro_hdr");
  const uint64_t before = probe ? probe->Snapshot().total : 0;
  for (int i = 0; i < 8; ++i) {
    KGAG_HDR_OBSERVE("test.macro_hdr", 100.0 + i);
  }
  const obs::HdrHistogram* h =
      MetricsRegistry::Global().FindHdrHistogram("test.macro_hdr");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Snapshot().total - before, 8u);
  // HDR series export as Prometheus summaries with quantile labels.
  const std::string prom = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(prom.find("kgag_test_macro_hdr{quantile=\"0.99\"}"),
            std::string::npos)
      << prom;
}

TEST(ObsMacrosTest, ThreadPoolInstrumentationPublishes) {
  obs::InstallDefaultInstrumentation();
  const obs::Counter* calls_probe = MetricsRegistry::Global().FindCounter(
      "threadpool.parallel_for.calls");
  const uint64_t calls_before = calls_probe ? calls_probe->Value() : 0;
  // Installing the observer registers the task series, so the probe
  // always finds it.
  const obs::HdrHistogram* run =
      MetricsRegistry::Global().FindHdrHistogram("threadpool.task_run_us");
  ASSERT_NE(run, nullptr);
  const uint64_t runs_before = run->Snapshot().total;

  std::atomic<size_t> touched{0};
  {
    ThreadPool pool(2);
    pool.ParallelFor(64, /*grain=*/4,
                     [&](size_t) { touched.fetch_add(1); });
  }  // A worker records a task after fulfilling its future; joining the
     // workers makes every record visible.
  EXPECT_EQ(touched.load(), 64u);

  const obs::Counter* calls = MetricsRegistry::Global().FindCounter(
      "threadpool.parallel_for.calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_GE(calls->Value(), calls_before + 1);
  EXPECT_GT(run->Snapshot().total, runs_before);
}

// The acceptance-criteria check: a real (tiny) train + eval run must leave
// behind the metrics and spans the observability docs promise.
TEST(ObsEndToEndTest, TrainAndEvalPublishMetricsAndSpans) {
  const std::string jsonl_path =
      ::testing::TempDir() + "/obs_e2e_metrics.jsonl";
  const std::string trace_path =
      ::testing::TempDir() + "/obs_e2e_trace.json";
  ASSERT_TRUE(obs::OpenMetricsJsonl(jsonl_path).ok());
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);

  GroupRecDataset ds = testing_util::TinyRand();
  KgagConfig cfg;
  cfg.propagation.dim = 8;
  cfg.propagation.sample_size = 3;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.seed = 5;
  auto model = KgagModel::Create(&ds, cfg);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  (*model)->Fit();
  RankingEvaluator eval(&ds, 5);
  const EvalResult r = eval.EvaluateTest(model->get());
  EXPECT_GT(r.num_groups, 0u);

  obs::SnapshotMetrics("final");
  rec.SetEnabled(false);
  ASSERT_TRUE(rec.ExportChromeTracing(trace_path).ok());
  obs::CloseMetricsJsonl();

  // One snapshot per epoch (written by Fit) + the explicit final one.
  const std::string jsonl = ReadFile(jsonl_path);
  EXPECT_EQ(CountLines(jsonl), 3u) << jsonl;
  for (const char* key :
       {"train.loss", "train.examples", "train.grad_norm",
        "train.examples_per_sec", "gemm.flops", "gemm.calls",
        "negsampler.samples", "propagation.forward.calls",
        "attention.aggregate.calls"}) {
    EXPECT_NE(jsonl.find(key), std::string::npos) << "missing " << key;
  }
  // Eval gauges only exist in the post-eval snapshot; the row counters
  // give the member/item sharing of the batch scorer.
  const std::string final_line = jsonl.substr(jsonl.rfind("{\"label\""));
  for (const char* key : {"eval.hit_at_k", "eval.ndcg_at_k",
                          "eval.member_rows", "eval.item_rows"}) {
    EXPECT_NE(final_line.find(key), std::string::npos) << "missing " << key;
  }

  const std::string trace = ReadFile(trace_path);
  for (const char* span :
       {"train.epoch", "train.batch", "train.backward",
        "train.optimizer_step", "propagation.forward", "propagation.iter0",
        "attention.aggregate", "eval.evaluate", "eval.member_table",
        "eval.item_reps", "eval.logits", "eval.rank"}) {
    EXPECT_NE(trace.find(span), std::string::npos) << "missing " << span;
  }
  rec.Clear();
}

#endif  // KGAG_OBS_ACTIVE

}  // namespace
}  // namespace kgag
