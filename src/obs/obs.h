// Umbrella header for the observability layer: the instrumentation macros
// every hot path uses, the process-wide JSONL metrics sink, and the glue
// that feeds ThreadPool and logging activity into the metrics registry.
//
// Build gating: the KGAG_OBS_ENABLED CMake option (default ON) defines
// KGAG_OBS_ENABLED for the whole build. When it is off, every macro below
// compiles to nothing — arguments are not evaluated, no registry is
// touched, no clocks are read — so instrumented hot paths carry zero
// overhead. The obs classes themselves (MetricsRegistry, TraceRecorder,
// the JSONL sink) stay available in both modes so drivers and tests can
// always use the direct API. A TU can force the no-op expansion under an
// enabled build by defining KGAG_OBS_FORCE_OFF before including this
// header (see tests/test_obs_noop.cc).
//
// Conventions:
//  * metric names are dotted lowercase ("gemm.flops", "train.loss");
//  * KGAG_TRACE_SPAN takes a string literal and traces the enclosing
//    scope; spans nest by scope, which Perfetto renders as a flame graph;
//  * distributions (latencies, batch sizes) go through KGAG_HDR_OBSERVE:
//    every series shares one ~3%-wide log grid, so they need no bounds and
//    stay comparable across subsystems;
//  * wrap obs-only setup statements (extra stopwatches etc.) in
//    KGAG_OBS_ONLY(...) so the disabled build drops them too.
#ifndef KGAG_OBS_OBS_H_
#define KGAG_OBS_OBS_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(KGAG_OBS_ENABLED) && !defined(KGAG_OBS_FORCE_OFF)
#define KGAG_OBS_ACTIVE 1
#else
#define KGAG_OBS_ACTIVE 0
#endif

namespace kgag {
namespace obs {

/// Opens (truncating) a JSONL metrics sink at `path`; SnapshotMetrics()
/// appends one JSON line per call until CloseMetricsJsonl(). Process-wide,
/// thread-safe.
Status OpenMetricsJsonl(const std::string& path);
void CloseMetricsJsonl();
bool MetricsJsonlOpen();

/// Writes one snapshot line of MetricsRegistry::Global() to the sink.
/// No-op when no sink is open, so library code may call this (via
/// KGAG_OBS_SNAPSHOT) unconditionally.
void SnapshotMetrics(std::string_view label);

/// Installs the ThreadPoolObserver that publishes the task wait/run latency
/// HDR histograms and the queue-depth gauge, and the log sink wrapper that
/// counts KGAG_LOG lines per level (forwarding them to the previous
/// sink). Idempotent; called automatically by instrumented entry points
/// when the obs build is active.
void InstallDefaultInstrumentation();

}  // namespace obs
}  // namespace kgag

#if KGAG_OBS_ACTIVE

#define KGAG_OBS_CONCAT_INNER(a, b) a##b
#define KGAG_OBS_CONCAT(a, b) KGAG_OBS_CONCAT_INNER(a, b)

/// Traces the enclosing scope as one span. `name` must be a string
/// literal.
#define KGAG_TRACE_SPAN(name)                                 \
  ::kgag::obs::TraceSpan KGAG_OBS_CONCAT(kgag_obs_span_,      \
                                         __LINE__)(name)

/// Traces the enclosing scope as one request-linked span: `req` (a
/// uint64 request id) is recorded on the event and exported as a
/// chrome://tracing args annotation, linking spans across threads.
#define KGAG_TRACE_SPAN_REQ(name, req)                        \
  ::kgag::obs::TraceSpan KGAG_OBS_CONCAT(kgag_obs_span_,      \
                                         __LINE__)(name, (req))

/// Adds `n` to the named process-wide counter. The registry lookup runs
/// once per call site (function-local static), the increment is a relaxed
/// atomic on a per-thread shard.
#define KGAG_COUNTER_ADD(name, n)                                     \
  do {                                                                \
    static ::kgag::obs::Counter* kgag_obs_counter =                   \
        ::kgag::obs::MetricsRegistry::Global().GetCounter(name);      \
    kgag_obs_counter->Add(static_cast<uint64_t>(n));                  \
  } while (0)

/// Sets the named gauge to `v` (last write wins).
#define KGAG_GAUGE_SET(name, v)                                       \
  do {                                                                \
    static ::kgag::obs::Gauge* kgag_obs_gauge =                       \
        ::kgag::obs::MetricsRegistry::Global().GetGauge(name);        \
    kgag_obs_gauge->Set(static_cast<double>(v));                      \
  } while (0)

/// Observes `v` into the named HDR log-bucketed histogram (no bounds:
/// the ~3%-wide base-2 grid covers the full range; integers below 32 land
/// in exact unit buckets).
#define KGAG_HDR_OBSERVE(name, v)                                     \
  do {                                                                \
    static ::kgag::obs::HdrHistogram* kgag_obs_hdr =                  \
        ::kgag::obs::MetricsRegistry::Global().GetHdrHistogram(name); \
    kgag_obs_hdr->Observe(static_cast<double>(v));                    \
  } while (0)

/// Appends one labelled snapshot line to the JSONL sink (if one is open).
#define KGAG_OBS_SNAPSHOT(label) ::kgag::obs::SnapshotMetrics(label)

/// Emits the wrapped statements only in obs-enabled builds.
#define KGAG_OBS_ONLY(...) __VA_ARGS__

#else  // !KGAG_OBS_ACTIVE

#define KGAG_TRACE_SPAN(name) \
  do {                        \
  } while (0)
#define KGAG_TRACE_SPAN_REQ(name, req) \
  do {                                 \
  } while (0)
#define KGAG_COUNTER_ADD(name, n) \
  do {                            \
  } while (0)
#define KGAG_GAUGE_SET(name, v) \
  do {                          \
  } while (0)
#define KGAG_HDR_OBSERVE(name, v) \
  do {                            \
  } while (0)
#define KGAG_OBS_SNAPSHOT(label) \
  do {                           \
  } while (0)
#define KGAG_OBS_ONLY(...)

#endif  // KGAG_OBS_ACTIVE

#endif  // KGAG_OBS_OBS_H_
