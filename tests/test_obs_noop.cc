// Compiles the instrumentation macros with observability forced OFF in
// this one TU (the rest of the binary keeps the build-wide setting) and
// proves the no-op expansions really are no-ops: arguments must not be
// evaluated and nothing may reach the global registry.
#define KGAG_OBS_FORCE_OFF 1
#include "obs/obs.h"

#include <gtest/gtest.h>

static_assert(KGAG_OBS_ACTIVE == 0,
              "KGAG_OBS_FORCE_OFF must disable the macros in this TU");

namespace kgag {
namespace {

TEST(ObsNoopTest, MacroArgumentsAreNotEvaluated) {
  int evaluations = 0;
  KGAG_TRACE_SPAN("noop.span");
  KGAG_COUNTER_ADD("noop.counter", ++evaluations);
  KGAG_GAUGE_SET("noop.gauge", ++evaluations);
  KGAG_HDR_OBSERVE("noop.hdr", ++evaluations);
  KGAG_OBS_SNAPSHOT("noop.snapshot");
  KGAG_OBS_ONLY(++evaluations;)
  EXPECT_EQ(evaluations, 0) << "no-op macros must not evaluate arguments";
}

TEST(ObsNoopTest, NothingReachesTheRegistry) {
  KGAG_COUNTER_ADD("noop.registry_probe", 1);
  KGAG_GAUGE_SET("noop.registry_probe_g", 1.0);
  KGAG_HDR_OBSERVE("noop.registry_probe_h", 1.0);
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.FindCounter("noop.registry_probe"), nullptr);
  EXPECT_EQ(reg.FindGauge("noop.registry_probe_g"), nullptr);
  EXPECT_EQ(reg.FindHdrHistogram("noop.registry_probe_h"), nullptr);
}

TEST(ObsNoopTest, DirectApiStaysAvailable) {
  // The classes themselves are not gated — only the macros are.
  obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("noop.direct_api");
  c->Add(2);
  EXPECT_EQ(c->Value(), 2u);
}

}  // namespace
}  // namespace kgag
