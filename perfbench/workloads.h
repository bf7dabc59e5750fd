// The benchmark's workloads. Each takes the parsed arguments, runs
// set-up, an untimed warm-up and its timed phases, checks its outputs and
// fills `out` with the end-to-end metrics (trace off) or the per-layer
// metrics (trace on). README.md gives each workload's purpose.
#ifndef KGAG_PERFBENCH_WORKLOADS_H_
#define KGAG_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

void RunBigworldScan(const Args& args, Result* out);
void RunHotGroups(const Args& args, Result* out);
void RunTrainRefresh(const Args& args, Result* out);

/// Fills every per-layer metric `out` does not already hold with 0: a
/// workload that does not exercise a layer reports no work there.
void ZeroMissingLayers(Result* out);

}  // namespace perfbench

#endif  // KGAG_PERFBENCH_WORKLOADS_H_
