// Benchmark program entry point.
//
//   perfbench --workload {bigworld_scan|hot_groups|train_refresh}
//             --seed N --seconds S --trace {0|1}
//
// Prints progress on stderr, then a run record line and, as the last
// line of standard output, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status is 0 when the run completed, whatever the
// checks found; usage errors exit 2.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, grouped by layer. README.md says which
// end-to-end metric each one should move.
const LayerMetric kLayerMetrics[] = {
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"net.requests", "count"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"client.lateness_ms", "ms"},
    {"engine.batches", "count"},
    {"engine.queue_wait_p50_ms", "ms"},
    {"engine.queue_wait_p99_ms", "ms"},
    {"engine.batch_size", "requests"},
    {"engine.coalesced_share", "ratio"},
    {"engine.late_admit_share", "ratio"},
    {"engine.shed", "count"},
    {"engine.shed_share", "ratio"},
    {"cache.lookups", "count"},
    {"cache.hit_rate", "ratio"},
    {"scorer.batches", "count"},
    {"scorer.rep_build_us", "us"},
    {"scorer.gemm_ms", "ms"},
    {"scorer.gemm_gbps", "GB/s"},
    {"scorer.reduce_ms", "ms"},
    {"scorer.topk_ms", "ms"},
    {"scorer.batch_ms", "ms"},
    {"scorer.intermediate_mb", "MiB"},
    {"artifact.freeze_s", "s"},
    {"artifact.load_ms", "ms"},
    {"artifact.load_crc_ms", "ms"},
    {"artifact.resident_mb", "MiB"},
    {"train.batches", "count"},
    {"train.sample_ms", "ms"},
    {"train.propagate_ms", "ms"},
    {"train.attention_ms", "ms"},
    {"train.loss_ms", "ms"},
    {"train.backward_ms", "ms"},
    {"train.reduce_ms", "ms"},
    {"train.optimizer_ms", "ms"},
    {"train.epoch_s", "s"},
    {"train.epoch_1t_s", "s"},
    {"train.coverage", "ratio"},
    {"eval.valid_s", "s"},
    {"eval.score_group_ms", "ms"},
    {"ckpt.save_ms", "ms"},
    {"online.refreshes", "count"},
    {"online.apply_ms", "ms"},
    {"online.new_edge_share", "ratio"},
    {"online.train_ms", "ms"},
    {"online.freeze_ms", "ms"},
    {"swap.swap_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_share", "ratio"},
};

int Usage() {
  std::cerr << "usage: perfbench --workload {bigworld_scan|hot_groups|"
               "train_refresh} --seed N --seconds S --trace {0|1}\n"
               "       perfbench --list-metrics\n";
  return 2;
}

}  // namespace

void ZeroMissingLayers(Result* out) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (!out->Has(m.name)) out->Metric(m.name, 0.0, m.unit);
  }
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const LayerMetric& m : kLayerMetrics) {
        std::cout << m.name << " " << m.unit << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0.0) return Usage();
  Result result;
  if (args.workload == "bigworld_scan") {
    RunBigworldScan(args, &result);
  } else if (args.workload == "hot_groups") {
    RunHotGroups(args, &result);
  } else if (args.workload == "train_refresh") {
    RunTrainRefresh(args, &result);
  } else {
    return Usage();
  }
  result.Print();
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
