// Micro-benchmarks of the propagation pipeline: sampling, training-mode
// forward+backward and forward-only passes over P queries (the §III-E
// complexity claims: per-instance cost grows with K^H, not with corpus
// size).
//
// In addition to the normal google-benchmark console output, the custom
// main below collects every run and writes BENCH_propagation.json (path
// overridable with KGAG_BENCH_OUT) so the propagation trend is a
// checked-in artifact like BENCH_kernels.json. All google-benchmark
// flags (--benchmark_filter, --benchmark_min_time, ...) still work.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <thread>

#include "bench_util.h"
#include "data/synthetic/standard_datasets.h"
#include "kg/collaborative_kg.h"
#include "models/propagation.h"

namespace kgag {
namespace {

struct Fixture {
  Fixture() : rng(7) {
    GroupRecDataset ds = MakeMovieLensRandDataset(11, 0.2);
    std::vector<std::pair<int32_t, int32_t>> interactions;
    for (const Interaction& it : ds.user_item.ToPairs()) {
      interactions.emplace_back(it.row, it.item);
    }
    auto built = BuildCollaborativeKg(ds.kg_triples, ds.num_entities,
                                      ds.num_relations, ds.num_users,
                                      ds.item_to_entity, interactions);
    KGAG_CHECK(built.ok());
    ckg = std::move(*built);
  }

  PropagationEngine MakeEngine(int depth, int k, ParameterStore* store,
                               Parameter** table) {
    PropagationConfig cfg;
    cfg.depth = depth;
    cfg.sample_size = k;
    cfg.dim = 16;
    *table = store->Create("ent", ckg.graph.num_entities(), 16,
                           Init::kNormal01, &rng);
    return PropagationEngine(&ckg.graph, *table, store, cfg, &rng);
  }

  Rng rng;
  CollaborativeKg ckg;
};

void BM_SampleTree(benchmark::State& state) {
  Fixture f;
  NeighborSampler sampler(&f.ckg.graph, static_cast<int>(state.range(1)));
  Rng rng(3);
  for (auto _ : state) {
    SampledTree t =
        sampler.SampleTree(0, static_cast<int>(state.range(0)), &rng);
    benchmark::DoNotOptimize(t.entities.back().size());
  }
}
BENCHMARK(BM_SampleTree)->Args({1, 4})->Args({2, 4})->Args({2, 8})->Args({3, 4});

void BM_PropagateOnTape(benchmark::State& state) {
  Fixture f;
  ParameterStore store;
  Parameter* table = nullptr;
  PropagationEngine engine = f.MakeEngine(static_cast<int>(state.range(0)),
                                          static_cast<int>(state.range(1)),
                                          &store, &table);
  Rng rng(5);
  SampledTree tree = engine.SampleTree(0, &rng);
  for (auto _ : state) {
    Tape tape;
    Var q = tape.Gather(table, {1});
    Var rep = engine.PropagateOnTape(&tape, tree, q);
    Var loss = tape.Sum(rep);
    tape.Backward(loss);
    store.ZeroGrads();
    benchmark::DoNotOptimize(tape.value(loss).item());
  }
}
BENCHMARK(BM_PropagateOnTape)
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({2, 8})
    ->Args({3, 4});

/// Forward-only PropagateOnTape for P queries at once, as evaluation and
/// freezing run it: a warm tape, no Backward, cleared after each pass.
void BM_PropagateForward(benchmark::State& state) {
  Fixture f;
  ParameterStore store;
  Parameter* table = nullptr;
  PropagationEngine engine = f.MakeEngine(2, 6, &store, &table);
  Rng rng(5);
  SampledTree tree = engine.SampleTree(0, &rng);
  const size_t p = static_cast<size_t>(state.range(0));
  Tensor queries(p, 16);
  for (size_t i = 0; i < queries.size(); ++i) queries[i] = rng.Normal(0, 1);
  Tape tape;
  for (auto _ : state) {
    Var rep = engine.PropagateOnTape(&tape, tree, tape.Constant(queries));
    benchmark::DoNotOptimize(tape.value(rep).data());
    tape.Clear();
  }
  state.SetItemsProcessed(state.iterations() * p);
}
BENCHMARK(BM_PropagateForward)->Arg(1)->Arg(32)->Arg(128);

/// Console reporter that additionally collects per-iteration runs for the
/// JSON artifact (aggregates and errored runs are skipped).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_ns = 0.0;
    double cpu_ns = 0.0;
    int64_t iterations = 0;
    double items_per_second = 0.0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      Row row;
      row.name = r.benchmark_name();
      // Adjusted times are per-iteration in the run's time unit; the
      // micro benches all report in ns (the library default).
      row.real_ns = r.GetAdjustedRealTime();
      row.cpu_ns = r.GetAdjustedCPUTime();
      row.iterations = static_cast<int64_t>(r.iterations);
      auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) row.items_per_second = it->second;
      rows.push_back(row);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<Row> rows;
};

int WriteJson(const std::string& path,
              const std::vector<CollectingReporter::Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  bench::JsonWriter w(&out);
  w.BeginObject();
  w.Newline();
  w.Field("bench", "micro_propagation");
  w.Newline();
  w.Field("hardware_threads", std::thread::hardware_concurrency());
  w.Newline();
  w.BeginArray("runs");
  w.Newline();
  for (const CollectingReporter::Row& r : rows) {
    w.BeginObject();
    w.Field("name", r.name);
    w.Field("real_ns", r.real_ns);
    w.Field("cpu_ns", r.cpu_ns);
    w.Field("iterations", r.iterations);
    if (r.items_per_second > 0.0) {
      w.Field("items_per_second", r.items_per_second);
    }
    w.EndObject();
    w.Newline();
  }
  w.EndArray();
  w.Newline();
  w.EndObject();
  w.Newline();
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace kgag

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  kgag::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* out = std::getenv("KGAG_BENCH_OUT");
  return kgag::WriteJson(out != nullptr && out[0] != '\0'
                             ? out
                             : "BENCH_propagation.json",
                         reporter.rows);
}
