// Serving-side pieces shared by every workload: the live server stack
// (mapped artifact -> ServingEngine on a ThreadPool -> loopback
// NetServer), engine counter windows, the output check that re-scores
// captured wire responses in process, and the scorer-layer replay.
#ifndef KGAG_PERFBENCH_SERVING_H_
#define KGAG_PERFBENCH_SERVING_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "netload.h"
#include "obs/hdr_histogram.h"
#include "serve/frozen_model.h"
#include "serve/net_server.h"
#include "serve/serving_engine.h"

namespace perfbench {

/// Engine batch bound used by every workload.
inline constexpr size_t kMaxBatch = 16;

/// \brief A live serving process: model slot, engine on a worker pool,
/// and a NetServer on an ephemeral loopback port. Members are declared in
/// teardown order (server stops before the engine, engine before pool).
struct ServerStack {
  std::shared_ptr<const kgag::serve::FrozenModel> model;
  std::unique_ptr<kgag::ThreadPool> pool;
  std::unique_ptr<kgag::serve::ServingEngine> engine;
  std::unique_ptr<kgag::serve::NetServer> server;

  ~ServerStack();
  int port() const { return server->port(); }
};

/// Maps `path` (timed into *load_s), builds the engine and starts the
/// server. Returns null (with the reason on stderr) on failure.
std::unique_ptr<ServerStack> StartServer(const std::string& path,
                                         double* load_s);

/// Snapshot of the engine's cumulative counters; Delta() gives a window.
struct EngineWindow {
  uint64_t served = 0, batches = 0, coalesced = 0, late = 0;
  uint64_t shed = 0, cache_hits = 0, cache_misses = 0;
  kgag::obs::HdrSnapshot queue_wait_us;

  static EngineWindow Take(kgag::serve::ServingEngine* engine);
  EngineWindow Delta(const EngineWindow& earlier) const;
};

/// Requests per engine batch over the window, rounded, at least 1.
size_t MeanBatchSize(const EngineWindow& window);

/// Re-scores one captured response in process through the public
/// scorer (BuildGroupRep -> ScoreAllItems -> TopKItems over the items
/// the request did not exclude) and compares items and score bits.
bool ResponseMatches(const kgag::serve::FrozenModel& model,
                     const kgag::serve::TopKRequest& request,
                     const Captured& response);

/// Per-batch layer times of the scorer replay, in seconds.
struct ScorerReplay {
  size_t batches = 0;
  size_t groups = 0;
  double rows = 0.0;  ///< mean stacked member rows per batch
  double rep_build_s = 0.0, gemm_s = 0.0, reduce_s = 0.0, topk_s = 0.0;
  double batch_s = 0.0;  ///< whole replayed batch, all layers
  double wall_s = 0.0;   ///< the replay's own wall time
};

/// Replays `batches` batches of `batch_size` requests (taken in order
/// from `requests`) through BuildGroupRep, MemberStack::SpLogitsAllItems,
/// ReduceScores and TopKItems, timing each layer. Results are means per
/// batch (rep_build per batch too; divide by groups/batches for per-group).
ScorerReplay ReplayScorer(const kgag::serve::FrozenModel& model,
                          const std::vector<kgag::serve::TopKRequest>& requests,
                          size_t batch_size, size_t batches);

/// Adds the per-layer metrics of the serving path (open-loop p99, net,
/// engine, cache, scorer) to `out`. `open` and `window` cover the
/// open-loop phase; `all` spans every timed phase; `replay` is the scorer
/// replay. Returns the coverage of the open-loop mean latency by the layer
/// table: (client codec + queue wait + one replayed batch) / latency.
double ReportServingLayers(const kgag::serve::FrozenModel& model,
                         const LoadStats& open, const EngineWindow& window,
                         const EngineWindow& all, uint64_t requests_sent,
                         const ScorerReplay& replay, Result* out);

/// Records the request outcome counts of the timed phases (sent, ok,
/// shed by deadline or queue, transport and other errors, wrong results).
void RecordOutcomes(const LoadStats& open, const LoadStats& closed,
                    uint64_t wrong, Result* out);

/// Prints the aggregated span table (count, total and self seconds per
/// span name) as one "layers {...}" line.
void PrintSpanTable();

}  // namespace perfbench

#endif  // KGAG_PERFBENCH_SERVING_H_
