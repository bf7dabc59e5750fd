#include "serving.h"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>

#include "eval/metrics.h"
#include "obs/metrics.h"
#include "serve/frozen_scorer.h"

namespace perfbench {

namespace serve = kgag::serve;

ServerStack::~ServerStack() {
  if (server) server->Stop();
  if (engine) engine->Shutdown();
}

std::unique_ptr<ServerStack> StartServer(const std::string& path,
                                         double* load_s) {
  auto stack = std::make_unique<ServerStack>();
  const Clock::time_point t0 = Clock::now();
  kgag::Result<serve::FrozenModel> model = [&] {
    Span span("artifact.load");
    return serve::LoadFrozenModelMmap(path);
  }();
  *load_s = SecondsSince(t0);
  if (!model.ok()) {
    std::cerr << "load " << path << ": " << model.status().ToString() << "\n";
    return nullptr;
  }
  stack->model = std::make_shared<const serve::FrozenModel>(std::move(*model));
  Span span("server.start");
  stack->pool = std::make_unique<kgag::ThreadPool>(WorkerThreads());
  serve::ServingEngine::Options options;
  options.max_batch = kMaxBatch;
  options.pool = stack->pool.get();
  stack->engine =
      std::make_unique<serve::ServingEngine>(stack->model, options);
  stack->server = std::make_unique<serve::NetServer>(
      stack->engine.get(), serve::NetServer::Options{});
  const kgag::Status started = stack->server->Start();
  if (!started.ok()) {
    std::cerr << "server start: " << started.ToString() << "\n";
    return nullptr;
  }
  return stack;
}

EngineWindow EngineWindow::Take(serve::ServingEngine* engine) {
  EngineWindow w;
  w.served = engine->requests_served();
  w.batches = engine->batches_run();
  w.coalesced = engine->coalesced_requests();
  w.late = engine->late_admitted();
  w.shed = engine->shed_deadline() + engine->shed_queue_full();
  w.cache_hits = engine->cache()->hits();
  w.cache_misses = engine->cache()->misses();
  const kgag::obs::HdrHistogram* hdr =
      kgag::obs::MetricsRegistry::Global().FindHdrHistogram(
          "serve.queue_wait_us");
  if (hdr != nullptr) w.queue_wait_us = hdr->Snapshot();
  return w;
}

EngineWindow EngineWindow::Delta(const EngineWindow& earlier) const {
  EngineWindow d = *this;
  d.served -= earlier.served;
  d.batches -= earlier.batches;
  d.coalesced -= earlier.coalesced;
  d.late -= earlier.late;
  d.shed -= earlier.shed;
  d.cache_hits -= earlier.cache_hits;
  d.cache_misses -= earlier.cache_misses;
  if (earlier.queue_wait_us.total > 0) d.queue_wait_us.Subtract(earlier.queue_wait_us);
  return d;
}

size_t MeanBatchSize(const EngineWindow& window) {
  if (window.batches == 0) return 1;
  return std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(window.served) /
                                 static_cast<double>(window.batches) +
                             0.5));
}

bool ResponseMatches(const serve::FrozenModel& model,
                     const serve::TopKRequest& request,
                     const Captured& response) {
  kgag::Result<serve::GroupRep> rep =
      serve::BuildGroupRep(model, request.members);
  if (!rep.ok()) return false;
  const std::vector<double> scores = serve::ScoreAllItems(model, *rep);
  std::vector<kgag::ItemId> excluded = request.exclude_seen;
  std::sort(excluded.begin(), excluded.end());
  std::vector<double> kept_scores;
  std::vector<kgag::ItemId> pool;
  kept_scores.reserve(scores.size());
  pool.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    const auto item = static_cast<kgag::ItemId>(i);
    if (std::binary_search(excluded.begin(), excluded.end(), item)) continue;
    kept_scores.push_back(scores[i]);
    pool.push_back(item);
  }
  const std::vector<kgag::ItemId> top =
      kgag::TopKItems(kept_scores, pool, request.k);
  if (top != response.items || response.scores.size() != top.size()) {
    return false;
  }
  for (size_t i = 0; i < top.size(); ++i) {
    const double expect = scores[static_cast<size_t>(top[i])];
    if (std::memcmp(&expect, &response.scores[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

ScorerReplay ReplayScorer(const serve::FrozenModel& model,
                          const std::vector<serve::TopKRequest>& requests,
                          size_t batch_size, size_t batches) {
  ScorerReplay r;
  const size_t n = static_cast<size_t>(model.num_items);
  std::vector<kgag::ItemId> all_items(n);
  for (size_t i = 0; i < n; ++i) all_items[i] = static_cast<kgag::ItemId>(i);
  std::vector<double> sp;
  std::vector<double> scores(n);
  batch_size = std::max<size_t>(1, batch_size);
  const Clock::time_point wall0 = Clock::now();
  size_t next = 0;
  for (size_t b = 0; b < batches; ++b) {
    Span batch_span("scorer.batch");
    const Clock::time_point batch0 = Clock::now();
    std::vector<serve::GroupRep> reps;
    serve::MemberStack stack(model);
    std::vector<size_t> offsets;
    std::vector<const serve::TopKRequest*> batch_reqs;
    r.rep_build_s += Timed("scorer.rep_build", [&] {
      for (size_t i = 0; i < batch_size; ++i, ++next) {
        const serve::TopKRequest& req = requests[next % requests.size()];
        kgag::Result<serve::GroupRep> rep =
            serve::BuildGroupRep(model, req.members);
        if (!rep.ok()) continue;
        offsets.push_back(stack.Append(*rep));
        reps.push_back(std::move(*rep));
        batch_reqs.push_back(&req);
      }
    });
    sp.resize(stack.rows() * n);
    r.gemm_s += Timed("scorer.gemm", [&] { stack.SpLogitsAllItems(sp.data()); });
    r.rows += static_cast<double>(stack.rows());
    for (size_t g = 0; g < reps.size(); ++g) {
      r.reduce_s += Timed("scorer.reduce", [&] {
        serve::ReduceScores(model, reps[g], sp.data() + offsets[g] * n, n, n,
                            scores.data());
      });
      r.topk_s += Timed("scorer.topk", [&] {
        const std::vector<kgag::ItemId> top =
            kgag::TopKItems(scores, all_items, batch_reqs[g]->k);
        asm volatile("" : : "g"(top.data()) : "memory");
      });
    }
    r.groups += reps.size();
    r.batch_s += SecondsSince(batch0);
    ++r.batches;
  }
  r.wall_s = SecondsSince(wall0);
  const double nb = static_cast<double>(std::max<size_t>(1, r.batches));
  r.rep_build_s /= nb;
  r.gemm_s /= nb;
  r.reduce_s /= nb;
  r.topk_s /= nb;
  r.batch_s /= nb;
  r.rows /= nb;
  return r;
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double SpanMeanUs(const std::map<std::string, SpanStats>& spans,
                  const char* name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) return 0.0;
  return 1e6 * it->second.total_s / static_cast<double>(it->second.count);
}

}  // namespace

double ReportServingLayers(const serve::FrozenModel& model,
                         const LoadStats& open, const EngineWindow& window,
                         const EngineWindow& all, uint64_t requests_sent,
                         const ScorerReplay& replay, Result* out) {
  const std::map<std::string, SpanStats> spans = Tracer::Aggregate();
  const double encode_us = SpanMeanUs(spans, "net.encode");
  const double decode_us = SpanMeanUs(spans, "net.decode");
  out->Metric("p50_ms",
              WindowedPercentile(open.latency_ms, open.completed_s, 0.50, 1000,
                                 16),
              "ms");
  out->Metric("p99_ms",
              WindowedPercentile(open.latency_ms, open.completed_s, 0.99, 1000,
                                 16),
              "ms");
  out->Metric("net.requests", static_cast<double>(requests_sent), "count");
  out->Metric("net.encode_us", encode_us, "us");
  out->Metric("net.decode_us", decode_us, "us");
  out->Metric("client.lateness_ms", Percentile(open.lateness_ms, 0.99), "ms");

  const double qw_mean_ms = window.queue_wait_us.Mean() / 1e3;
  out->Metric("engine.batches", static_cast<double>(window.batches), "count");
  out->Metric("engine.queue_wait_p50_ms",
              window.queue_wait_us.Quantile(0.50) / 1e3, "ms");
  out->Metric("engine.queue_wait_p99_ms",
              window.queue_wait_us.Quantile(0.99) / 1e3, "ms");
  out->Metric("engine.batch_size",
              Ratio(static_cast<double>(window.served),
                    static_cast<double>(window.batches)),
              "requests");
  out->Metric("engine.coalesced_share",
              Ratio(static_cast<double>(window.coalesced),
                    static_cast<double>(window.served)),
              "ratio");
  out->Metric("engine.late_admit_share",
              Ratio(static_cast<double>(window.late),
                    static_cast<double>(window.served)),
              "ratio");
  out->Metric("engine.shed", static_cast<double>(all.shed), "count");
  out->Metric("engine.shed_share",
              Ratio(static_cast<double>(all.shed),
                    static_cast<double>(requests_sent)),
              "ratio");

  const double lookups =
      static_cast<double>(all.cache_hits + all.cache_misses);
  out->Metric("cache.lookups", lookups, "count");
  out->Metric("cache.hit_rate",
              Ratio(static_cast<double>(all.cache_hits), lookups), "ratio");

  const double n = static_cast<double>(model.num_items);
  const double item_bytes =
      n * static_cast<double>(serve::RepBytesPerEntity(model));
  const double row_bytes =
      replay.rows * static_cast<double>(serve::RepBytesPerEntity(model));
  const double out_bytes = replay.rows * n * sizeof(double);
  const double per_group = Ratio(static_cast<double>(replay.batches),
                                 static_cast<double>(replay.groups));
  out->Metric("scorer.batches", static_cast<double>(replay.batches), "count");
  out->Metric("scorer.rep_build_us", 1e6 * replay.rep_build_s * per_group,
              "us");
  out->Metric("scorer.gemm_ms", 1e3 * replay.gemm_s, "ms");
  out->Metric("scorer.gemm_gbps",
              Ratio(item_bytes + row_bytes + out_bytes, replay.gemm_s) / 1e9,
              "GB/s");
  out->Metric("scorer.reduce_ms", 1e3 * replay.reduce_s, "ms");
  out->Metric("scorer.topk_ms", 1e3 * replay.topk_s, "ms");
  out->Metric("scorer.batch_ms", 1e3 * replay.batch_s, "ms");
  out->Metric("scorer.intermediate_mb", out_bytes / 1048576.0, "MiB");

  // The request's path through the layers: client encode, queue wait,
  // one batch of the measured mean size, client decode. Held against
  // the measured open-loop mean latency.
  const double layer_ms =
      (encode_us + decode_us) / 1e3 + qw_mean_ms + 1e3 * replay.batch_s;
  return Ratio(layer_ms, Mean(open.latency_ms));
}

void RecordOutcomes(const LoadStats& open, const LoadStats& closed,
                    uint64_t wrong, Result* out) {
  out->Record("requests_sent", static_cast<double>(open.sent + closed.sent));
  out->Record("requests_ok", static_cast<double>(open.ok + closed.ok));
  out->Record("shed_deadline",
              static_cast<double>(open.deadline + closed.deadline));
  out->Record("shed_queue_full",
              static_cast<double>(open.overloaded + closed.overloaded));
  out->Record("transport_errors",
              static_cast<double>(open.transport + closed.transport));
  out->Record("other_errors", static_cast<double>(open.other + closed.other));
  out->Record("wrong_results", static_cast<double>(wrong));
}

void PrintSpanTable() {
  const std::map<std::string, SpanStats> spans = Tracer::Aggregate();
  std::ostringstream line;
  line << "layers {";
  bool first = true;
  for (const auto& [name, s] : spans) {
    line << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
         << s.count << ", \"total_s\": " << s.total_s
         << ", \"self_s\": " << s.self_s << "}";
    first = false;
  }
  line << "}";
  std::cout << line.str() << "\n";
}

}  // namespace perfbench
