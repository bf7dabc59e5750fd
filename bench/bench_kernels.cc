// bench_kernels: compute-backend benchmark harness. Times (a) the blocked
// GEMM against the preserved seed triple-loop kernel on the matmul shapes
// the Eq. (1)–(8) propagation and attention paths actually issue, (b)
// end-to-end ranking-evaluation throughput serial vs ThreadPool-parallel,
// asserting the two produce bit-identical metrics, and (c) the serving
// sp-logit GEMM (QGemmInt8/Fp16/Fp32: member rows x item table) on the
// dispatched ISA tier, checked bit for bit against its scalar reference.
// Emits machine-readable JSON (BENCH_kernels.json when run from the repo
// root) so successive PRs can be compared on the same perf trajectory.
//
// Usage: bench_kernels [--smoke] [--acceptance] [--out PATH] [--threads N]
//   --smoke       one tiny iteration per case, one tiny qgemm case (CI
//                 wiring check, ~1s)
//   --acceptance  time ONLY the PR-1 acceptance GEMM shape (512x64x64)
//                 with long reps, and write a small JSON carrying
//                 obs_enabled — run it once in an obs-ON build and once
//                 in an obs-OFF build, then feed both files to
//                 tools/check_obs_overhead.py to gate the overhead budget
//   --out         output path (default ./BENCH_kernels.json)
//   --threads     pool size for the parallel-eval case, clamped to
//                 hardware_concurrency (default 0 = all hardware threads)
//
// Observability: with KGAG_OBS_ENABLED builds this binary installs the
// default instrumentation, appends a "bench_kernels" snapshot to the sink
// named by KGAG_METRICS_JSONL, and (when KGAG_TRACE=1) exports the span
// timeline to KGAG_TRACE_OUT (default trace.json).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "eval/ranking_evaluator.h"
#include "obs/obs.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace kgag {
namespace {

struct Options {
  bool smoke = false;
  bool acceptance = false;
  std::string out = "BENCH_kernels.json";
  size_t threads = 0;  // 0 = hardware_concurrency (honest local numbers)
};

Tensor RandomTensor(size_t rows, size_t cols, Rng* rng) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng->Normal(0, 1);
  return t;
}

/// Seconds per call for each of `reps` reps, with the iteration count
/// calibrated so one rep runs for at least `min_secs`. Smoke runs time a
/// single call.
template <typename Fn>
std::vector<double> TimeReps(const Options& opt, Fn&& fn, double min_secs,
                             int reps) {
  if (opt.smoke) {
    Stopwatch sw;
    fn();
    return {sw.ElapsedSeconds()};
  }
  size_t iters = 1;
  while (true) {
    Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) fn();
    const double secs = sw.ElapsedSeconds();
    if (secs >= min_secs) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) fn();
    per_call.push_back(sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  return per_call;
}

/// Best-of-`reps` seconds-per-call (see TimeReps).
template <typename Fn>
double TimeBest(const Options& opt, Fn&& fn, double min_secs = 0.15,
                int reps = 3) {
  const std::vector<double> t = TimeReps(opt, fn, min_secs, reps);
  return *std::min_element(t.begin(), t.end());
}

/// Linear-interpolated quantile of an ascending sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

struct MatmulCase {
  const char* op;    // "matmul" | "matmul_trans_a" | "matmul_trans_b"
  const char* role;  // which hot path issues this shape
  size_t m, k, n;    // op(A): m×k, op(B): k×n
};

struct MatmulRow {
  MatmulCase c;
  double seed_ns = 0.0;
  double blocked_ns = 0.0;
  double speedup = 0.0;
  double gflops_blocked = 0.0;
  bool close = false;
};

/// Seed-equivalent MatMul*: fresh zeroed output + the preserved naive
/// kernel, matching what the seed's MatMul functions did end to end.
Tensor SeedCall(const MatmulCase& c, const Tensor& a, const Tensor& b) {
  if (std::strcmp(c.op, "matmul_trans_a") == 0) {
    Tensor out(a.cols(), b.cols());
    kernels::GemmNaive(true, false, a.cols(), b.cols(), a.rows(), a.data(),
                       a.cols(), b.data(), b.cols(), out.data(), out.cols());
    return out;
  }
  if (std::strcmp(c.op, "matmul_trans_b") == 0) {
    Tensor out(a.rows(), b.rows());
    kernels::GemmNaive(false, true, a.rows(), b.rows(), a.cols(), a.data(),
                       a.cols(), b.data(), b.cols(), out.data(), out.cols());
    return out;
  }
  Tensor out(a.rows(), b.cols());
  kernels::GemmNaive(false, false, a.rows(), b.cols(), a.cols(), a.data(),
                     a.cols(), b.data(), b.cols(), out.data(), out.cols());
  return out;
}

Tensor BlockedCall(const MatmulCase& c, const Tensor& a, const Tensor& b) {
  if (std::strcmp(c.op, "matmul_trans_a") == 0) return MatMulTransA(a, b);
  if (std::strcmp(c.op, "matmul_trans_b") == 0) return MatMulTransB(a, b);
  return MatMul(a, b);
}

std::vector<MatmulRow> RunMatmulCases(const Options& opt) {
  // Stored shapes per op: for trans_a A is k×m, for trans_b B is n×k.
  const std::vector<MatmulCase> cases = {
      {"matmul", "propagation batch (P*K x d · d x d)", 512, 64, 64},
      {"matmul", "member reps batch (P x d · d x d)", 128, 64, 64},
      {"matmul", "attention single query (1 x d · d x d)", 1, 64, 64},
      {"matmul_trans_b", "neighbor scores (P x d · (K x d)^T)", 512, 64, 64},
      {"matmul_trans_a", "weight gradient ((P x d)^T · P x d)", 64, 512, 64},
      {"matmul", "forward-looking large (256^3)", 256, 256, 256},
  };
  std::vector<MatmulRow> rows;
  Rng rng(7);
  for (const MatmulCase& c : cases) {
    MatmulRow row;
    const bool ta = std::strcmp(c.op, "matmul_trans_a") == 0;
    const bool tb = std::strcmp(c.op, "matmul_trans_b") == 0;
    const size_t scale = opt.smoke ? 8 : 1;
    MatmulCase sc = c;
    sc.m = std::max<size_t>(1, c.m / scale);
    Tensor a = ta ? RandomTensor(sc.k, sc.m, &rng)
                  : RandomTensor(sc.m, sc.k, &rng);
    Tensor b = tb ? RandomTensor(sc.n, sc.k, &rng)
                  : RandomTensor(sc.k, sc.n, &rng);
    row.c = sc;
    row.close = AllClose(SeedCall(sc, a, b), BlockedCall(sc, a, b), 1e-9,
                         1e-9);
    row.seed_ns = 1e9 * TimeBest(opt, [&] {
      Tensor out = SeedCall(sc, a, b);
      asm volatile("" : : "g"(out.data()) : "memory");
    });
    row.blocked_ns = 1e9 * TimeBest(opt, [&] {
      Tensor out = BlockedCall(sc, a, b);
      asm volatile("" : : "g"(out.data()) : "memory");
    });
    row.speedup = row.seed_ns / row.blocked_ns;
    const double madds = static_cast<double>(sc.m) * sc.k * sc.n;
    row.gflops_blocked = 2.0 * madds / row.blocked_ns;  // ns -> GFLOP/s
    std::cout << c.op << " m=" << sc.m << " k=" << sc.k << " n=" << sc.n
              << ": seed " << row.seed_ns / 1e3 << " us, blocked "
              << row.blocked_ns / 1e3 << " us, speedup " << row.speedup
              << "x, " << row.gflops_blocked << " GFLOP/s"
              << (row.close ? "" : "  [MISMATCH]") << "\n";
    rows.push_back(row);
  }
  return rows;
}

/// Read-only scorer shaped like the real model's eval path: one d×d
/// projection of the group embedding, then scores against every item
/// embedding (MatMul + MatMulTransB per group). Deterministic and
/// stateless per call, hence thread-safe.
class EmbeddingScorer : public GroupScorer {
 public:
  EmbeddingScorer(size_t num_groups, size_t num_items, size_t dim)
      : rng_(123),
        group_emb_(RandomTensor(num_groups, dim, &rng_)),
        item_emb_(RandomTensor(num_items, dim, &rng_)),
        w_(RandomTensor(dim, dim, &rng_)) {}

  std::vector<double> ScoreGroup(GroupId g,
                                 std::span<const ItemId> items) override {
    const Tensor projected = MatMul(group_emb_.RowAt(g), w_);
    const Tensor scores = MatMulTransB(projected, item_emb_);  // 1 x items
    std::vector<double> out(items.size());
    for (size_t i = 0; i < items.size(); ++i) out[i] = scores[items[i]];
    return out;
  }

 private:
  Rng rng_;
  const Tensor group_emb_;
  const Tensor item_emb_;
  const Tensor w_;
};

struct EvalRow {
  size_t groups = 0;
  size_t pool = 0;
  size_t threads = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
};

EvalRow RunEvalCase(const Options& opt) {
  EvalRow row;
  // MovieLens-like sweep scale: every test group ranked against the full
  // test-item pool (§IV-B protocol). Sized so per-group work dominates
  // scheduling overhead even at high thread counts.
  row.groups = opt.smoke ? 6 : 512;
  row.pool = opt.smoke ? 12 : 600;
  // Oversubscribing a smaller machine only measures scheduler thrash, so
  // an explicit --threads is clamped to the hardware (0 = use all of it).
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  row.threads = opt.threads == 0 ? hw : std::min(opt.threads, hw);
  const size_t dim = 64;

  GroupRecDataset ds;
  ds.name = "bench-eval";
  std::vector<Interaction> interactions;
  for (size_t g = 0; g < row.groups; ++g) {
    for (size_t j = 0; j < 3; ++j) {
      interactions.push_back(
          {static_cast<GroupId>(g),
           static_cast<ItemId>((g * 7 + j * 131) % row.pool)});
    }
    // Pad the pool so its size is exactly row.pool items.
    interactions.push_back(
        {static_cast<GroupId>(g), static_cast<ItemId>(g % row.pool)});
  }
  for (size_t v = 0; v < row.pool; ++v) {
    interactions.push_back({0, static_cast<ItemId>(v)});
  }

  EmbeddingScorer scorer(row.groups, row.pool, dim);
  RankingEvaluator serial_eval(&ds, 5);
  const EvalResult serial = serial_eval.Evaluate(&scorer, interactions);
  row.serial_ms =
      1e3 * TimeBest(opt, [&] {
        EvalResult r = serial_eval.Evaluate(&scorer, interactions);
        asm volatile("" : : "g"(&r) : "memory");
      });

  ThreadPool pool(row.threads);
  RankingEvaluator parallel_eval(&ds, 5);
  parallel_eval.set_thread_pool(&pool);
  const EvalResult parallel = parallel_eval.Evaluate(&scorer, interactions);
  row.parallel_ms =
      1e3 * TimeBest(opt, [&] {
        EvalResult r = parallel_eval.Evaluate(&scorer, interactions);
        asm volatile("" : : "g"(&r) : "memory");
      });

  row.speedup = row.serial_ms / row.parallel_ms;
  row.bit_identical = serial.hit_at_k == parallel.hit_at_k &&
                      serial.recall_at_k == parallel.recall_at_k &&
                      serial.ndcg_at_k == parallel.ndcg_at_k &&
                      serial.num_groups == parallel.num_groups;
  std::cout << "eval " << row.groups << " groups x " << row.pool
            << " items: serial " << row.serial_ms << " ms, parallel("
            << row.threads << ") " << row.parallel_ms << " ms, speedup "
            << row.speedup << "x, bit_identical "
            << (row.bit_identical ? "true" : "false") << "\n";
  return row;
}

struct QGemmRow {
  QuantType type;
  size_t m = 0, n = 0, k = 0;
  int reps = 0;
  double median_us = 0.0;
  double iqr_us = 0.0;
  double gbps = 0.0;  // B (item codes + scales) bytes streamed per second
  bool bit_identical = false;
};

/// S = A · Bᵀ on the dispatched tier (`ref` = false) or the scalar
/// reference, A the member rows and B the item table at one precision.
void RunQGemm(const QuantizedMatrix& a, const QuantizedMatrix& b, bool ref,
              double* c) {
  const size_t m = a.rows, n = b.rows, k = a.cols;
  switch (a.type) {
    case QuantType::kInt8: {
      const auto* pa = reinterpret_cast<const int8_t*>(a.data.data());
      const auto* pb = reinterpret_cast<const int8_t*>(b.data.data());
      (ref ? kernels::QGemmInt8Ref : kernels::QGemmInt8)(
          m, n, k, a.block, pa, a.scales.data(), pb, b.scales.data(), c, n);
      return;
    }
    case QuantType::kFp16: {
      const auto* pa = reinterpret_cast<const uint16_t*>(a.data.data());
      const auto* pb = reinterpret_cast<const uint16_t*>(b.data.data());
      (ref ? kernels::QGemmFp16Ref : kernels::QGemmFp16)(m, n, k, pa, pb, c,
                                                         n);
      return;
    }
    case QuantType::kFp32: {
      const auto* pa = reinterpret_cast<const float*>(a.data.data());
      const auto* pb = reinterpret_cast<const float*>(b.data.data());
      (ref ? kernels::QGemmFp32Ref : kernels::QGemmFp32)(m, n, k, pa, pb, c,
                                                         n);
      return;
    }
    case QuantType::kFp64:
      break;
  }
  std::abort();
}

/// The serving sp-logit GEMM (DESIGN.md §10-11): m member rows against a
/// 512-item scan tile and against a whole 100K-item table, k = 64, at
/// each quantized precision. Median and IQR over 9 reps.
std::vector<QGemmRow> RunQGemmCases(const Options& opt) {
  const size_t k = 64;
  const std::vector<size_t> ms =
      opt.smoke ? std::vector<size_t>{5} : std::vector<size_t>{5, 40, 160};
  const std::vector<size_t> ns =
      opt.smoke ? std::vector<size_t>{64} : std::vector<size_t>{512, 100000};
  const std::vector<QuantType> types =
      opt.smoke ? std::vector<QuantType>{QuantType::kFp16}
                : std::vector<QuantType>{QuantType::kInt8, QuantType::kFp16,
                                         QuantType::kFp32};
  const int reps = 9;
  std::vector<QGemmRow> rows;
  Rng rng(11);
  const Tensor members = RandomTensor(ms.back(), k, &rng);
  for (const size_t n : ns) {
    const Tensor items = RandomTensor(n, k, &rng);
    for (const QuantType type : types) {
      const QuantizedMatrix b = QuantizeMatrix(items, type);
      for (const size_t m : ms) {
        Tensor rows_m(m, k);
        std::copy(members.data(), members.data() + m * k, rows_m.data());
        const QuantizedMatrix a = QuantizeMatrix(rows_m, type);
        std::vector<double> got(m * n), want(m * n);
        RunQGemm(a, b, /*ref=*/false, got.data());
        RunQGemm(a, b, /*ref=*/true, want.data());
        QGemmRow row;
        row.type = type;
        row.m = m;
        row.n = n;
        row.k = k;
        row.bit_identical = std::memcmp(got.data(), want.data(),
                                        got.size() * sizeof(double)) == 0;
        std::vector<double> t = TimeReps(
            opt,
            [&] {
              RunQGemm(a, b, /*ref=*/false, got.data());
              asm volatile("" : : "g"(got.data()) : "memory");
            },
            /*min_secs=*/0.05, reps);
        std::sort(t.begin(), t.end());
        row.reps = static_cast<int>(t.size());
        row.median_us = 1e6 * Quantile(t, 0.5);
        row.iqr_us = 1e6 * (Quantile(t, 0.75) - Quantile(t, 0.25));
        row.gbps = static_cast<double>(b.PayloadBytes()) /
                   (row.median_us * 1e3);
        std::cout << "qgemm " << QuantTypeName(type) << " m=" << m
                  << " n=" << n << " k=" << k << ": median " << row.median_us
                  << " us (IQR " << row.iqr_us << "), " << row.gbps
                  << " GB/s of B, ISA level " << kernels::QuantIsaLevel()
                  << ", bit_identical "
                  << (row.bit_identical ? "true" : "false") << "\n";
        rows.push_back(row);
      }
    }
  }
  return rows;
}

/// The obs-overhead gate: the PR-1 acceptance GEMM shape (512x64x64
/// "propagation batch" matmul) timed with longer reps than the sweep so
/// the enabled-vs-disabled delta is measurable above run-to-run noise.
/// The counter increments in kernels::Gemm are the only instrumentation
/// this shape crosses, which is exactly what the <2% budget bounds.
int RunAcceptance(const Options& opt) {
  const MatmulCase c = {"matmul", "propagation batch (P*K x d · d x d)",
                        512, 64, 64};
  Rng rng(7);
  Tensor a = RandomTensor(c.m, c.k, &rng);
  Tensor b = RandomTensor(c.k, c.n, &rng);
  const double ns = 1e9 * TimeBest(
                              opt,
                              [&] {
                                Tensor out = BlockedCall(c, a, b);
                                asm volatile("" : : "g"(out.data())
                                             : "memory");
                              },
                              /*min_secs=*/0.4, /*reps=*/7);
  const double gflops = 2.0 * static_cast<double>(c.m) * c.k * c.n / ns;
  std::cout << "acceptance " << c.op << " m=" << c.m << " k=" << c.k
            << " n=" << c.n << ": " << ns / 1e3 << " us, " << gflops
            << " GFLOP/s, obs_enabled="
            << (KGAG_OBS_ACTIVE ? "true" : "false") << "\n";

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 1;
  }
  // min_secs/reps describe the measurement floor so downstream overhead
  // checks (tools/check_obs_overhead.py) can reject runs too short to
  // trust.
  out << "{\n  \"bench\": \"bench_kernels_acceptance\",\n"
      << "  \"obs_enabled\": " << (KGAG_OBS_ACTIVE ? "true" : "false")
      << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
      << ",\n  \"op\": \"" << c.op << "\",\n  \"m\": " << c.m
      << ", \"k\": " << c.k << ", \"n\": " << c.n
      << ",\n  \"min_secs\": " << (opt.smoke ? 0.0 : 0.4)
      << ", \"reps\": " << (opt.smoke ? 1 : 7)
      << ",\n  \"blocked_ns\": " << ns << ",\n  \"gflops\": " << gflops
      << "\n}\n";
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}

std::string Json(const Options& opt, const std::vector<MatmulRow>& rows,
                 const EvalRow& eval, const std::vector<QGemmRow>& qrows) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"bench_kernels\",\n";
  os << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n";
  os << "  \"obs_enabled\": " << (KGAG_OBS_ACTIVE ? "true" : "false")
     << ",\n";
  os << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n";
  os << "  \"matmul\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const MatmulRow& r = rows[i];
    os << "    {\"op\": \"" << r.c.op << "\", \"role\": \"" << r.c.role
       << "\", \"m\": " << r.c.m << ", \"k\": " << r.c.k
       << ", \"n\": " << r.c.n << ", \"seed_ns\": " << r.seed_ns
       << ", \"blocked_ns\": " << r.blocked_ns
       << ", \"speedup\": " << r.speedup
       << ", \"gflops_blocked\": " << r.gflops_blocked
       << ", \"allclose\": " << (r.close ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"eval\": {\"groups\": " << eval.groups
     << ", \"pool\": " << eval.pool << ", \"threads\": " << eval.threads
     << ", \"serial_ms\": " << eval.serial_ms
     << ", \"parallel_ms\": " << eval.parallel_ms
     << ", \"speedup\": " << eval.speedup << ", \"bit_identical\": "
     << (eval.bit_identical ? "true" : "false") << "},\n";
  os << "  \"qgemm\": [\n";
  for (size_t i = 0; i < qrows.size(); ++i) {
    const QGemmRow& r = qrows[i];
    os << "    {\"type\": \"" << QuantTypeName(r.type) << "\", \"m\": " << r.m
       << ", \"n\": " << r.n << ", \"k\": " << r.k
       << ", \"reps\": " << r.reps << ", \"median_us\": " << r.median_us
       << ", \"iqr_us\": " << r.iqr_us << ", \"gbps\": " << r.gbps
       << ", \"quant_isa_level\": " << kernels::QuantIsaLevel()
       << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
       << "}" << (i + 1 < qrows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Obs-enabled builds flush a metrics snapshot and (if KGAG_TRACE=1) the
/// span timeline when the run ends; a no-op otherwise.
void FlushObsArtifacts() {
#if KGAG_OBS_ACTIVE
  KGAG_OBS_SNAPSHOT("bench_kernels");
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  if (rec.enabled() && rec.size() > 0) {
    const char* trace_out = std::getenv("KGAG_TRACE_OUT");
    const std::string path =
        (trace_out != nullptr && trace_out[0] != '\0') ? trace_out
                                                       : "trace.json";
    const Status s = rec.ExportChromeTracing(path);
    if (s.ok()) {
      std::cout << "wrote " << path << " (" << rec.size() << " spans, "
                << rec.dropped() << " dropped)\n";
    } else {
      std::cerr << s.ToString() << "\n";
    }
  }
#endif
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--acceptance") {
      opt.acceptance = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      opt.threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: bench_kernels [--smoke] [--acceptance]"
                << " [--out PATH] [--threads N]\n";
      return 2;
    }
  }
  KGAG_OBS_ONLY(obs::InstallDefaultInstrumentation();)

  if (opt.acceptance) {
    const int rc = RunAcceptance(opt);
    FlushObsArtifacts();
    return rc;
  }

  const std::vector<MatmulRow> rows = RunMatmulCases(opt);
  const EvalRow eval = RunEvalCase(opt);
  const std::vector<QGemmRow> qrows = RunQGemmCases(opt);

  bool ok = eval.bit_identical;
  for (const MatmulRow& r : rows) ok = ok && r.close;
  for (const QGemmRow& r : qrows) ok = ok && r.bit_identical;

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 1;
  }
  out << Json(opt, rows, eval, qrows);
  std::cout << "wrote " << opt.out << "\n";
  FlushObsArtifacts();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kgag

int main(int argc, char** argv) { return kgag::Main(argc, argv); }
