// Load generator for the serving workloads: drives a NetServer over one
// loopback TCP connection with pipelined binary frames.
//
// Two shapes, both fed from a request list fixed before any traffic:
//   - open loop: arrival times are a Poisson schedule drawn up front from
//     the seed at a fixed rate; each request is sent when due whatever
//     the server is doing, and its latency runs from the SCHEDULED send
//     (so a stall is charged to every request it delays). How late the
//     generator actually sent is reported separately.
//   - closed loop: a fixed number of requests stay outstanding for a fixed
//     time; throughput is completions per second.
//
// Threads: one writer and one reader, well within WorkerThreads(). The
// server answers a connection's requests in order, so the reader matches
// replies to requests first in, first out.
#ifndef KGAG_PERFBENCH_NETLOAD_H_
#define KGAG_PERFBENCH_NETLOAD_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "serve/net_protocol.h"
#include "serve/serving_engine.h"

namespace perfbench {

/// One response kept for the output check.
struct Captured {
  size_t index = 0;  ///< position in the request list
  Clock::time_point sent;
  Clock::time_point received;
  std::vector<kgag::ItemId> items;
  std::vector<double> scores;
};

/// Outcome counts and samples of one load phase.
struct LoadStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t deadline = 0;    ///< wire DeadlineExceeded (shed in queue)
  uint64_t overloaded = 0;  ///< wire Overloaded (shed at admission)
  uint64_t transport = 0;   ///< connect/read/decode failures, no reply
  uint64_t other = 0;       ///< any other wire status
  std::vector<double> latency_ms;   ///< OK replies only
  std::vector<double> completed_s;  ///< parallel to latency_ms: reply time
                                    ///< since the phase started
  std::vector<double> lateness_ms;  ///< open loop: actual - scheduled send
  std::vector<Captured> captured;
  double wall_s = 0.0;  ///< phase start to last reply

  uint64_t failed() const { return deadline + overloaded + transport + other; }
};

struct LoadOptions {
  int port = 0;
  /// Every request carries this relative deadline (micros).
  int64_t deadline_us = 0;
  /// Keep every capture_every-th response (by request index, offset by
  /// capture_offset) for the output check; 0 keeps none.
  size_t capture_every = 0;
  size_t capture_offset = 0;
};

/// \brief One load phase running on its own thread; Start() returns at
/// once, Join() waits for every reply and returns the stats.
class LoadPhase {
 public:
  /// Open loop: request i is due at arrivals_s[i] seconds after Start().
  static std::unique_ptr<LoadPhase> OpenLoop(
      const LoadOptions& options,
      const std::vector<kgag::serve::TopKRequest>* requests,
      std::vector<double> arrivals_s);
  /// Closed loop: `window` requests outstanding, new sends stop after
  /// `duration_s`; requests cycle through the list.
  static std::unique_ptr<LoadPhase> ClosedLoop(
      const LoadOptions& options,
      const std::vector<kgag::serve::TopKRequest>* requests, size_t window,
      double duration_s);

  ~LoadPhase();
  LoadPhase(const LoadPhase&) = delete;
  LoadPhase& operator=(const LoadPhase&) = delete;

  void Start();
  LoadStats Join();

 private:
  LoadPhase() = default;
  void Run();

  LoadOptions options_;
  const std::vector<kgag::serve::TopKRequest>* requests_ = nullptr;
  std::vector<double> arrivals_s_;  ///< open loop only
  size_t window_ = 0;               ///< 0 = open loop
  double duration_s_ = 0.0;
  Clock::time_point start_;
  LoadStats stats_;
  std::thread thread_;
};

/// Poisson arrival times (seconds) at `rate` per second covering
/// `duration_s`, drawn from `seed`.
std::vector<double> PoissonArrivals(double rate, double duration_s,
                                    uint64_t seed);

}  // namespace perfbench

#endif  // KGAG_PERFBENCH_NETLOAD_H_
