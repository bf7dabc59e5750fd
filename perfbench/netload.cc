#include "netload.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/rng.h"

namespace perfbench {

namespace serve = kgag::serve;

std::vector<double> PoissonArrivals(double rate, double duration_s,
                                    uint64_t seed) {
  kgag::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51);
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(rng.Uniform(1e-12, 1.0)) / rate;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

std::unique_ptr<LoadPhase> LoadPhase::OpenLoop(
    const LoadOptions& options,
    const std::vector<serve::TopKRequest>* requests,
    std::vector<double> arrivals_s) {
  std::unique_ptr<LoadPhase> p(new LoadPhase());
  p->options_ = options;
  p->requests_ = requests;
  p->arrivals_s_ = std::move(arrivals_s);
  return p;
}

std::unique_ptr<LoadPhase> LoadPhase::ClosedLoop(
    const LoadOptions& options,
    const std::vector<serve::TopKRequest>* requests, size_t window,
    double duration_s) {
  std::unique_ptr<LoadPhase> p(new LoadPhase());
  p->options_ = options;
  p->requests_ = requests;
  p->window_ = std::max<size_t>(1, window);
  p->duration_s_ = duration_s;
  return p;
}

LoadPhase::~LoadPhase() {
  if (thread_.joinable()) thread_.join();
}

void LoadPhase::Start() {
  start_ = Clock::now();
  thread_ = std::thread([this] { Run(); });
}

LoadStats LoadPhase::Join() {
  thread_.join();
  return std::move(stats_);
}

void LoadPhase::Run() {
  LoadStats& st = stats_;
  const bool open_loop = window_ == 0;
  const std::vector<serve::TopKRequest>& reqs = *requests_;

  kgag::Result<int> fd = serve::ConnectTcp("127.0.0.1", options_.port);
  if (!fd.ok()) {
    // Nothing can be sent: every scheduled request fails.
    const size_t owned = open_loop ? arrivals_s_.size() : 1;
    st.sent += owned;
    st.transport += owned;
    return;
  }

  struct InFlight {
    size_t index;
    Clock::time_point scheduled;
    Clock::time_point sent;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> inflight;  // guarded by mu
  size_t credits = window_;       // guarded by mu (closed loop only)
  bool writer_done = false;       // guarded by mu
  uint64_t unsent_failures = 0;   // written by the writer before done

  auto send_one = [&](size_t index, Clock::time_point scheduled) {
    serve::TopKRequest request = reqs[index % reqs.size()];
    request.deadline_us = options_.deadline_us;
    std::vector<uint8_t> payload;
    {
      Span span("net.encode");
      payload = serve::EncodeTopKRequest(request);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back({index, scheduled, Clock::now()});
    }
    cv.notify_all();
    return serve::WriteFrame(*fd, payload);
  };

  std::thread writer([&] {
    if (open_loop) {
      for (size_t i = 0; i < arrivals_s_.size(); ++i) {
        const Clock::time_point due =
            start_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals_s_[i]));
        std::this_thread::sleep_until(due);
        if (!send_one(i, due)) {
          unsent_failures = arrivals_s_.size() - i - 1;
          break;
        }
      }
    } else {
      const Clock::time_point stop =
          start_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(duration_s_));
      for (size_t i = 0;; ++i) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return credits > 0; });
          --credits;
        }
        const Clock::time_point now = Clock::now();
        if (now >= stop) break;
        if (!send_one(i, now)) break;
      }
    }
    // Half-close: the server finishes the replies still owed, then sees
    // end of stream.
    ::shutdown(*fd, SHUT_WR);
    {
      std::lock_guard<std::mutex> lock(mu);
      writer_done = true;
    }
    cv.notify_all();
  });

  for (;;) {
    InFlight rec;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !inflight.empty() || writer_done; });
      if (inflight.empty()) break;
      rec = inflight.front();
      inflight.pop_front();
    }
    ++st.sent;
    std::vector<uint8_t> payload;
    const bool read_ok = serve::ReadFrame(*fd, &payload);
    const Clock::time_point done = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      ++credits;
    }
    cv.notify_all();
    if (!read_ok) {
      ++st.transport;
      continue;  // every request without a reply is a transport failure
    }
    st.wall_s = std::max(st.wall_s, SecondsBetween(start_, done));
    kgag::Result<serve::WireResponse> resp = [&] {
      Span span("net.decode");
      return serve::DecodeTopKResponse(payload.data(), payload.size());
    }();
    if (!resp.ok()) {
      ++st.transport;
      continue;
    }
    switch (resp->status) {
      case serve::WireStatus::kOk:
        break;
      case serve::WireStatus::kDeadlineExceeded:
        ++st.deadline;
        continue;
      case serve::WireStatus::kOverloaded:
        ++st.overloaded;
        continue;
      default:
        ++st.other;
        continue;
    }
    ++st.ok;
    st.latency_ms.push_back(
        1e3 * SecondsBetween(open_loop ? rec.scheduled : rec.sent, done));
    st.completed_s.push_back(SecondsBetween(start_, done));
    if (open_loop) {
      st.lateness_ms.push_back(1e3 * SecondsBetween(rec.scheduled, rec.sent));
    }
    if (options_.capture_every > 0 &&
        (rec.index + options_.capture_offset) % options_.capture_every == 0) {
      st.captured.push_back({rec.index, rec.sent, done, std::move(resp->items),
                             std::move(resp->scores)});
    }
  }
  writer.join();
  st.sent += unsent_failures;
  st.transport += unsent_failures;
  ::close(*fd);
}

}  // namespace perfbench
