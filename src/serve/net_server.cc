#include "serve/net_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <charconv>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "obs/obs.h"
#include "serve/net_protocol.h"

namespace kgag {
namespace serve {

static_assert(obs::kMaxHttpBodyBytes == kMaxFrameBytes,
              "a /topk form body is capped like a binary frame");

namespace {

/// Parses all of `s` as a decimal integer of type T; false on an empty or
/// non-numeric string, trailing bytes, a sign T cannot hold, or overflow.
template <typename T>
bool ParseInt(const std::string& s, T* out) {
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, *out);
  return ec == std::errc() && ptr == last;
}

/// Parses "1,2,3" into ids; false on any token that is not an int32.
bool ParseIdList(const std::string& s, std::vector<int32_t>* out) {
  out->clear();
  if (s.empty()) return true;
  size_t pos = 0;
  for (;;) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    int32_t id;
    if (!ParseInt(s.substr(pos, comma - pos), &id)) return false;
    out->push_back(id);
    if (comma == s.size()) return true;
    pos = comma + 1;
  }
}

/// Splits a form body ("a=1&b=2") into key/value pairs. No URL-decoding
/// beyond what the field grammar needs (ids, integers, keywords).
std::vector<std::pair<std::string, std::string>> ParseForm(
    const std::string& body) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t amp = body.find('&', pos);
    if (amp == std::string::npos) amp = body.size();
    const std::string field = body.substr(pos, amp - pos);
    const size_t eq = field.find('=');
    if (eq != std::string::npos) {
      out.emplace_back(field.substr(0, eq), field.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return out;
}

int HttpStatusFor(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return 200;
    case WireStatus::kInvalidArgument: return 400;
    case WireStatus::kMalformed: return 400;
    case WireStatus::kDeadlineExceeded: return 504;
    case WireStatus::kOverloaded: return 503;
    case WireStatus::kShuttingDown: return 503;
    case WireStatus::kInternal: return 500;
  }
  return 500;
}

}  // namespace

NetServer::NetServer(ServingEngine* engine, Options options)
    : engine_(engine),
      tcp_(std::move(options.bind_address), options.port,
           "serve.net.accept_errors",
           [this](int fd) { ServeConnection(fd); }) {
  KGAG_CHECK(engine != nullptr);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() { return tcp_.Start(); }

void NetServer::Stop() { tcp_.Stop(); }

void NetServer::ServeConnection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  connections_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.net.connections", 1);
  // Protocol detection: peek the first four bytes. ASCII "POST"/"GET "
  // as a little-endian length decode to > kMaxFrameBytes, so a binary
  // peer can never be mistaken for HTTP or vice versa.
  char peek[4];
  const ssize_t n = ::recv(fd, peek, sizeof(peek), MSG_PEEK | MSG_WAITALL);
  if (n < static_cast<ssize_t>(sizeof(peek))) return;
  if (std::memcmp(peek, "POST", 4) == 0 || std::memcmp(peek, "GET ", 4) == 0) {
    ServeHttp(fd);
    return;
  }
  ServeBinary(fd);
}

void NetServer::ServeBinary(int fd) {
  // Pipelined: every frame is submitted to the scheduler the moment it
  // is decoded — a client streaming requests gets ALL of them into the
  // admission queue, where continuous batching, priorities and
  // load-shedding act on them. A writer thread drains the futures in
  // request order, so responses stay in request order per connection.
  struct PendingReply {
    std::future<Result<TopKResult>> future;  // !valid(): use raw instead
    std::vector<uint8_t> raw;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<PendingReply> inflight;
  bool done = false;

  std::thread writer([&] {
    for (;;) {
      PendingReply reply;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !inflight.empty(); });
        if (inflight.empty()) return;
        reply = std::move(inflight.front());
        inflight.pop_front();
      }
      std::vector<uint8_t> frame;
      if (reply.future.valid()) {
        Result<TopKResult> outcome = reply.future.get();
        frame = outcome.ok()
                    ? EncodeTopKResponse(*outcome)
                    : EncodeErrorResponse(WireStatusFromStatus(outcome.status()),
                                          outcome.status().message());
      } else {
        frame = std::move(reply.raw);
      }
      if (!WriteFrame(fd, frame)) {
        // Client hung up mid-reply: drain remaining futures without
        // writing (their promises resolve regardless), then exit.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
        return;
      }
    }
  });

  auto enqueue = [&](PendingReply reply) {
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(std::move(reply));
    }
    cv.notify_one();
  };

  std::vector<uint8_t> payload;
  while (!tcp_.stopping()) {
    if (!ReadFrame(fd, &payload)) break;  // EOF, error, or oversized
    Result<TopKRequest> request =
        DecodeTopKRequest(payload.data(), payload.size());
    if (!request.ok()) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      KGAG_COUNTER_ADD("serve.net.malformed_frames", 1);
      PendingReply reply;
      reply.raw = EncodeErrorResponse(WireStatus::kMalformed,
                                      request.status().message());
      enqueue(std::move(reply));
      break;  // framing is suspect; don't try to resync
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    KGAG_COUNTER_ADD("serve.net.requests", 1);
    PendingReply reply;
    reply.future = engine_->Submit(request.MoveValueUnsafe());
    enqueue(std::move(reply));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  writer.join();
}

void NetServer::ServeHttp(int fd) {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.net.requests.http", 1);
  obs::HttpRequest request;
  obs::HttpResponse response;
  if (!obs::ReadHttpRequest(fd, &request)) {
    response = {400, "text/plain", "bad request\n"};
  } else if (request.method != "POST") {
    response = {405, "text/plain", "only POST is supported\n"};
  } else {
    response = RespondToForm(request.body);
  }
  (void)obs::WriteHttpResponse(fd, response);
}

obs::HttpResponse NetServer::RespondToForm(const std::string& body) {
  TopKRequest request;
  bool have_members = false, parse_ok = true;
  for (const auto& [key, value] : ParseForm(body)) {
    if (key == "members") {
      parse_ok = ParseIdList(value, &request.members) && parse_ok;
      have_members = true;
    } else if (key == "exclude") {
      parse_ok = ParseIdList(value, &request.exclude_seen) && parse_ok;
    } else if (key == "k") {
      parse_ok = ParseInt(value, &request.k) && parse_ok;
    } else if (key == "deadline_us") {
      parse_ok = ParseInt(value, &request.deadline_us) &&
                 request.deadline_us >= 0 && parse_ok;
    } else if (key == "priority") {
      if (value == "batch") {
        request.priority = RequestClass::kBatch;
      } else if (value != "interactive") {
        parse_ok = false;
      }
    } else {
      parse_ok = false;  // unknown field: fail loud, not silent
    }
  }
  if (!parse_ok || !have_members) {
    return {400, "text/plain",
            "expected members=1,2,3[&k=10][&exclude=4,5]"
            "[&priority=interactive|batch][&deadline_us=0]\n"};
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.net.requests", 1);
  Result<TopKResult> outcome = engine_->Submit(std::move(request)).get();
  std::ostringstream os;
  if (!outcome.ok()) {
    const WireStatus status = WireStatusFromStatus(outcome.status());
    os << "{\"error\":\"" << WireStatusName(status) << "\",\"message\":\""
       << outcome.status().message() << "\"}";
    return {HttpStatusFor(status), "application/json", os.str()};
  }
  const TopKResult& result = *outcome;
  os.precision(17);
  os << "{\"items\":[";
  for (size_t i = 0; i < result.items.size(); ++i) {
    if (i > 0) os << ",";
    os << result.items[i];
  }
  os << "],\"scores\":[";
  for (size_t i = 0; i < result.scores.size(); ++i) {
    if (i > 0) os << ",";
    os << result.scores[i];
  }
  os << "],\"cache_hit\":" << (result.cache_hit ? "true" : "false") << "}";
  return {200, "application/json", os.str()};
}

std::string NetServer::StatusJson() const {
  std::ostringstream os;
  os << "{\"running\":" << (running() ? "true" : "false")
     << ",\"port\":" << port()
     << ",\"connections_accepted\":"
     << connections_.load(std::memory_order_relaxed)
     << ",\"active_connections\":" << tcp_.active_connections()
     << ",\"requests\":" << requests_.load(std::memory_order_relaxed)
     << ",\"http_requests\":"
     << http_requests_.load(std::memory_order_relaxed)
     << ",\"malformed_frames\":"
     << malformed_.load(std::memory_order_relaxed) << "}";
  return os.str();
}

}  // namespace serve
}  // namespace kgag
