#include "serve/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <sstream>

#include "common/accept_backoff.h"
#include "common/check.h"
#include "obs/obs.h"
#include "serve/net_protocol.h"

namespace kgag {
namespace serve {

namespace {

/// Parses "1,2,3" into ids; false on any non-numeric token.
bool ParseIdList(const std::string& s, std::vector<int32_t>* out) {
  out->clear();
  if (s.empty()) return true;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(pos, comma - pos);
    if (tok.empty()) return false;
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    out->push_back(static_cast<int32_t>(v));
    pos = comma + 1;
    if (comma == s.size()) break;
  }
  return true;
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

bool WriteHttp(int fd, int status, const std::string& content_type,
               const std::string& body) {
  const char* reason = status == 200   ? "OK"
                       : status == 400 ? "Bad Request"
                       : status == 405 ? "Method Not Allowed"
                       : status == 503 ? "Service Unavailable"
                       : status == 504 ? "Gateway Timeout"
                                       : "Internal Server Error";
  std::ostringstream os;
  os << "HTTP/1.1 " << status << " " << reason
     << "\r\nContent-Type: " << content_type
     << "\r\nContent-Length: " << body.size()
     << "\r\nConnection: close\r\n\r\n"
     << body;
  const std::string wire = os.str();
  return WriteAll(fd, wire.data(), wire.size());
}

}  // namespace

NetServer::NetServer(ServingEngine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {
  KGAG_CHECK(engine != nullptr);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  KGAG_CHECK(!running()) << "Start() called twice";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  // Deep backlog: the open-loop bench client opens many connections at
  // once; refusing them at the listen queue would masquerade as shed.
  if (::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&NetServer::AcceptLoop, this);
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Kick every live connection out of its blocking read, then wait for
  // the (detached) connection threads to drain.
  std::unique_lock<std::mutex> lock(conns_mu_);
  for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  conns_cv_.wait(lock, [&] { return active_conns_ == 0; });
}

bool NetServer::RegisterConnection(int fd) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  if (stopping_.load(std::memory_order_acquire)) return false;
  live_fds_.insert(fd);
  ++active_conns_;
  return true;
}

void NetServer::UnregisterConnection(int fd) {
  // notify_all stays under the lock: Stop()'s waiter may be the last
  // reference holder, and ~NetServer destroys conns_cv_ the moment the
  // predicate is observed. Broadcasting before the unlock guarantees
  // the cv is never touched after the waiter can return.
  std::lock_guard<std::mutex> lock(conns_mu_);
  live_fds_.erase(fd);
  --active_conns_;
  conns_cv_.notify_all();
}

void NetServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (!BackOffAfterAcceptError(errno, stopping_)) return;
      KGAG_COUNTER_ADD("serve.net.accept_errors", 1);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!RegisterConnection(fd)) {
      ::close(fd);
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    KGAG_COUNTER_ADD("serve.net.connections", 1);
    // Detached: lifetime is governed by the registration — Stop() shuts
    // the fd down and waits for active_conns_ to hit zero.
    std::thread([this, fd] {
      ServeConnection(fd);
      ::close(fd);
      UnregisterConnection(fd);
    }).detach();
  }
}

void NetServer::ServeConnection(int fd) {
  // Protocol detection: peek the first four bytes. ASCII "POST"/"GET "
  // as a little-endian length decode to > kMaxFrameBytes, so a binary
  // peer can never be mistaken for HTTP or vice versa.
  char peek[4];
  const ssize_t n = ::recv(fd, peek, sizeof(peek), MSG_PEEK | MSG_WAITALL);
  if (n < static_cast<ssize_t>(sizeof(peek))) return;
  if (std::memcmp(peek, "POST", 4) == 0 || std::memcmp(peek, "GET ", 4) == 0) {
    ServeHttp(fd, "");
    return;
  }
  ServeBinary(fd);
}

WireStatus NetServer::HandleRequest(TopKRequest request, TopKResult* result,
                                    std::string* error) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.net.requests", 1);
  Result<TopKResult> outcome = engine_->Submit(std::move(request)).get();
  if (!outcome.ok()) {
    *error = outcome.status().message();
    return WireStatusFromStatus(outcome.status());
  }
  *result = outcome.MoveValueUnsafe();
  return WireStatus::kOk;
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
  while (!stopping_.load(std::memory_order_acquire)) {
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

void NetServer::ServeHttp(int fd, const std::string&) {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.net.requests.http", 1);
  // Read headers (bounded), then exactly Content-Length body bytes.
  std::string head;
  char buf[1024];
  size_t header_end = std::string::npos;
  while (head.size() < 16384) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    head.append(buf, static_cast<size_t>(n));
    header_end = head.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
  }
  if (header_end == std::string::npos) {
    (void)WriteHttp(fd, 400, "text/plain", "bad request\n");
    return;
  }
  std::istringstream line(head.substr(0, head.find('\n')));
  std::string method, target;
  line >> method >> target;
  if (method != "POST") {
    (void)WriteHttp(fd, 405, "text/plain", "only POST is supported\n");
    return;
  }
  // Case-insensitive Content-Length scan over the header block.
  size_t content_length = 0;
  {
    std::string lower = head.substr(0, header_end);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const size_t at = lower.find("content-length:");
    if (at != std::string::npos) {
      content_length = static_cast<size_t>(
          std::strtoul(lower.c_str() + at + 15, nullptr, 10));
    }
  }
  if (content_length > kMaxFrameBytes) {
    (void)WriteHttp(fd, 400, "text/plain", "body too large\n");
    return;
  }
  std::string body = head.substr(header_end + 4);
  while (body.size() < content_length) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    body.append(buf, static_cast<size_t>(n));
  }
  body.resize(content_length);

  TopKRequest request;
  bool have_members = false, parse_ok = true;
  for (const auto& [key, value] : ParseForm(body)) {
    if (key == "members") {
      parse_ok = ParseIdList(value, &request.members) && parse_ok;
      have_members = true;
    } else if (key == "exclude") {
      parse_ok = ParseIdList(value, &request.exclude_seen) && parse_ok;
    } else if (key == "k") {
      request.k = static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "deadline_us") {
      request.deadline_us =
          static_cast<int64_t>(std::strtoul(value.c_str(), nullptr, 10));
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
    (void)WriteHttp(fd, 400, "text/plain",
                    "expected members=1,2,3[&k=10][&exclude=4,5]"
                    "[&priority=interactive|batch][&deadline_us=0]\n");
    return;
  }
  TopKResult result;
  std::string error;
  const WireStatus status = HandleRequest(std::move(request), &result, &error);
  if (status != WireStatus::kOk) {
    std::ostringstream os;
    os << "{\"error\":\"" << WireStatusName(status) << "\",\"message\":\""
       << error << "\"}";
    (void)WriteHttp(fd, HttpStatusFor(status), "application/json", os.str());
    return;
  }
  std::ostringstream os;
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
  (void)WriteHttp(fd, 200, "application/json", os.str());
}

std::string NetServer::StatusJson() const {
  size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    active = active_conns_;
  }
  std::ostringstream os;
  os << "{\"running\":" << (running() ? "true" : "false")
     << ",\"port\":" << port_
     << ",\"connections_accepted\":"
     << connections_.load(std::memory_order_relaxed)
     << ",\"active_connections\":" << active
     << ",\"requests\":" << requests_.load(std::memory_order_relaxed)
     << ",\"http_requests\":"
     << http_requests_.load(std::memory_order_relaxed)
     << ",\"malformed_frames\":"
     << malformed_.load(std::memory_order_relaxed) << "}";
  return os.str();
}

}  // namespace serve
}  // namespace kgag
