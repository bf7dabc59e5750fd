#include "obs/introspect.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/accept_backoff.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace kgag {
namespace obs {

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 400: return "Bad Request";
    default: return "Internal Server Error";
  }
}

/// Reads until the end of the request headers (blank line), a size cap,
/// EOF or the socket timeout. Introspection requests are tiny; anything
/// that does not fit in 8 KiB is not one of ours.
bool ReadRequestHead(int fd, std::string* out) {
  char buf[1024];
  while (out->size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    out->append(buf, static_cast<size_t>(n));
    if (out->find("\r\n\r\n") != std::string::npos ||
        out->find("\n\n") != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Most recent completed spans as JSON, newest last; `limit` bounds the
/// page size so /tracez stays curl-able even with full rings.
std::string TracezJson(size_t limit) {
  TraceRecorder& rec = TraceRecorder::Global();
  std::vector<TraceEvent> events = rec.Collect();
  const size_t start = events.size() > limit ? events.size() - limit : 0;
  std::ostringstream os;
  os.precision(12);
  os << "{\"enabled\":" << (rec.enabled() ? "true" : "false")
     << ",\"span_count\":" << events.size()
     << ",\"dropped_spans\":" << rec.dropped() << ",\"spans\":[";
  for (size_t i = start; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > start) os << ",";
    os << "{\"name\":\"" << e.name << "\",\"ts_us\":" << e.ts_us
       << ",\"dur_us\":" << e.dur_us << ",\"tid\":" << e.tid;
    if (e.req != 0) os << ",\"req\":" << e.req;
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace

IntrospectionServer::IntrospectionServer(Options options)
    : options_(std::move(options)) {}

IntrospectionServer::~IntrospectionServer() { Stop(); }

void IntrospectionServer::Handle(std::string path, Handler handler) {
  KGAG_CHECK(!running()) << "Handle() after Start()";
  KGAG_CHECK(!path.empty() && path[0] == '/') << "path must start with /";
  handlers_[std::move(path)] = std::move(handler);
}

void IntrospectionServer::AddStatusSource(
    std::string key, std::function<std::string()> json_fn) {
  KGAG_CHECK(!running()) << "AddStatusSource() after Start()";
  status_sources_.emplace_back(std::move(key), std::move(json_fn));
}

void IntrospectionServer::SetRefresh(std::function<void()> refresh) {
  KGAG_CHECK(!running()) << "SetRefresh() after Start()";
  refresh_ = std::move(refresh);
}

Status IntrospectionServer::Start() {
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
  if (::listen(listen_fd_, 16) != 0) {
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
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&IntrospectionServer::AcceptLoop, this);
  return Status::OK();
}

void IntrospectionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  // Unblock accept(): shutdown makes the blocked call return on Linux;
  // close alone can leave it stuck.
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void IntrospectionServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (!BackOffAfterAcceptError(errno, stop_)) return;
      KGAG_COUNTER_ADD("obs.introspect.accept_errors", 1);
      continue;
    }
    // A stuck client must not wedge the loop: bound both directions.
    timeval tv{.tv_sec = 2, .tv_usec = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    ServeConnection(fd);
    ::close(fd);
  }
}

void IntrospectionServer::ServeConnection(int fd) {
  std::string head;
  HttpResponse resp;
  bool head_only = false;
  if (!ReadRequestHead(fd, &head)) {
    resp = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    // Request line: METHOD SP PATH SP VERSION. Query strings are ignored
    // (every endpoint is parameterless).
    std::istringstream line(head.substr(0, head.find('\n')));
    std::string method, target;
    line >> method >> target;
    const size_t query = target.find('?');
    if (query != std::string::npos) target.resize(query);
    head_only = method == "HEAD";
    if (method != "GET" && method != "HEAD") {
      resp = {405, "text/plain; charset=utf-8", "only GET is supported\n"};
    } else {
      auto it = handlers_.find(target);
      if (it == handlers_.end()) {
        std::ostringstream os;
        os << "not found; endpoints:\n";
        for (const auto& [path, unused] : handlers_) os << "  " << path << "\n";
        resp = {404, "text/plain; charset=utf-8", os.str()};
      } else {
        if (refresh_) refresh_();
        resp = it->second();
      }
    }
  }
  std::ostringstream os;
  os << "HTTP/1.0 " << resp.status << " " << ReasonPhrase(resp.status)
     << "\r\nContent-Type: " << resp.content_type
     << "\r\nContent-Length: " << resp.body.size()
     << "\r\nConnection: close\r\n\r\n";
  if (!head_only) os << resp.body;
  // A failed write means the client hung up mid-reply; nothing to do.
  (void)WriteAll(fd, os.str());
}

void RegisterDefaultIntrospection(IntrospectionServer* server) {
  server->Handle("/metrics", [] {
    return HttpResponse{
        200, "text/plain; version=0.0.4; charset=utf-8",
        MetricsRegistry::Global().PrometheusText()};
  });
  server->Handle("/healthz", [] {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  server->Handle("/tracez", [] {
    return HttpResponse{200, "application/json", TracezJson(256)};
  });
  server->Handle("/statusz", [server] {
    std::ostringstream os;
    os << "{\"build\":{\"project\":\"kgag\",\"compiler\":\"" << __VERSION__
       << "\",\"obs_enabled\":"
#ifdef KGAG_OBS_ENABLED
       << "true"
#else
       << "false"
#endif
       << "}";
    for (const auto& [key, fn] : server->status_sources()) {
      os << ",\"" << key << "\":" << fn();
    }
    os << "}";
    return HttpResponse{200, "application/json", os.str()};
  });
}

}  // namespace obs
}  // namespace kgag
