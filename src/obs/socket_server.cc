#include "obs/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "obs/obs.h"

namespace kgag {
namespace obs {

namespace {

/// Largest request head, blank line included.
constexpr size_t kMaxHttpHeadBytes = 16384;

/// Offset just past the blank line that ends the head (CRLFCRLF or LFLF,
/// whichever comes first), or npos.
size_t HeadEnd(const std::string& data) {
  const size_t crlf = data.find("\r\n\r\n");
  const size_t lf = data.find("\n\n");
  if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
    return crlf + 4;
  }
  return lf == std::string::npos ? lf : lf + 2;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

}  // namespace

bool ReadHttpRequest(int fd, HttpRequest* request) {
  std::string data;
  char buf[1024];
  size_t head_end;
  while ((head_end = HeadEnd(data)) == std::string::npos) {
    const size_t room = kMaxHttpHeadBytes - data.size();
    const ssize_t n =
        room == 0 ? 0 : ::recv(fd, buf, std::min(sizeof(buf), room), 0);
    if (n <= 0) return false;
    data.append(buf, static_cast<size_t>(n));
  }
  std::string head = data.substr(0, head_end);
  std::istringstream(head.substr(0, head.find('\n'))) >> request->method >>
      request->target;
  if (request->target.empty()) return false;
  // Content-Length, matched case-insensitively at the start of a line.
  for (char& c : head) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  size_t length = 0;
  size_t at = head.find("\ncontent-length:");
  if (at != std::string::npos) {
    at += 16;
    while (head[at] == ' ' || head[at] == '\t') ++at;
    // The head ends in '\n', so the digits are always followed by a byte.
    const auto [end, ec] =
        std::from_chars(head.data() + at, head.data() + head.size(), length);
    if (ec != std::errc() || (*end != '\r' && *end != '\n') ||
        length > kMaxHttpBodyBytes) {
      return false;
    }
  }
  request->body = data.substr(head_end, length);
  size_t have = request->body.size();
  request->body.resize(length);
  while (have < length) {
    const ssize_t n = ::recv(fd, request->body.data() + have, length - have, 0);
    if (n <= 0) return false;
    have += static_cast<size_t>(n);
  }
  return true;
}

bool WriteHttpResponse(int fd, const HttpResponse& response, bool head_only) {
  std::ostringstream os;
  os << "HTTP/1.1 " << response.status << " " << ReasonPhrase(response.status)
     << "\r\nContent-Type: " << response.content_type
     << "\r\nContent-Length: " << response.body.size()
     << "\r\nConnection: close\r\n\r\n";
  if (!head_only) os << response.body;
  const std::string wire = os.str();
  for (size_t off = 0; off < wire.size();) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

TcpServer::TcpServer(std::string bind_address, int port,
                     const char* accept_error_counter,
                     ConnectionHandler handler)
    : bind_address_(std::move(bind_address)),
      requested_port_(port),
      accept_error_counter_(accept_error_counter),
      handler_(std::move(handler)) {}

Status TcpServer::Start() {
  KGAG_CHECK(!running()) << "Start() called twice";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(requested_port_));
  if (::inet_pton(AF_INET, bind_address_.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " + bind_address_);
  }
  // Deep backlog: the open-loop bench client opens many connections at
  // once; refusing them at the listen queue would masquerade as shed.
  const int one = 1;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0 ||
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ||
      ::listen(listen_fd_, 128)) {
    const int err = errno;
    const Status error =
        Status::IoError("listen on " + bind_address_ + ":" +
                        std::to_string(requested_port_) + ": " +
                        std::strerror(err));
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return error;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&TcpServer::AcceptLoop, this);
  return Status::OK();
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown makes the blocked accept() return on Linux; close alone can
  // leave it stuck.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Kick every live connection out of its blocking read, then wait for
  // the (detached) connection threads to drain.
  std::unique_lock<std::mutex> lock(mu_);
  for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  idle_.wait(lock, [&] { return live_fds_.empty(); });
}

size_t TcpServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_fds_.size();
}

void TcpServer::AcceptLoop() {
  while (!stopping()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
          errno != ENOMEM) {
        return;
      }
      // Out of descriptors or memory: the connection stays queued.
      KGAG_OBS_ONLY(
          MetricsRegistry::Global().GetCounter(accept_error_counter_)->Add(1);)
      for (int i = 0; i < 10 && !stopping(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping()) {
        ::close(fd);
        return;
      }
      live_fds_.insert(fd);
    }
    std::thread([this, fd] {
      handler_(fd);
      Release(fd);
    }).detach();
  }
}

void TcpServer::Release(int fd) {
  // Erase and close under the lock, so a new connection cannot reuse the
  // number while it is still registered. notify_all stays under the lock
  // too: Stop()'s waiter may destroy this object the moment it sees the
  // set empty, so the cv must not be touched after the unlock.
  std::lock_guard<std::mutex> lock(mu_);
  live_fds_.erase(fd);
  ::close(fd);
  idle_.notify_all();
}

}  // namespace obs
}  // namespace kgag
