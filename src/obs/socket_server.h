// Socket core shared by serve::NetServer (the data plane, DESIGN.md §13)
// and obs::IntrospectionServer (DESIGN.md §12): a blocking TCP listener
// with one thread per connection, and a minimal HTTP/1.x codec. Raw
// POSIX sockets, no dependencies.
#ifndef KGAG_OBS_SOCKET_SERVER_H_
#define KGAG_OBS_SOCKET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/status.h"

namespace kgag {
namespace obs {

struct HttpRequest {
  std::string method;
  std::string target;  ///< as sent, query string included
  std::string body;    ///< exactly Content-Length bytes
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Largest Content-Length: serve::kMaxFrameBytes, since a /topk form body
/// carries what a binary frame does.
inline constexpr size_t kMaxHttpBodyBytes = size_t{1} << 20;

/// Reads one request: a head ending at CRLFCRLF or LFLF within 16 KiB,
/// then exactly Content-Length body bytes. False on a malformed or
/// oversized request, or when the peer stops sending (EOF, error, receive
/// timeout).
bool ReadHttpRequest(int fd, HttpRequest* request);

/// Writes an HTTP/1.1 reply with Content-Type, Content-Length and
/// Connection: close; `head_only` (a HEAD request) omits the body. False
/// if the peer hung up.
bool WriteHttpResponse(int fd, const HttpResponse& response,
                       bool head_only = false);

/// \brief Blocking TCP listener that runs `handler` on its own thread for
/// every accepted connection and closes the fd when it returns. An accept
/// short of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) is
/// counted under `accept_error_counter` and retried after a 50 ms
/// back-off; any other accept error ends the loop.
class TcpServer {
 public:
  using ConnectionHandler = std::function<void(int fd)>;

  /// Port 0 = ephemeral. `accept_error_counter` must outlive the server
  /// (a string literal).
  TcpServer(std::string bind_address, int port,
            const char* accept_error_counter, ConnectionHandler handler);
  ~TcpServer() { Stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens (backlog 128) and starts the accept thread.
  Status Start();
  /// Shuts down the listen fd and every live connection fd, then waits
  /// for the connection threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// True from Stop() on; connection loops may poll it to end early.
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
  /// Bound port; -1 before Start().
  int port() const { return port_; }
  size_t active_connections() const;

 private:
  void AcceptLoop();
  void Release(int fd);

  const std::string bind_address_;
  const int requested_port_;
  const char* const accept_error_counter_;
  const ConnectionHandler handler_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  std::condition_variable idle_;
  std::unordered_set<int> live_fds_;  ///< guarded by mu_
};

}  // namespace obs
}  // namespace kgag

#endif  // KGAG_OBS_SOCKET_SERVER_H_
