// Data-plane network front-end (DESIGN.md §13): accepts TCP
// connections, decodes requests, and feeds them into a ServingEngine's
// continuous-batching scheduler. The listener and the HTTP codec are the
// core it shares with obs::IntrospectionServer (obs/socket_server.h).
//
// Two protocols share one port, detected from the first four bytes of
// the connection:
//   - length-prefixed binary frames (net_protocol.h) — the real data
//     plane. One connection carries a sequence of request/response
//     frame pairs (pipelined clients get responses in request order).
//   - minimal HTTP/1.1 POST fallback — form-encoded body
//     (members=1,2,3&k=10&exclude=4&priority=batch&deadline_us=500),
//     JSON reply. For curl and smoke tests, not for throughput.
//
// Threading (obs::TcpServer): one accept thread plus one thread per live
// connection. Connection concurrency is what drives batch formation —
// many connections blocked in Submit() futures is exactly the concurrent
// submitter pattern the scheduler coalesces.
//
// Metrics: serve.net.connections, serve.net.requests,
// serve.net.requests.http, serve.net.malformed_frames,
// serve.net.accept_errors.
#ifndef KGAG_SERVE_NET_SERVER_H_
#define KGAG_SERVE_NET_SERVER_H_

#include <atomic>
#include <string>

#include "common/result.h"
#include "obs/socket_server.h"
#include "serve/net_protocol.h"
#include "serve/serving_engine.h"

namespace kgag {
namespace serve {

/// \brief TCP front-end that owns no model state — it borrows a
/// ServingEngine and translates wire traffic into Submit() calls.
class NetServer {
 public:
  struct Options {
    /// 0 = ephemeral; read the bound port back with port().
    int port = 0;
    std::string bind_address = "127.0.0.1";
  };

  /// `engine` is borrowed and must outlive the server.
  NetServer(ServingEngine* engine, Options options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();
  /// Stops accepting, tears down live connections, joins. Idempotent.
  void Stop();

  bool running() const { return tcp_.running(); }
  /// Bound port (after Start()).
  int port() const { return tcp_.port(); }

  uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  uint64_t requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t malformed_frames() const {
    return malformed_.load(std::memory_order_relaxed);
  }

  /// Front-end state as JSON for /statusz.
  std::string StatusJson() const;

 private:
  /// Sniffs the protocol from the first four bytes and serves it.
  void ServeConnection(int fd);
  /// Binary frame loop: runs until EOF, error, or Stop().
  void ServeBinary(int fd);
  /// One-shot HTTP/1.1 exchange (Connection: close semantics).
  void ServeHttp(int fd);
  /// Parses one /topk form body, submits it and waits for the reply.
  obs::HttpResponse RespondToForm(const std::string& body);

  ServingEngine* engine_;
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> http_requests_{0};
  std::atomic<uint64_t> malformed_{0};
  obs::TcpServer tcp_;
};

}  // namespace serve
}  // namespace kgag

#endif  // KGAG_SERVE_NET_SERVER_H_
