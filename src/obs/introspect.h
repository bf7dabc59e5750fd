// Live introspection endpoint (DESIGN.md §12): a dependency-free
// HTTP/1.0 server exposing the observability state of a running process.
//
// Deliberately minimal — one blocking accept loop on its own thread, one
// request per connection, GET/HEAD only, Connection: close — because its
// job is `curl` and a Prometheus scraper, not traffic. Handlers run on
// the server thread; they only read lock-free metric state, so a slow
// scrape never blocks the serving path. accept(2) errors follow
// common/accept_backoff.h (counted in obs.introspect.accept_errors).
//
// Endpoints installed by RegisterDefaultIntrospection:
//   /metrics  Prometheus text exposition of MetricsRegistry::Global()
//   /healthz  "ok" (200) while the process is up
//   /tracez   recent completed spans as JSON (name/ts/dur/tid/req),
//             plus the dropped-span count from ring wrap-around
//   /statusz  JSON assembled from registered status sources (build info
//             is built in; servers add artifact/engine/SLO state)
#ifndef KGAG_OBS_INTROSPECT_H_
#define KGAG_OBS_INTROSPECT_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kgag {
namespace obs {

/// \brief One handler's reply.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// \brief Blocking-accept HTTP/1.0 server for pull-based introspection.
class IntrospectionServer {
 public:
  struct Options {
    /// Loopback by default: introspection is an operator surface, not a
    /// public one.
    std::string bind_address = "127.0.0.1";
    /// 0 = ephemeral; port() reports the bound port after Start().
    int port = 0;
  };

  using Handler = std::function<HttpResponse()>;

  explicit IntrospectionServer(Options options);
  ~IntrospectionServer();  ///< Stop()s if still running.

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  /// Registers `handler` for exact-match GET/HEAD `path` (must start with
  /// '/'). Call before Start(); later registration is rejected (checked).
  void Handle(std::string path, Handler handler);

  /// Adds a named JSON fragment to /statusz: the page renders as
  /// {"<key>": <json_fn()>, ...}. `json_fn` must return valid JSON.
  void AddStatusSource(std::string key, std::function<std::string()> json_fn);

  /// Invoked at the start of every request, before the handler — the
  /// place to refresh derived gauges (SLO burn rates, cache sizes) so
  /// scrapes always see current values.
  void SetRefresh(std::function<void()> refresh);

  /// Binds, listens and spawns the accept thread. Fails on bind errors
  /// (port taken, bad address).
  Status Start();

  /// Stops accepting, joins the thread, closes the socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (the ephemeral one when Options::port was 0); -1 before
  /// Start().
  int port() const { return port_; }

  /// Registered /statusz fragments, in registration order (read by the
  /// default /statusz handler at request time, so sources added after
  /// RegisterDefaultIntrospection still render).
  const std::vector<std::pair<std::string, std::function<std::string()>>>&
  status_sources() const {
    return status_sources_;
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Options options_;
  std::map<std::string, Handler> handlers_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      status_sources_;
  std::function<void()> refresh_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Installs /metrics, /healthz, /tracez and /statusz on `server` (call
/// before Start). Idempotent per server.
void RegisterDefaultIntrospection(IntrospectionServer* server);

}  // namespace obs
}  // namespace kgag

#endif  // KGAG_OBS_INTROSPECT_H_
