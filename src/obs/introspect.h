// Live introspection endpoint (DESIGN.md §12): a dependency-free HTTP
// server exposing the observability state of a running process.
//
// Deliberately minimal — GET/HEAD only, one request per connection,
// Connection: close — because its job is `curl` and a Prometheus scraper,
// not traffic. Sockets and HTTP come from obs/socket_server.h. Each
// connection has its own thread and 2 s send/receive timeouts, so a
// silent client delays neither other scrapes nor Stop(); handlers and the
// refresh hook may run concurrently and take their own locks. accept(2)
// errors count in obs.introspect.accept_errors.
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

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/socket_server.h"

namespace kgag {
namespace obs {

/// \brief HTTP server for pull-based introspection.
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

  /// Stops accepting, shuts down open connections and waits for them.
  /// Idempotent.
  void Stop();

  bool running() const { return tcp_.running(); }

  /// Bound port (the ephemeral one when Options::port was 0); -1 before
  /// Start().
  int port() const { return tcp_.port(); }

  /// Registered /statusz fragments, in registration order (read by the
  /// default /statusz handler at request time, so sources added after
  /// RegisterDefaultIntrospection still render).
  const std::vector<std::pair<std::string, std::function<std::string()>>>&
  status_sources() const {
    return status_sources_;
  }

 private:
  void ServeConnection(int fd);
  HttpResponse Respond(const HttpRequest& request) const;

  std::map<std::string, Handler> handlers_;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      status_sources_;
  std::function<void()> refresh_;
  TcpServer tcp_;
};

/// Installs /metrics, /healthz, /tracez and /statusz on `server` (call
/// before Start). Idempotent per server.
void RegisterDefaultIntrospection(IntrospectionServer* server);

}  // namespace obs
}  // namespace kgag

#endif  // KGAG_OBS_INTROSPECT_H_
