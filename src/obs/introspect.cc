#include "obs/introspect.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kgag {
namespace obs {

namespace {

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
    : tcp_(std::move(options.bind_address), options.port,
           "obs.introspect.accept_errors",
           [this](int fd) { ServeConnection(fd); }) {}

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

Status IntrospectionServer::Start() { return tcp_.Start(); }

void IntrospectionServer::Stop() { tcp_.Stop(); }

void IntrospectionServer::ServeConnection(int fd) {
  // A stuck client must not hold its thread forever: bound both directions.
  timeval tv{.tv_sec = 2, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  HttpRequest request;
  const HttpResponse response =
      ReadHttpRequest(fd, &request)
          ? Respond(request)
          : HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
  // A failed write means the client hung up mid-reply; nothing to do.
  (void)WriteHttpResponse(fd, response, request.method == "HEAD");
}

HttpResponse IntrospectionServer::Respond(const HttpRequest& request) const {
  if (request.method != "GET" && request.method != "HEAD") {
    return {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  }
  // Query strings are ignored: every endpoint is parameterless.
  const auto it =
      handlers_.find(request.target.substr(0, request.target.find('?')));
  if (it == handlers_.end()) {
    std::ostringstream os;
    os << "not found; endpoints:\n";
    for (const auto& [path, unused] : handlers_) os << "  " << path << "\n";
    return {404, "text/plain; charset=utf-8", os.str()};
  }
  if (refresh_) refresh_();
  return it->second();
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
