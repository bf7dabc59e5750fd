// IntrospectionServer tests: real loopback HTTP against an ephemeral
// port — endpoint contracts (/metrics, /healthz, /tracez, /statusz),
// custom handlers and status sources, the per-request refresh hook,
// 404/405/HEAD semantics, the 16 KiB head limit, and start/stop
// lifecycle, including with a connected client that sends nothing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace kgag {
namespace {

using obs::HttpResponse;
using obs::IntrospectionServer;
using obs::MetricsRegistry;

/// Loopback connection to `port`; -1 on failure.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One-shot HTTP request over loopback; returns the raw response
/// (status line + headers + body) or "" on connect/write failure.
std::string HttpRequest(int port, const std::string& request) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return HttpRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(IntrospectTest, ServesCustomHandlerOnEphemeralPort) {
  IntrospectionServer server({});
  server.Handle("/custom", [] {
    return HttpResponse{200, "text/plain; charset=utf-8", "hello\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string response = Get(server.port(), "/custom");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 6"), std::string::npos);
  EXPECT_EQ(BodyOf(response), "hello\n");
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(IntrospectTest, DefaultEndpointsServeTheirContracts) {
  MetricsRegistry::Global().GetCounter("test.introspect_counter")->Add(5);
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  rec.Record("test.introspect_span", 1.0, 2.0, /*req=*/42);
  rec.SetEnabled(false);

  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  server.AddStatusSource("extra", [] { return std::string("{\"n\":7}"); });
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  const std::string health = Get(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  const std::string metrics = Get(port, "/metrics");
  EXPECT_NE(metrics.find("version=0.0.4"), std::string::npos)
      << "Prometheus exposition content type";
  EXPECT_NE(metrics.find("kgag_test_introspect_counter"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);

  const std::string tracez = BodyOf(Get(port, "/tracez"));
  EXPECT_NE(tracez.find("\"span_count\""), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("\"dropped_spans\""), std::string::npos);
  EXPECT_NE(tracez.find("\"test.introspect_span\""), std::string::npos);
  EXPECT_NE(tracez.find("\"req\":42"), std::string::npos)
      << "request-scoped spans must surface their id on /tracez";

  const std::string statusz = BodyOf(Get(port, "/statusz"));
  EXPECT_NE(statusz.find("\"build\""), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"extra\":{\"n\":7}"), std::string::npos)
      << "status sources render as named JSON fragments";

  server.Stop();
  rec.Clear();
}

TEST(IntrospectTest, FragmentedRequestLineStillParses) {
  // A slow client dribbling the request one byte per segment must parse
  // exactly like a single-recv request: the server loops until the
  // header terminator instead of assuming one recv == one request.
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());

  const int fd = Connect(server.port());
  ASSERT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
  for (char c : request) {
    ASSERT_EQ(::send(fd, &c, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_EQ(BodyOf(response), "ok\n");
  server.Stop();
}

TEST(IntrospectTest, RefreshRunsBeforeEveryHandler) {
  int refreshed = 0;
  IntrospectionServer server({});
  server.Handle("/probe", [&refreshed] {
    return HttpResponse{200, "text/plain; charset=utf-8",
                        std::to_string(refreshed) + "\n"};
  });
  server.SetRefresh([&refreshed] { ++refreshed; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(BodyOf(Get(server.port(), "/probe")), "1\n");
  EXPECT_EQ(BodyOf(Get(server.port(), "/probe")), "2\n");
  server.Stop();
}

TEST(IntrospectTest, UnknownPathListsEndpointsAnd404s) {
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Get(server.port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos) << response;
  // The 404 body is a directory of what IS served.
  for (const char* path : {"/metrics", "/healthz", "/tracez", "/statusz"}) {
    EXPECT_NE(BodyOf(response).find(path), std::string::npos) << path;
  }
  server.Stop();
}

TEST(IntrospectTest, NonGetMethodsAreRejected) {
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string response =
      HttpRequest(server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos) << response;
  server.Stop();
}

TEST(IntrospectTest, HeadReturnsHeadersWithoutBody) {
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string response =
      HttpRequest(server.port(), "HEAD /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  // Content-Length describes the GET body, but none is sent.
  EXPECT_NE(response.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(BodyOf(response), "");
  server.Stop();
}

TEST(IntrospectTest, QueryStringsAreIgnored) {
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Get(server.port(), "/healthz?verbose=1");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  server.Stop();
}

TEST(IntrospectTest, StopIsIdempotentAndPortIsReusable) {
  IntrospectionServer first({});
  first.Handle("/x", [] {
    return HttpResponse{200, "text/plain; charset=utf-8", "x"};
  });
  ASSERT_TRUE(first.Start().ok());
  const int port = first.port();
  first.Stop();
  first.Stop();  // second Stop is a no-op
  EXPECT_FALSE(first.running());
  EXPECT_EQ(Get(port, "/x"), "") << "stopped server must not answer";

  // SO_REUSEADDR: a new server can bind the same port immediately.
  IntrospectionServer second({.bind_address = "127.0.0.1", .port = port});
  second.Handle("/x", [] {
    return HttpResponse{200, "text/plain; charset=utf-8", "y"};
  });
  ASSERT_TRUE(second.Start().ok());
  EXPECT_EQ(second.port(), port);
  EXPECT_EQ(BodyOf(Get(port, "/x")), "y");
  second.Stop();
}

TEST(IntrospectTest, HeadLimitIs16KiB) {
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string start = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  // A 12 KiB head fits.
  const std::string fits = start + std::string(12 * 1024, 'a') + "\r\n\r\n";
  EXPECT_NE(HttpRequest(server.port(), fits).find("HTTP/1.1 200"),
            std::string::npos);
  // 16 KiB without the blank line: the head cannot end within the limit.
  // Exactly 16 KiB is sent, so the server consumes all of it and closes
  // cleanly after its reply.
  const std::string unterminated =
      start + std::string(16 * 1024 - start.size(), 'a');
  EXPECT_NE(HttpRequest(server.port(), unterminated).find("HTTP/1.1 400"),
            std::string::npos);
  server.Stop();
}

TEST(IntrospectTest, SilentClientDoesNotDelayOtherScrapes) {
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  // Connected first, so it is accepted before the scrape below.
  const int silent = Connect(server.port());
  ASSERT_GE(silent, 0);
  const auto start = std::chrono::steady_clock::now();
  const std::string response = Get(server.port(), "/healthz");
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_LT(took.count(), 1.0) << "a silent client held up /healthz";
  ::close(silent);
  server.Stop();
}

TEST(IntrospectTest, StopDoesNotWaitForSilentClient) {
  IntrospectionServer server({});
  obs::RegisterDefaultIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  const int silent = Connect(server.port());
  ASSERT_GE(silent, 0);
  // Let the server accept it and block reading its request head.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0) << "Stop() waited out the receive timeout";
  EXPECT_FALSE(server.running());
  ::close(silent);
}

TEST(IntrospectTest, BadBindAddressFailsStart) {
  IntrospectionServer server({.bind_address = "not-an-ip", .port = 0});
  const Status s = server.Start();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace kgag
