// Data-plane front-end tests (DESIGN.md §13): wire-format round trips,
// binary request/response over real sockets with bit-identical scores,
// pipelining, malformed/oversized frame rejection, byte-at-a-time
// reassembly, the HTTP/1.1 POST fallback and its head reader, Stop()
// semantics and the accept loop's back-off on descriptor exhaustion.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic/standard_datasets.h"
#include "gtest/gtest.h"
#include "models/kgag_model.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/frozen_model.h"
#include "serve/net_protocol.h"
#include "serve/net_server.h"
#include "serve/serving_engine.h"

namespace kgag {
namespace serve {
namespace {

class NetTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    dataset_ = new GroupRecDataset(
        MakeMovieLensRandDataset(/*seed=*/11, /*scale=*/0.15));
    KgagConfig config;
    config.propagation.dim = 16;
    config.propagation.depth = 2;
    config.propagation.sample_size = 4;
    config.propagation.final_tanh = false;
    config.eval_tree_samples = 2;
    config.seed = 77;
    auto model = KgagModel::Create(dataset_, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    Result<FrozenModel> frozen = FreezeKgagModel(model->get());
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    frozen_ = new FrozenModel(std::move(*frozen));
  }

  static void TearDownTestSuite() {
    delete frozen_;
    delete dataset_;
    frozen_ = nullptr;
    dataset_ = nullptr;
  }

  static const GroupRecDataset* dataset_;
  static const FrozenModel* frozen_;
};

const GroupRecDataset* NetTest::dataset_ = nullptr;
const FrozenModel* NetTest::frozen_ = nullptr;

std::vector<UserId> Members(GroupId g) {
  auto span = NetTest::dataset_->groups.MembersOf(g);
  return {span.begin(), span.end()};
}

/// Engine + server pair every test builds on; ephemeral port.
struct Harness {
  explicit Harness(ServingEngine::Options opts = {.max_batch = 4,
                                                  .batch_deadline_us = 200,
                                                  .cache_capacity = 8})
      : engine(NetTest::frozen_, opts), server(&engine, {.port = 0}) {
    Status st = server.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ServingEngine engine;
  NetServer server;
};

int MustConnect(const Harness& h) {
  Result<int> fd = ConnectTcp("127.0.0.1", h.server.port());
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  return *fd;
}

/// One binary request/response exchange on an open connection.
Result<WireResponse> Exchange(int fd, const TopKRequest& request) {
  if (!WriteFrame(fd, EncodeTopKRequest(request))) {
    return Status::IoError("write failed");
  }
  std::vector<uint8_t> payload;
  if (!ReadFrame(fd, &payload)) return Status::IoError("read failed");
  return DecodeTopKResponse(payload.data(), payload.size());
}

/// Raw HTTP exchange: writes `request` verbatim, reads to EOF. The
/// receive timeout turns a server that never answers into a failure
/// instead of a hang.
std::string HttpExchange(const Harness& h, const std::string& request) {
  const int fd = MustConnect(h);
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_TRUE(WriteAll(fd, request.data(), request.size()));
  std::string out;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string PostBody(const std::string& body) {
  return "POST /topk HTTP/1.1\r\nHost: x\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// ---------------------------------------------------------------------------
// Wire format (no sockets)

TEST_F(NetTest, RequestEncodeDecodeRoundTrip) {
  TopKRequest request;
  request.members = {5, 1, 9};
  request.k = 7;
  request.exclude_seen = {2, 4};
  request.priority = RequestClass::kBatch;
  request.deadline_us = 1500;
  const std::vector<uint8_t> frame = EncodeTopKRequest(request);
  Result<TopKRequest> decoded = DecodeTopKRequest(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->members, request.members);
  EXPECT_EQ(decoded->k, request.k);
  EXPECT_EQ(decoded->exclude_seen, request.exclude_seen);
  EXPECT_EQ(decoded->priority, request.priority);
  EXPECT_EQ(decoded->deadline_us, request.deadline_us);
}

TEST_F(NetTest, ResponseEncodeDecodePreservesScoreBits) {
  TopKResult result;
  result.items = {3, 1, 4};
  // Awkward doubles: denormal, negative zero, and a full-precision value
  // must survive the wire bit-for-bit.
  result.scores = {5e-324, -0.0, 0.1234567890123456789};
  Result<WireResponse> decoded = [&] {
    const std::vector<uint8_t> frame = EncodeTopKResponse(result);
    return DecodeTopKResponse(frame.data(), frame.size());
  }();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, WireStatus::kOk);
  EXPECT_EQ(decoded->items, result.items);
  ASSERT_EQ(decoded->scores.size(), result.scores.size());
  for (size_t i = 0; i < result.scores.size(); ++i) {
    EXPECT_EQ(std::memcmp(&decoded->scores[i], &result.scores[i],
                          sizeof(double)),
              0)
        << "score bits changed at " << i;
  }

  const std::vector<uint8_t> err =
      EncodeErrorResponse(WireStatus::kOverloaded, "queue full");
  Result<WireResponse> err_decoded = DecodeTopKResponse(err.data(), err.size());
  ASSERT_TRUE(err_decoded.ok());
  EXPECT_EQ(err_decoded->status, WireStatus::kOverloaded);
  EXPECT_EQ(err_decoded->message, "queue full");
}

TEST_F(NetTest, DecoderRejectsBadFrames) {
  TopKRequest request;
  request.members = {1, 2};
  const std::vector<uint8_t> good = EncodeTopKRequest(request);
  ASSERT_TRUE(DecodeTopKRequest(good.data(), good.size()).ok());

  // Truncations at every depth.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(DecodeTopKRequest(good.data(), len).ok()) << "len " << len;
  }
  // Trailing garbage.
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(DecodeTopKRequest(padded.data(), padded.size()).ok());
  // Wrong version / non-zero flags / bogus priority.
  std::vector<uint8_t> bad = good;
  bad[0] = kWireVersion + 1;
  EXPECT_FALSE(DecodeTopKRequest(bad.data(), bad.size()).ok());
  bad = good;
  bad[2] = 1;
  EXPECT_FALSE(DecodeTopKRequest(bad.data(), bad.size()).ok());
  bad = good;
  bad[1] = 9;
  EXPECT_FALSE(DecodeTopKRequest(bad.data(), bad.size()).ok());
  // A member count that claims more than the payload carries.
  bad = good;
  bad[12] = 200;
  EXPECT_FALSE(DecodeTopKRequest(bad.data(), bad.size()).ok());
}

// ---------------------------------------------------------------------------
// Binary data plane over real sockets

TEST_F(NetTest, BinaryRoundTripBitIdenticalToEngine) {
  // The wire carries raw IEEE-754 bits, so a client can check the
  // serving bit-identity contract end to end: network scores == the
  // engine's in-process scores, exactly.
  ServingEngine reference(frozen_, {.max_batch = 1, .cache_capacity = 0});
  const Result<TopKResult> want = reference.TopK(Members(0), 6);
  ASSERT_TRUE(want.ok());

  Harness h;
  const int fd = MustConnect(h);
  TopKRequest request;
  request.members = Members(0);
  request.k = 6;
  Result<WireResponse> got = Exchange(fd, request);
  ::close(fd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->status, WireStatus::kOk);
  EXPECT_EQ(got->items, want->items);
  EXPECT_EQ(got->scores, want->scores);  // bitwise
  EXPECT_EQ(h.server.requests_handled(), 1u);
  EXPECT_EQ(h.server.connections_accepted(), 1u);
}

TEST_F(NetTest, PipelinedRequestsAnswerInOrder) {
  Harness h;
  const int fd = MustConnect(h);
  // Three requests back-to-back before reading anything; responses must
  // come back in request order (distinguished by k).
  for (size_t k : {2u, 4u, 6u}) {
    TopKRequest request;
    request.members = Members(0);
    request.k = k;
    ASSERT_TRUE(WriteFrame(fd, EncodeTopKRequest(request)));
  }
  for (size_t k : {2u, 4u, 6u}) {
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(fd, &payload));
    Result<WireResponse> resp =
        DecodeTopKResponse(payload.data(), payload.size());
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->status, WireStatus::kOk);
    EXPECT_EQ(resp->items.size(), k);
  }
  ::close(fd);
}

TEST_F(NetTest, ByteAtATimeFrameIsReassembled) {
  // A slow client dribbling one byte per write must still parse: the
  // server loops on partial reads instead of assuming one recv == one
  // frame.
  Harness h;
  const int fd = MustConnect(h);
  const std::vector<uint8_t> payload = EncodeTopKRequest(
      {.members = Members(1), .k = 3, .exclude_seen = {}});
  std::vector<uint8_t> wire;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  wire.insert(wire.end(), payload.begin(), payload.end());
  for (uint8_t byte : wire) {
    ASSERT_TRUE(WriteAll(fd, &byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::vector<uint8_t> reply;
  ASSERT_TRUE(ReadFrame(fd, &reply));
  Result<WireResponse> resp = DecodeTopKResponse(reply.data(), reply.size());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, WireStatus::kOk);
  EXPECT_EQ(resp->items.size(), 3u);
  ::close(fd);
}

TEST_F(NetTest, MalformedFrameGetsErrorReplyThenClose) {
  Harness h;
  const int fd = MustConnect(h);
  // Valid length prefix, garbage payload (bad version byte).
  std::vector<uint8_t> junk(24, 0xff);
  ASSERT_TRUE(WriteFrame(fd, junk));
  std::vector<uint8_t> reply;
  ASSERT_TRUE(ReadFrame(fd, &reply));
  Result<WireResponse> resp = DecodeTopKResponse(reply.data(), reply.size());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, WireStatus::kMalformed);
  // Framing is suspect after a decode failure: the server closes.
  std::vector<uint8_t> nothing;
  EXPECT_FALSE(ReadFrame(fd, &nothing));
  EXPECT_EQ(h.server.malformed_frames(), 1u);
  ::close(fd);
}

TEST_F(NetTest, OversizedFrameDisconnectsWithoutAllocating) {
  Harness h;
  const int fd = MustConnect(h);
  // Length prefix above the cap: connection drops with no reply at all.
  const uint32_t huge = kMaxFrameBytes + 1;
  uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<uint8_t>(huge >> (8 * i));
  ASSERT_TRUE(WriteAll(fd, prefix, sizeof(prefix)));
  std::vector<uint8_t> nothing;
  EXPECT_FALSE(ReadFrame(fd, &nothing));
  ::close(fd);
}

TEST_F(NetTest, EngineErrorsTravelAsWireErrors) {
  Harness h;
  const int fd = MustConnect(h);
  TopKRequest request;
  request.members = {-1};  // invalid member id
  Result<WireResponse> resp = Exchange(fd, request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(resp->message.empty());
  // The connection survives engine-level (non-framing) errors.
  request.members = Members(0);
  request.k = 2;
  Result<WireResponse> ok = Exchange(fd, request);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, WireStatus::kOk);
  ::close(fd);
}

TEST_F(NetTest, MaxWireKIsClampedAndServerStaysUp) {
  Harness h;
  const int fd = MustConnect(h);
  TopKRequest request;
  request.members = Members(0);
  request.k = UINT32_MAX;  // the u32 field's ceiling: "everything"
  Result<WireResponse> all = Exchange(fd, request);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->status, WireStatus::kOk);
  EXPECT_EQ(all->items.size(), static_cast<size_t>(frozen_->num_items));
  // The same server keeps answering normal requests.
  request.k = 2;
  Result<WireResponse> next = Exchange(fd, request);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->status, WireStatus::kOk);
  EXPECT_EQ(next->items.size(), 2u);
  ::close(fd);
}

TEST_F(NetTest, StopDisconnectsIdleClientsAndIsIdempotent) {
  Harness h;
  const int fd = MustConnect(h);
  // Prove the connection is live first.
  TopKRequest request;
  request.members = Members(0);
  request.k = 2;
  ASSERT_EQ(Exchange(fd, request)->status, WireStatus::kOk);
  h.server.Stop();
  h.server.Stop();  // idempotent
  // The blocked read wakes with EOF instead of hanging.
  std::vector<uint8_t> nothing;
  EXPECT_FALSE(ReadFrame(fd, &nothing));
  ::close(fd);
  EXPECT_FALSE(h.server.running());
}

// ---------------------------------------------------------------------------
// HTTP/1.1 POST fallback

TEST_F(NetTest, HttpPostReturnsJsonMatchingEngine) {
  ServingEngine reference(frozen_, {.max_batch = 1, .cache_capacity = 0});
  const Result<TopKResult> want = reference.TopK(Members(0), 3);
  ASSERT_TRUE(want.ok());

  Harness h;
  std::string members;
  for (UserId u : Members(0)) {
    if (!members.empty()) members += ",";
    members += std::to_string(u);
  }
  const std::string reply =
      HttpExchange(h, PostBody("members=" + members + "&k=3"));
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("application/json"), std::string::npos);
  // Items appear in rank order in the JSON body.
  std::string items = "\"items\":[";
  for (size_t i = 0; i < want->items.size(); ++i) {
    if (i > 0) items += ",";
    items += std::to_string(want->items[i]);
  }
  items += "]";
  EXPECT_NE(reply.find(items), std::string::npos) << reply;
}

TEST_F(NetTest, HttpAcceptsPriorityAndDeadlineFields) {
  Harness h;
  const std::string reply = HttpExchange(
      h, PostBody("members=0&k=2&priority=batch&deadline_us=100000"));
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;
}

TEST_F(NetTest, HttpRejectsBadInput) {
  Harness h;
  // Missing members.
  EXPECT_NE(HttpExchange(h, PostBody("k=3")).find("HTTP/1.1 400"),
            std::string::npos);
  // Unknown field: loud failure, not silent acceptance.
  EXPECT_NE(
      HttpExchange(h, PostBody("members=0&bogus=1")).find("HTTP/1.1 400"),
      std::string::npos);
  // Non-numeric member list.
  EXPECT_NE(
      HttpExchange(h, PostBody("members=a,b")).find("HTTP/1.1 400"),
      std::string::npos);
  // GET is not part of the data plane.
  EXPECT_NE(HttpExchange(h, "GET /topk HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  // Engine-level errors map onto HTTP statuses.
  EXPECT_NE(HttpExchange(h, PostBody("members=-1")).find("HTTP/1.1 400"),
            std::string::npos);
  // Ids outside int32 must not wrap into valid ones (2^32 + 5 is not 5);
  // k and deadline_us must be non-negative decimal numbers.
  for (const char* body :
       {"members=4294967301&k=3", "members=0,2147483648", "members=0&k=abc",
        "members=0&k=-1", "members=0&k=", "members=0&deadline_us=-5",
        "members=0&deadline_us=1x"}) {
    EXPECT_NE(HttpExchange(h, PostBody(body)).find("HTTP/1.1 400"),
              std::string::npos)
        << body;
  }
}

TEST_F(NetTest, HttpReaderAcceptsLfHeadsAndEnforcesLimits) {
  Harness h;
  // A head may end in a bare LFLF, and Content-Length is matched
  // case-insensitively.
  const std::string body = "members=0&k=2";
  std::string reply = HttpExchange(
      h, "POST /topk HTTP/1.1\ncontent-LENGTH: " +
             std::to_string(body.size()) + "\n\n" + body);
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"items\":["), std::string::npos) << reply;
  // 16 KiB without the blank line: the head cannot end within the limit.
  // Exactly 16 KiB is sent, so the server consumes all of it and closes
  // cleanly after its reply.
  const std::string start = "POST /topk HTTP/1.1\r\nX-Pad: ";
  EXPECT_NE(HttpExchange(h, start + std::string(16 * 1024 - start.size(), 'a'))
                .find("HTTP/1.1 400"),
            std::string::npos);
  // A body above the frame cap is refused before it is read.
  EXPECT_NE(HttpExchange(h, "POST /topk HTTP/1.1\r\nContent-Length: " +
                                std::to_string(kMaxFrameBytes + 1) +
                                "\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(NetTest, StatusJsonReportsFrontEndState) {
  Harness h;
  const int fd = MustConnect(h);
  TopKRequest request;
  request.members = Members(0);
  request.k = 2;
  ASSERT_EQ(Exchange(fd, request)->status, WireStatus::kOk);
  ::close(fd);
  const std::string json = h.server.StatusJson();
  EXPECT_NE(json.find("\"running\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"connections_accepted\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Descriptor exhaustion: an accept that fails with EMFILE is retried after
// a back-off; the server keeps accepting once descriptors free up.

uint64_t CounterValue(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::Global().FindCounter(name);
  return c != nullptr ? c->Value() : 0;
}

/// Highest descriptor this process has open.
int HighestOpenFd() {
  int highest = 2;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::atoi(e.path().filename().c_str()));
  }
  return highest;
}

/// Holds descriptors and a lowered RLIMIT_NOFILE; gives both back on
/// destruction, so a failed assertion cannot leak the limit into the
/// rest of the suite.
struct FdExhaustion {
  explicit FdExhaustion(const rlimit& limit) : saved(limit) {}
  ~FdExhaustion() { Release(); }
  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;
  void Release() {
    for (int fd : held) ::close(fd);
    held.clear();
    ::setrlimit(RLIMIT_NOFILE, &saved);
  }
  rlimit saved{};
  std::vector<int> held;
};

TEST_F(NetTest, AcceptLoopSurvivesDescriptorExhaustion) {
  Harness h;
  const uint64_t errors_before = CounterValue("serve.net.accept_errors");
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  FdExhaustion exhaust(saved);

  // Lower the soft limit to just above the open descriptors and fill
  // every free slot below it, then free exactly one: the client socket
  // takes it, so the server's accept of that connection hits EMFILE.
  rlimit low = exhaust.saved;
  low.rlim_cur = static_cast<rlim_t>(HighestOpenFd() + 4);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY)) {
    exhaust.held.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE);
  ASSERT_FALSE(exhaust.held.empty());
  ::close(exhaust.held.back());
  exhaust.held.pop_back();
  Result<int> client = ConnectTcp("127.0.0.1", h.server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  exhaust.held.push_back(*client);

  // Let the accept thread run into the limit. The counter only moves in
  // obs-active builds; elsewhere this waits out the full second.
  for (int i = 0; i < 100 && CounterValue("serve.net.accept_errors") ==
                                 errors_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
#if KGAG_OBS_ACTIVE
  EXPECT_GT(CounterValue("serve.net.accept_errors"), errors_before);
#endif
  exhaust.Release();

  // A fresh connection is accepted and answered. The receive timeout
  // turns a dead accept loop into a failure instead of a hang.
  const int fd = MustConnect(h);
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  TopKRequest request;
  request.members = Members(0);
  request.k = 3;
  Result<WireResponse> reply = Exchange(fd, request);
  ::close(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, WireStatus::kOk);
}

}  // namespace
}  // namespace serve
}  // namespace kgag
