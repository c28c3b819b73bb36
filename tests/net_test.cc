// Wire protocol round trips, channel fault injection, and the crashable
// server process model.

#include "net/channel.h"
#include "net/db_server.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/socket_transport.h"

#include "common/rng.h"
#include "obs/metrics.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>
#include <unistd.h>

#include "gtest/gtest.h"

namespace phoenix::net {
namespace {

TEST(Protocol, RequestRoundTripAllFields) {
  Request req;
  req.kind = Request::Kind::kOpenCursor;
  req.request_id = 99;
  req.session_id = 42;
  req.user = "alice";
  req.name = "opt";
  req.value = "val";
  req.sql = "SELECT * FROM T";
  req.cursor_type = 2;
  req.cursor_id = 7;
  req.n = 64;
  auto back = Request::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, req.kind);
  EXPECT_EQ(back->request_id, 99u);
  EXPECT_EQ(back->session_id, 42u);
  EXPECT_EQ(back->user, "alice");
  EXPECT_EQ(back->sql, "SELECT * FROM T");
  EXPECT_EQ(back->cursor_type, 2);
  EXPECT_EQ(back->cursor_id, 7u);
  EXPECT_EQ(back->n, 64u);
}

TEST(Protocol, ResponseRoundTripWithResults) {
  Response resp;
  resp.kind = Response::Kind::kResults;
  resp.request_id = 99;
  eng::StatementResult r1;
  r1.has_rows = true;
  r1.schema.AddColumn(Column{"A", DataType::kInt64, false});
  r1.rows.push_back(Row{Value::Int64(1)});
  r1.rows.push_back(Row{Value::Int64(2)});
  resp.results.push_back(std::move(r1));
  resp.results.push_back(eng::StatementResult::Affected(5));
  auto back = Response::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 99u);
  ASSERT_EQ(back->results.size(), 2u);
  EXPECT_TRUE(back->results[0].has_rows);
  EXPECT_EQ(back->results[0].rows.size(), 2u);
  EXPECT_EQ(back->results[1].affected, 5);
}

TEST(Protocol, ErrorResponseCarriesStatus) {
  Response resp = Response::MakeError(Status::Timeout("slow"));
  auto back = Response::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  Status st = back->ToStatus();
  EXPECT_TRUE(st.IsTimeout());
  EXPECT_EQ(st.message(), "slow");
}

TEST(Protocol, DecodeRejectsGarbage) {
  EXPECT_FALSE(Request::Decode("").ok());
  EXPECT_FALSE(Response::Decode("xx").ok());
  std::string bad(1, '\xFF');
  EXPECT_FALSE(Request::Decode(bad + std::string(40, 0)).ok());
}

struct ServerFixture {
  storage::SimDisk disk;
  DbServer server{&disk};
  Network network;
  ServerFixture() {
    EXPECT_TRUE(server.Start().ok());
    network.RegisterServer("db", &server);
  }
  std::unique_ptr<Channel> Connect() {
    auto c = network.Connect("db");
    EXPECT_TRUE(c.ok());
    return c.take();
  }
  Response Call(Channel* ch, const Request& req) {
    auto r = ch->RoundTrip(req);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.take() : Response{};
  }
};

Request ConnectReq(const std::string& user = "u") {
  Request r;
  r.kind = Request::Kind::kConnect;
  r.user = user;
  return r;
}

Request ExecReq(uint64_t sid, const std::string& sql) {
  Request r;
  r.kind = Request::Kind::kExecScript;
  r.session_id = sid;
  r.sql = sql;
  return r;
}

TEST(Channel, ConnectExecuteDisconnect) {
  ServerFixture fx;
  auto ch = fx.Connect();
  Response conn = fx.Call(ch.get(), ConnectReq());
  ASSERT_EQ(conn.kind, Response::Kind::kConnected);
  uint64_t sid = conn.session_id;
  Response made =
      fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  EXPECT_EQ(made.kind, Response::Kind::kResults);
  Response sel = fx.Call(ch.get(), ExecReq(sid, "SELECT 1 + 1 AS X"));
  ASSERT_EQ(sel.results.size(), 1u);
  EXPECT_EQ(sel.results[0].rows[0][0].AsInt64(), 2);
  Request disc;
  disc.kind = Request::Kind::kDisconnect;
  disc.session_id = sid;
  EXPECT_EQ(fx.Call(ch.get(), disc).kind, Response::Kind::kOk);
}

TEST(Channel, ServerErrorsTravelAsErrorResponses) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  auto r = ch->RoundTrip(ExecReq(sid, "SELECT * FROM MISSING"));
  ASSERT_TRUE(r.ok());  // transport succeeded
  EXPECT_EQ(r->kind, Response::Kind::kError);
  EXPECT_EQ(r->ToStatus().code(), StatusCode::kSqlError);
}

TEST(Channel, UnknownDsnRejected) {
  ServerFixture fx;
  EXPECT_TRUE(fx.network.Connect("nope").status().IsNotFound());
}

TEST(Channel, CrashedServerYieldsCommError) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.server.Crash();
  auto r = ch->RoundTrip(ExecReq(sid, "SELECT 1"));
  EXPECT_TRUE(r.status().IsCommError());
  // Ping also fails while down.
  Request ping;
  ping.kind = Request::Kind::kPing;
  EXPECT_TRUE(ch->RoundTrip(ping).status().IsCommError());
}

TEST(Channel, StaleSessionAfterRestartIsNotFound) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.server.Crash();
  ASSERT_TRUE(fx.server.Restart().ok());
  auto r = ch->RoundTrip(ExecReq(sid, "SELECT 1"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToStatus().code(), StatusCode::kNotFound);
  EXPECT_NE(r->ToStatus().message().find("session"), std::string::npos);
}

TEST(Channel, SessionIdsNeverReusedAcrossRestarts) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid1 = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.server.Crash();
  ASSERT_TRUE(fx.server.Restart().ok());
  auto ch2 = fx.Connect();
  uint64_t sid2 = fx.Call(ch2.get(), ConnectReq()).session_id;
  EXPECT_GT(sid2, sid1);
}

TEST(Channel, EpochCountsRestarts) {
  ServerFixture fx;
  auto ch = fx.Connect();
  Request ping;
  ping.kind = Request::Kind::kPing;
  EXPECT_EQ(fx.Call(ch.get(), ping).server_epoch, 1u);
  fx.server.Crash();
  ASSERT_TRUE(fx.server.Restart().ok());
  EXPECT_EQ(fx.Call(ch.get(), ping).server_epoch, 2u);
}

TEST(Channel, InjectDropRequestsFailsBeforeServer) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  uint64_t handled = fx.server.stats().requests_handled;
  ch->InjectDropRequests(2);
  EXPECT_TRUE(ch->RoundTrip(ExecReq(sid, "SELECT 1")).status().IsCommError());
  EXPECT_TRUE(ch->RoundTrip(ExecReq(sid, "SELECT 1")).status().IsCommError());
  EXPECT_EQ(fx.server.stats().requests_handled, handled);  // never reached it
  EXPECT_TRUE(ch->RoundTrip(ExecReq(sid, "SELECT 1")).ok());
}

TEST(Channel, InjectLoseRepliesExecutesButTimesOut) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  ch->InjectLoseReplies(1);
  auto r = ch->RoundTrip(ExecReq(sid, "INSERT INTO T VALUES (1)"));
  EXPECT_TRUE(r.status().IsTimeout());
  // The lost-reply request DID execute — the classic ambiguity Phoenix's
  // status table resolves.
  Response check = fx.Call(ch.get(), ExecReq(sid, "SELECT COUNT(*) AS N FROM T"));
  EXPECT_EQ(check.results[0].rows[0][0].AsInt64(), 1);
}

TEST(Channel, ClientDisconnectClosesChannel) {
  ServerFixture fx;
  auto ch = fx.Connect();
  ch->Disconnect();
  EXPECT_TRUE(ch->RoundTrip(ConnectReq()).status().IsCommError());
}

TEST(Channel, StatsCountTraffic) {
  ServerFixture fx;
  auto ch = fx.Connect();
  fx.Call(ch.get(), ConnectReq());
  // One snapshot struct covers all the traffic counters.
  ChannelStats stats = ch->stats();
  EXPECT_EQ(stats.round_trips, 1u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_EQ(stats.faults_injected, 0u);
  EXPECT_GE(fx.server.stats().requests_handled, 1u);
}

TEST(Channel, StatsCountInjectedFaults) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  ch->InjectDropRequests(1);
  EXPECT_TRUE(ch->RoundTrip(ExecReq(sid, "SELECT 1")).status().IsCommError());
  ch->InjectLoseReplies(1);
  EXPECT_TRUE(ch->RoundTrip(ExecReq(sid, "SELECT 1")).status().IsTimeout());
  EXPECT_EQ(ch->stats().faults_injected, 2u);
}

TEST(Channel, RequestIdAssignedAndEchoed) {
  ServerFixture fx;
  auto ch = fx.Connect();
  // Channel assigns monotonically increasing ids when the caller leaves 0,
  // and the server echoes them back — a retry resent with the same id is
  // correlatable against the original in the trace stream.
  Request ping;
  ping.kind = Request::Kind::kPing;
  auto r1 = ch->RoundTrip(ping);
  auto r2 = ch->RoundTrip(ping);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->request_id, 1u);
  EXPECT_EQ(r2->request_id, 2u);
  Request tagged;
  tagged.kind = Request::Kind::kPing;
  tagged.request_id = 777;
  auto r3 = ch->RoundTrip(tagged);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->request_id, 777u);
}

TEST(Channel, RequestIdEchoedOnServerDownError) {
  ServerFixture fx;
  auto ch = fx.Connect();
  fx.server.Crash();
  ASSERT_TRUE(fx.server.Restart().ok());
  // Even an error Response carries the echo (the "server is down" reply is
  // produced before dispatch; stale-session errors go through Dispatch).
  Request req = ExecReq(12345, "SELECT 1");
  req.request_id = 55;
  auto r = ch->RoundTrip(req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, Response::Kind::kError);
  EXPECT_EQ(r->request_id, 55u);
}

TEST(Server, RestartWhileAliveRejected) {
  ServerFixture fx;
  EXPECT_FALSE(fx.server.Restart().ok());
}

TEST(Server, DurableDataVisibleAfterRestart) {
  ServerFixture fx;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  fx.Call(ch.get(), ExecReq(sid, "INSERT INTO T VALUES (7)"));
  fx.server.Crash();
  ASSERT_TRUE(fx.server.Restart().ok());
  auto ch2 = fx.Connect();
  uint64_t sid2 = fx.Call(ch2.get(), ConnectReq()).session_id;
  Response r = fx.Call(ch2.get(), ExecReq(sid2, "SELECT A FROM T"));
  ASSERT_EQ(r.results[0].rows.size(), 1u);
  EXPECT_EQ(r.results[0].rows[0][0].AsInt64(), 7);
}

// ---------------------------------------------------------------------------
// PHXF stream framing: partial reads, coalesced writes, garbage resync
// ---------------------------------------------------------------------------

TEST(Framing, SingleFrameRoundTrip) {
  std::string wire = EncodeFrame(FrameType::kRequest, 42, "hello");
  EXPECT_EQ(wire.size(), kFrameHeaderSize + 5);
  FrameAssembler a;
  a.Feed(wire);
  Frame f;
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.type, FrameType::kRequest);
  EXPECT_EQ(f.corr_id, 42u);
  EXPECT_EQ(f.payload, "hello");
  EXPECT_EQ(a.Poll(&f), FrameAssembler::Next::kNeedMore);
  EXPECT_EQ(a.resync_bytes_skipped(), 0u);
}

TEST(Framing, EmptyPayloadAndLargeCorrId) {
  std::string wire = EncodeFrame(FrameType::kResponse, 0xDEADBEEFCAFEF00Dull, "");
  FrameAssembler a;
  a.Feed(wire);
  Frame f;
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.corr_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(f.payload.empty());
}

TEST(Framing, PartialHeaderByteAtATime) {
  // One send arriving as N one-byte reads: no frame until the last byte.
  std::string wire = EncodeFrame(FrameType::kRequest, 7, "payload");
  FrameAssembler a;
  Frame f;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    a.Feed(wire.data() + i, 1);
    ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kNeedMore) << "at byte " << i;
  }
  a.Feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.type, FrameType::kRequest);
  EXPECT_EQ(f.payload, "payload");
  EXPECT_EQ(a.resync_bytes_skipped(), 0u);
}

TEST(Framing, CoalescedFramesDrainInOrder) {
  // Three sends arriving as one read — including a real Request encoding,
  // whose payload bytes must come through untouched.
  Request ping;
  ping.kind = Request::Kind::kPing;
  ping.request_id = 2;
  std::string wire = EncodeFrame(FrameType::kRequest, 1, "alpha");
  wire += EncodeFrame(FrameType::kRequest, 2, ping.Encode());
  wire += EncodeFrame(FrameType::kResponse, 3, "gamma");
  FrameAssembler a;
  a.Feed(wire);
  Frame f;
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.corr_id, 1u);
  EXPECT_EQ(f.payload, "alpha");
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.type, FrameType::kRequest);
  auto decoded = Request::Decode(f.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, Request::Kind::kPing);
  EXPECT_EQ(decoded->request_id, 2u);
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.type, FrameType::kResponse);
  EXPECT_EQ(f.corr_id, 3u);
  EXPECT_EQ(a.Poll(&f), FrameAssembler::Next::kNeedMore);
}

TEST(Framing, SplitMidPayloadAcrossFeeds) {
  std::string wire = EncodeFrame(FrameType::kResponse, 9, std::string(300, 'x'));
  FrameAssembler a;
  Frame f;
  a.Feed(wire.substr(0, kFrameHeaderSize + 100));
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kNeedMore);
  a.Feed(wire.substr(kFrameHeaderSize + 100));
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.payload.size(), 300u);
}

TEST(Framing, OversizedFrameIsFatal) {
  // A valid magic + type demanding an absurd payload is a poisoned stream,
  // not a resync opportunity.
  FrameAssembler a(/*max_payload=*/64);
  a.Feed(EncodeFrame(FrameType::kRequest, 5, std::string(65, 'x')));
  Frame f;
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kError);
  EXPECT_NE(a.error().find("oversized"), std::string::npos);
  // The assembler stays dead even if clean bytes follow.
  a.Feed(EncodeFrame(FrameType::kRequest, 6, "ok"));
  EXPECT_EQ(a.Poll(&f), FrameAssembler::Next::kError);
}

TEST(Framing, GarbagePrefixResync) {
  // The tail of a peer's partial pre-crash write, then a clean frame: the
  // reader slides past the garbage and recovers the stream.
  std::string garbage = "\x01\x02partial-frame-tail\xff\xfe";
  std::string wire = garbage + EncodeFrame(FrameType::kResponse, 11, "clean");
  FrameAssembler a;
  a.Feed(wire);
  Frame f;
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.corr_id, 11u);
  EXPECT_EQ(f.payload, "clean");
  EXPECT_EQ(a.resync_bytes_skipped(), garbage.size());
}

TEST(Framing, GarbageBetweenFramesResync) {
  std::string wire = EncodeFrame(FrameType::kRequest, 1, "a");
  wire += "JUNKJUNK";
  wire += EncodeFrame(FrameType::kRequest, 2, "b");
  FrameAssembler a;
  a.Feed(wire);
  Frame f;
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.payload, "a");
  ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame);
  EXPECT_EQ(f.payload, "b");
  EXPECT_EQ(a.resync_bytes_skipped(), 8u);
}

TEST(Framing, BadTypeByteIsGarbageNotFatal) {
  // Correct magic but invalid type: cannot be a frame start; resync, since
  // the magic may be payload bytes that merely look frame-ish. Types 3 and 4
  // are the retired batch request/response frames: a stale peer's batch
  // is garbage like any other unknown type.
  for (char type : {char{99}, char{3}, char{4}}) {
    std::string bogus = EncodeFrame(FrameType::kRequest, 3, "zzz");
    bogus[4] = type;  // corrupt the type byte
    std::string wire = bogus + EncodeFrame(FrameType::kResponse, 4, "real");
    FrameAssembler a;
    a.Feed(wire);
    Frame f;
    ASSERT_EQ(a.Poll(&f), FrameAssembler::Next::kFrame) << int{type};
    EXPECT_EQ(f.corr_id, 4u);
    EXPECT_EQ(f.payload, "real");
    EXPECT_GT(a.resync_bytes_skipped(), 0u);
  }
}

// ---------------------------------------------------------------------------
// SocketChannel <-> SocketServer over a real Unix-domain stream
// ---------------------------------------------------------------------------

std::atomic<int> g_sock_seq{0};

/// In-process DbServer behind a real Unix socket. `ok == false` means the
/// sandbox denies AF_UNIX sockets entirely; tests skip.
struct SocketFixture {
  storage::SimDisk disk;
  DbServer server;
  SocketServer sock{&server};
  Network network;
  std::string path;
  bool ok = false;
  explicit SocketFixture(ServerOptions opts = {})
      : server(&disk, std::move(opts)) {
    path = "/tmp/phx_net_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(g_sock_seq.fetch_add(1)) + ".sock";
    EXPECT_TRUE(server.Start().ok());
    if (!sock.Start("unix:" + path).ok()) return;
    network.RegisterRemote("db", sock.endpoint());
    ok = true;
  }
  ~SocketFixture() {
    sock.Shutdown();
    ::unlink(path.c_str());
  }
  std::unique_ptr<Channel> Connect() {
    auto c = network.Connect("db");
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.ok() ? c.take() : nullptr;
  }
  Response Call(Channel* ch, const Request& req) {
    auto r = ch->RoundTrip(req);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.take() : Response{};
  }
};

#define SKIP_IF_NO_SOCKETS(fx) \
  if (!(fx).ok) GTEST_SKIP() << "unix-domain sockets unavailable here"

TEST(SocketTransport, ConnectExecuteOverUnixSocket) {
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  auto ch = fx.Connect();
  Response conn = fx.Call(ch.get(), ConnectReq());
  ASSERT_EQ(conn.kind, Response::Kind::kConnected);
  uint64_t sid = conn.session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE T (A INTEGER)"));
  fx.Call(ch.get(), ExecReq(sid, "INSERT INTO T VALUES (5)"));
  Response sel = fx.Call(ch.get(), ExecReq(sid, "SELECT A FROM T"));
  ASSERT_EQ(sel.results.size(), 1u);
  ASSERT_EQ(sel.results[0].rows.size(), 1u);
  EXPECT_EQ(sel.results[0].rows[0][0].AsInt64(), 5);
  EXPECT_GT(ch->stats().bytes_sent, 0u);
  EXPECT_GT(ch->stats().bytes_received, 0u);
}

TEST(SocketTransport, ConcurrentRoundTripsDemuxByCorrelationId) {
  // Threads sharing one channel take turns on the wire; each still gets the
  // reply to its own request.
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE C (A INTEGER)"));
  constexpr int kThreads = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Request req = ExecReq(sid, "INSERT INTO C VALUES (" + std::to_string(i) +
                                     "); SELECT A FROM C WHERE A = " +
                                     std::to_string(i));
      req.request_id = 1000 + i;
      auto r = ch->RoundTrip(req);
      if (!r.ok() || r->kind != Response::Kind::kResults ||
          r->request_id != req.request_id || r->results.size() != 2 ||
          r->results[1].rows.size() != 1 ||
          r->results[1].rows[0][0].AsInt64() != i) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  Response sel = fx.Call(ch.get(), ExecReq(sid, "SELECT COUNT(*) AS C FROM C"));
  EXPECT_EQ(sel.results[0].rows[0][0].AsInt64(), kThreads);
}

TEST(SocketTransport, LateReplyIsSkippedByTheNextRoundTrip) {
  // A ping that outlives its deadline times out; its reply arrives later and
  // the next round trip on the channel skips it and returns its own reply.
  ServerOptions opts;
  opts.pre_dispatch_hook = [](const Request& req) {
    if (req.kind == Request::Kind::kPing) {
      std::this_thread::sleep_for(std::chrono::milliseconds(750));
    }
  };
  SocketFixture fx(std::move(opts));
  SKIP_IF_NO_SOCKETS(fx);
  fx.network.config()->rpc_timeout_ms = 250;
  auto ch = fx.Connect();
  auto* skipped =
      obs::MetricsRegistry::Default()->GetCounter("net.late_replies_skipped");
  uint64_t skipped_before = skipped->Value();
  Request ping;
  ping.kind = Request::Kind::kPing;
  auto late = ch->RoundTrip(ping);
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsTimeout()) << late.status().ToString();
  // Let the late pong land in the socket buffer before the next request.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  Response conn = fx.Call(ch.get(), ConnectReq());
  EXPECT_EQ(conn.kind, Response::Kind::kConnected);
  EXPECT_EQ(skipped->Value() - skipped_before, 1u);
}

size_t EntryCount(const char* dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

size_t ThreadCount() { return EntryCount("/proc/self/task"); }

TEST(SocketTransport, OneServerThreadPerConnectionAndNoneOnTheClient) {
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  const size_t threads_before = ThreadCount();
  const size_t fds_before = EntryCount("/proc/self/fd");
  Request ping;
  ping.kind = Request::Kind::kPing;
  constexpr size_t kChannels = 8;
  std::vector<std::unique_ptr<Channel>> channels;
  for (size_t i = 0; i < kChannels; ++i) {
    channels.push_back(fx.Connect());
    // The reply proves the server's connection thread is up.
    EXPECT_EQ(fx.Call(channels.back().get(), ping).kind,
              Response::Kind::kPong);
  }
  EXPECT_EQ(ThreadCount() - threads_before, kChannels);
  channels.clear();
  // Each hang-up ends its connection thread.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ThreadCount() > threads_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ThreadCount(), threads_before);
  // The next accept releases the finished connections' fds: only the new
  // connection's two ends remain.
  auto last = fx.Connect();
  EXPECT_EQ(fx.Call(last.get(), ping).kind, Response::Kind::kPong);
  EXPECT_EQ(EntryCount("/proc/self/fd") - fds_before, 2u);
}

TEST(SocketTransport, DropRequestFailsBeforeTheWire) {
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE D (A INTEGER)"));
  ch->InjectDropRequests(1);
  auto r = ch->RoundTrip(ExecReq(sid, "INSERT INTO D VALUES (1)"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCommError());
  // The channel survives a dropped request, and the insert never happened.
  Response sel = fx.Call(ch.get(), ExecReq(sid, "SELECT COUNT(*) AS C FROM D"));
  EXPECT_EQ(sel.results[0].rows[0][0].AsInt64(), 0);
}

TEST(SocketTransport, LoseReplyExecutesButTimesOut) {
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  fx.network.config()->rpc_timeout_ms = 500;
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE L (A INTEGER)"));
  ch->InjectLoseReplies(1);
  auto r = ch->RoundTrip(ExecReq(sid, "INSERT INTO L VALUES (1)"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  // "Reply lost" — the request DID execute server-side.
  Response sel = fx.Call(ch.get(), ExecReq(sid, "SELECT COUNT(*) AS C FROM L"));
  EXPECT_EQ(sel.results[0].rows[0][0].AsInt64(), 1);
}

TEST(SocketTransport, ServerDownRejectionIsCommErrorEvenUnderLoseReply) {
  // Satellite regression: "reply lost" must not shadow "server down". With a
  // lose-reply token claimed, a crashed server's unexecuted-intake rejection
  // still surfaces as kCommError (the request never ran; claiming kTimeout
  // would make Phoenix probe the status table for a commit that was never
  // attempted).
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  fx.network.config()->rpc_timeout_ms = 30000;  // a timeout would hang: fail
  auto ch = fx.Connect();
  uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
  fx.server.Crash();
  ch->InjectLoseReplies(1);
  auto r = ch->RoundTrip(ExecReq(sid, "INSERT INTO X VALUES (1)"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCommError()) << r.status().ToString();
}

TEST(SocketTransport, CrashDrainsAcceptedRequests) {
  // The socket twin of ConcurrentServer.CrashDrainsAcceptedRequests: here
  // the server's connection threads execute the requests a crash drains.
  ServerOptions opts;
  opts.worker_threads = 2;
  SocketFixture fx(std::move(opts));
  SKIP_IF_NO_SOCKETS(fx);
  {
    auto ch = fx.Connect();
    uint64_t sid = fx.Call(ch.get(), ConnectReq()).session_id;
    fx.Call(ch.get(), ExecReq(sid, "CREATE TABLE D (K INTEGER PRIMARY KEY)"));
  }
  // Clients on their own connections insert until the crash stops them.
  // Every round trip must resolve — with the executed result (it beat the
  // crash) or "server is down" — and none may hang or be dropped.
  constexpr int kThreads = 4;
  std::atomic<int> acknowledged{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ch = fx.network.Connect("db");
      if (!ch.ok()) return;
      auto conn = ch.value()->RoundTrip(ConnectReq("d" + std::to_string(t)));
      if (!conn.ok() || !conn->ToStatus().ok()) return;
      for (int i = 0;; ++i) {
        auto r = ch.value()->RoundTrip(ExecReq(
            conn->session_id,
            "INSERT INTO D VALUES (" + std::to_string(t * 100000 + i) + ")"));
        if (!r.ok() || !r->ToStatus().ok()) return;
        acknowledged.fetch_add(1);
      }
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (acknowledged.load() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  fx.server.Crash();
  for (auto& t : threads) t.join();
  EXPECT_GE(acknowledged.load(), 20);
  ASSERT_TRUE(fx.server.Restart().ok());

  // The durable row count equals the number of acknowledged inserts.
  eng::Database* db = fx.server.database();
  auto vsid = db->CreateSession("verify");
  ASSERT_TRUE(vsid.ok());
  auto res = db->ExecuteScript(*vsid, "SELECT COUNT(*) AS N FROM D");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()[0].rows[0][0].AsInt64(), acknowledged.load());
}

TEST(SocketTransport, ServerShutdownFailsRoundTripsCommError) {
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  auto ch = fx.Connect();
  fx.Call(ch.get(), ConnectReq());
  fx.sock.Shutdown();
  // EOF → kCommError (connection dead), never kTimeout (reply lost).
  auto r = ch->RoundTrip(ConnectReq());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCommError()) << r.status().ToString();
}

TEST(SocketTransport, StaleSocketFileReplacedOnRestart) {
  // A SIGKILLed phoenixd leaves its socket file behind; the reborn listener
  // must bind over it rather than fail with EADDRINUSE.
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  fx.sock.Shutdown();
  storage::SimDisk disk2;
  DbServer server2(&disk2);
  ASSERT_TRUE(server2.Start().ok());
  SocketServer sock2(&server2);
  // Recreate a stale file at the same path (Shutdown unlinked the real one).
  { std::FILE* stale = std::fopen(fx.path.c_str(), "w"); std::fclose(stale); }
  ASSERT_TRUE(sock2.Start("unix:" + fx.path).ok());
  Network net2;
  net2.RegisterRemote("db2", sock2.endpoint());
  auto ch = net2.Connect("db2");
  ASSERT_TRUE(ch.ok());
  auto r = ch.value()->RoundTrip(ConnectReq());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().kind, Response::Kind::kConnected);
  sock2.Shutdown();
}

TEST(SocketTransport, AdminRequestRejectedWithoutHook) {
  SocketFixture fx;
  SKIP_IF_NO_SOCKETS(fx);
  auto ch = fx.Connect();
  Request req;
  req.kind = Request::Kind::kAdmin;
  req.name = "phx.rendezvous";
  req.value = "wal_sync:1";
  auto r = ch->RoundTrip(req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, Response::Kind::kError);
}

}  // namespace
}  // namespace phoenix::net
