// StreamRouter: one accept thread must route v2 named connections to
// their slot, empty-name v2 and CSV connections to the shared anonymous
// FIFO (a retired v1 prologue is CSV junk, never binary), refuse
// unknown and ended names with a fatal reply, shed under the overload
// predicate, and reject anonymous overflow — always by closing the
// socket, never by wedging a slot or crashing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hierarchy/builder.h"
#include "net/tcp.h"
#include "stream/socket_source.h"
#include "stream/stream_router.h"

namespace tiresias {
namespace {

constexpr int kTestTimeoutMs = 10'000;

std::shared_ptr<net::TcpListener> loopbackListener() {
  auto listener = std::make_shared<net::TcpListener>();
  EXPECT_TRUE(listener->listen(0, /*loopbackOnly=*/true))
      << listener->lastError();
  return listener;
}

std::vector<std::string> allPaths(const Hierarchy& h) {
  std::vector<std::string> paths;
  paths.reserve(h.size());
  for (std::size_t n = 0; n < h.size(); ++n) {
    paths.push_back(h.path(static_cast<NodeId>(n)));
  }
  return paths;
}

std::vector<Record> sampleRecords(const Hierarchy& h, std::size_t count) {
  std::vector<Record> records;
  const auto& leaves = h.leaves();
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(
        Record{leaves[i % leaves.size()], static_cast<Timestamp>(100 + i)});
  }
  return records;
}

std::vector<Record> drainPerRecord(RecordSource& src) {
  std::vector<Record> out;
  while (auto r = src.next()) out.push_back(*r);
  return out;
}

/// Write `wire`, half-close, and read until the server closes, so any
/// resume reply is consumed before the socket goes away.
void sendAndFinish(std::uint16_t port, const std::vector<std::uint8_t>& wire) {
  net::TcpConn conn = net::connectLoopback(port, kTestTimeoutMs);
  ASSERT_TRUE(conn.valid());
  EXPECT_TRUE(conn.writeAll(wire.data(), wire.size(), kTestTimeoutMs));
  conn.shutdownWrite();
  char sink[64];
  std::size_t got = 0;
  while (conn.readSome(sink, sizeof(sink), got, kTestTimeoutMs) ==
         net::IoStatus::kOk) {
  }
}

/// Routing is asynchronous: poll a counter until it reaches `want`.
template <typename Fn>
bool waitFor(Fn&& fn, int timeoutMs = kTestTimeoutMs) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (!fn()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(StreamRouter, EmptyNameV2LandsOnAnAnonymousSlot) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 64);
  const auto hello = encodeSocketHandshakeV2(allPaths(h), "", 0);

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  router->addNamedSlot("s0");  // must NOT receive the anonymous connection
  const std::size_t slot = router->addAnonymousSlot();
  router->start();

  std::thread client([port = listener->port(), hello, &want] {
    net::TcpConn conn = net::connectLoopback(port, kTestTimeoutMs);
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.writeAll(hello.data(), hello.size(), kTestTimeoutMs));
    SocketResumeReply reply;
    ASSERT_TRUE(readSocketResumeReply(conn, kTestTimeoutMs, reply));
    EXPECT_EQ(reply.status, kSocketResumeOk);
    EXPECT_EQ(reply.committedTime, kSocketNoCommit);
    std::vector<std::uint8_t> frames;
    appendSocketFrame(frames, want.data(), want.size());
    appendSocketEndOfStream(frames);
    EXPECT_TRUE(conn.writeAll(frames.data(), frames.size(), kTestTimeoutMs));
  });
  SocketSource src(router, slot, h);
  EXPECT_EQ(drainPerRecord(src), want);
  EXPECT_EQ(src.protocolErrors(), 0u);
  EXPECT_EQ(src.resumes(), 0u);
  client.join();
  EXPECT_EQ(router->accepted(), 1u);
  EXPECT_EQ(router->rejected(), 0u);
  router->stop();
}

TEST(StreamRouter, V1PrologueIsNotBinary) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto records = sampleRecords(h, 16);
  // The retired v1 handshake: magic | version 1 | tableBytes | table. An
  // empty-name v2 handshake is magic | 2 | nameLen 0 | token | tableBytes
  // | table: drop nameLen and token, patch the version.
  std::vector<std::uint8_t> wire = encodeSocketHandshakeV2(allPaths(h), "", 0);
  wire.erase(wire.begin() + 8, wire.begin() + 20);
  wire[4] = 1;
  appendSocketFrame(wire, records.data(), records.size());
  appendSocketEndOfStream(wire);

  for (const auto format : {SocketSourceOptions::Format::kAuto,
                            SocketSourceOptions::Format::kBinary}) {
    const bool pinned = format == SocketSourceOptions::Format::kBinary;
    auto listener = loopbackListener();
    StreamRouter::Options ropt;
    ropt.format = format;
    auto router = std::make_shared<StreamRouter>(listener, ropt);
    const std::size_t slot = router->addAnonymousSlot();
    router->start();
    std::thread client(sendAndFinish, listener->port(), wire);
    SocketSourceOptions opt;
    opt.format = format;
    SocketSource src(router, slot, h, opt);
    // kAuto: CSV junk rows, each skipped; kBinary: one protocol error.
    EXPECT_EQ(drainPerRecord(src).size(), 0u) << "pinned=" << pinned;
    if (pinned) {
      EXPECT_EQ(src.protocolErrors(), 1u);
      EXPECT_EQ(src.skippedRecords(), 0u);
    } else {
      EXPECT_EQ(src.protocolErrors(), 0u);
      EXPECT_GT(src.skippedRecords(), 0u);
    }
    client.join();
    EXPECT_EQ(router->rejected(), 0u) << "pinned=" << pinned;
    router->stop();
  }
}

TEST(StreamRouter, CsvLandsOnAnAnonymousSlot) {
  const auto h = HierarchyBuilder::fromPaths({"top/a", "top/b"});
  const std::string csv = "top/a,100\ntop/b,101\ntop/a,102\n";

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  const std::size_t slot = router->addAnonymousSlot();
  router->start();

  std::thread client([port = listener->port(), csv] {
    net::TcpConn conn = net::connectLoopback(port, kTestTimeoutMs);
    ASSERT_TRUE(conn.valid());
    EXPECT_TRUE(conn.writeAll(csv.data(), csv.size(), kTestTimeoutMs));
  });
  SocketSource src(router, slot, h);
  const auto got = drainPerRecord(src);
  client.join();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].time, 100);
  EXPECT_EQ(got[2].time, 102);
  EXPECT_EQ(src.protocolErrors(), 0u);
  router->stop();
}

TEST(StreamRouter, V2NamedConnectionRoutesToItsSlot) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 48);
  std::vector<std::uint8_t> wire =
      encodeSocketHandshakeV2(allPaths(h), "s0", /*resumeToken=*/7);

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  const std::size_t named = router->addNamedSlot("s0");
  router->addAnonymousSlot();  // must NOT receive the v2 connection
  router->start();

  std::thread client([port = listener->port(), wire, &want] {
    net::TcpConn conn = net::connectLoopback(port, kTestTimeoutMs);
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.writeAll(wire.data(), wire.size(), kTestTimeoutMs));
    SocketResumeReply reply;
    ASSERT_TRUE(readSocketResumeReply(conn, kTestTimeoutMs, reply));
    EXPECT_EQ(reply.status, kSocketResumeOk);
    EXPECT_EQ(reply.committedTime, kSocketNoCommit);
    std::vector<std::uint8_t> frames;
    appendSocketFrame(frames, want.data(), want.size());
    appendSocketEndOfStream(frames);
    EXPECT_TRUE(conn.writeAll(frames.data(), frames.size(), kTestTimeoutMs));
  });
  SocketSourceOptions opts;
  opts.streamName = "s0";
  SocketSource src(router, named, h, opts);
  EXPECT_EQ(drainPerRecord(src), want);
  EXPECT_EQ(src.protocolErrors(), 0u);
  EXPECT_EQ(src.resumes(), 0u);  // nothing committed: a fresh start
  client.join();
  EXPECT_EQ(router->accepted(), 1u);
  EXPECT_EQ(router->rejected(), 0u);
  router->stop();
}

TEST(StreamRouter, UnknownStreamNameGetsAFatalReply) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto wire = encodeSocketHandshakeV2(allPaths(h), "ghost", 0);

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  router->addNamedSlot("s0");
  router->start();

  net::TcpConn conn = net::connectLoopback(listener->port(), kTestTimeoutMs);
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.writeAll(wire.data(), wire.size(), kTestTimeoutMs));
  SocketResumeReply reply;
  ASSERT_TRUE(readSocketResumeReply(conn, kTestTimeoutMs, reply));
  EXPECT_EQ(reply.status, kSocketResumeUnknownStream);
  EXPECT_TRUE(waitFor([&] { return router->rejected() == 1; }));
  router->stop();
}

// A named stream that has ended will never read another connection, so a
// client reconnecting to it must hear so at once instead of waiting out
// its whole timeout for a reply (and retrying into the same wait).
TEST(StreamRouter, HandshakeForAnEndedNamedStreamGetsAFatalReply) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto wire = encodeSocketHandshakeV2(allPaths(h), "s0", 0);
  std::vector<std::uint8_t> eos;
  appendSocketEndOfStream(eos);

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  const std::size_t slot = router->addNamedSlot("s0");
  router->start();

  // First connection: an empty stream, which ends s0.
  std::thread client([port = listener->port(), wire, eos] {
    net::TcpConn conn = net::connectLoopback(port, kTestTimeoutMs);
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.writeAll(wire.data(), wire.size(), kTestTimeoutMs));
    SocketResumeReply reply;
    ASSERT_TRUE(readSocketResumeReply(conn, kTestTimeoutMs, reply));
    EXPECT_EQ(reply.status, kSocketResumeOk);
    EXPECT_TRUE(conn.writeAll(eos.data(), eos.size(), kTestTimeoutMs));
  });
  SocketSourceOptions opts;
  opts.streamName = "s0";
  SocketSource src(router, slot, h, opts);
  EXPECT_TRUE(drainPerRecord(src).empty());
  EXPECT_FALSE(src.idle());  // ended, not waiting for a reconnect
  client.join();

  // A reconnect to the ended stream gets the fatal reply well inside a
  // client's timeout.
  net::TcpConn conn = net::connectLoopback(listener->port(), kTestTimeoutMs);
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.writeAll(wire.data(), wire.size(), kTestTimeoutMs));
  SocketResumeReply reply;
  ASSERT_TRUE(readSocketResumeReply(conn, 3'000, reply));
  EXPECT_EQ(reply.status, kSocketResumeStreamEnded);
  EXPECT_TRUE(waitFor([&] { return router->rejected() == 1; }));
  router->stop();
}

TEST(StreamRouter, ShedPredicateRefusesBeforeReading) {
  auto listener = loopbackListener();
  StreamRouter::Options opt;
  opt.shedPredicate = [] { return true; };  // permanently overloaded
  auto router = std::make_shared<StreamRouter>(listener, std::move(opt));
  router->addAnonymousSlot();
  router->start();

  net::TcpConn conn = net::connectLoopback(listener->port(), kTestTimeoutMs);
  ASSERT_TRUE(conn.valid());
  // The router closes without reading a byte: the client sees EOF.
  char byte = 0;
  std::size_t got = 0;
  EXPECT_EQ(conn.readSome(&byte, 1, got, kTestTimeoutMs), net::IoStatus::kEof);
  EXPECT_TRUE(waitFor([&] { return router->shedConnections() == 1; }));
  EXPECT_EQ(router->rejected(), 0u);
  router->stop();
}

TEST(StreamRouter, AnonymousOverflowIsRejected) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  router->addNamedSlot("s0");  // no anonymous capacity at all
  router->start();

  const auto wire = encodeSocketHandshakeV2(allPaths(h), "", 0);
  net::TcpConn conn = net::connectLoopback(listener->port(), kTestTimeoutMs);
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.writeAll(wire.data(), wire.size(), kTestTimeoutMs));
  // The router closes with unread handshake bytes still buffered, so the
  // client sees either FIN (kEof) or RST (kError) — never its data read.
  char byte = 0;
  std::size_t got = 0;
  const net::IoStatus st = conn.readSome(&byte, 1, got, kTestTimeoutMs);
  EXPECT_TRUE(st == net::IoStatus::kEof || st == net::IoStatus::kError);
  EXPECT_TRUE(waitFor([&] { return router->rejected() == 1; }));
  router->stop();
}

}  // namespace
}  // namespace tiresias
