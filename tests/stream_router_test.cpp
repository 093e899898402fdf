// StreamRouter: one accept thread must route v2 named connections to
// their slot, empty-name v2 and CSV connections to the shared anonymous
// FIFO (a retired v1 prologue is CSV junk, never binary), refuse
// unknown and ended names — and anonymous connections once every
// anonymous stream has ended — with a fatal reply, shed under the
// overload predicate, and reject anonymous overflow — always by closing
// the socket, never by wedging a slot or crashing. Well-formed clients
// are the StreamClient that `send` runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hierarchy/builder.h"
#include "net/tcp.h"
#include "stream/socket_source.h"
#include "stream/stream_client.h"
#include "stream/stream_router.h"
#include "socket_test_util.h"

namespace tiresias {
namespace {

TEST(StreamRouter, EmptyNameV2LandsOnAnAnonymousSlot) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 64);

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  router->addNamedSlot("s0");  // must NOT receive the anonymous connection
  const std::size_t slot = router->addAnonymousSlot();
  router->start();

  std::thread client([&h, port = listener->port(), &want] {
    StreamClient conn(h, clientOptions(port));
    EXPECT_EQ(conn.send(replayRecords(want)), SendStatus::kOk);
    EXPECT_EQ(conn.reply().status, kSocketResumeOk);
    EXPECT_EQ(conn.reply().committedTime, kSocketNoCommit);
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
  std::vector<std::uint8_t> wire =
      encodeSocketHandshakeV2(StreamClient::pathTable(h), "", 0);
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
    std::thread client = writeAsync(listener->port(), wire);
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

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  const std::size_t named = router->addNamedSlot("s0");
  router->addAnonymousSlot();  // must NOT receive the v2 connection
  router->start();

  std::thread client([&h, port = listener->port(), &want] {
    StreamClient conn(h, clientOptions(port, "s0"));
    EXPECT_EQ(conn.send(replayRecords(want)), SendStatus::kOk);
    EXPECT_EQ(conn.reply().status, kSocketResumeOk);
    EXPECT_EQ(conn.reply().committedTime, kSocketNoCommit);
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

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  router->addNamedSlot("s0");
  router->start();

  StreamClient conn(h, clientOptions(listener->port(), "ghost"));
  ASSERT_EQ(conn.open(), SendStatus::kUnknownStream) << conn.error();
  EXPECT_EQ(conn.reply().status, kSocketResumeUnknownStream);
  EXPECT_TRUE(waitFor([&] { return router->rejected() == 1; }));
  router->stop();
}

// A named stream that has ended will never read another connection, so a
// client reconnecting to it must hear so at once instead of waiting out
// its whole timeout for a reply (and retrying into the same wait).
TEST(StreamRouter, HandshakeForAnEndedNamedStreamGetsAFatalReply) {
  const auto h = HierarchyBuilder::balanced({3, 2});

  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  const std::size_t slot = router->addNamedSlot("s0");
  router->start();

  // First connection: an empty stream, which ends s0.
  std::thread client([&h, port = listener->port()] {
    StreamClient conn(h, clientOptions(port, "s0"));
    EXPECT_EQ(conn.send(replayRecords({})), SendStatus::kOk);
    EXPECT_EQ(conn.reply().status, kSocketResumeOk);
  });
  SocketSourceOptions opts;
  opts.streamName = "s0";
  SocketSource src(router, slot, h, opts);
  EXPECT_TRUE(drainPerRecord(src).empty());
  EXPECT_FALSE(src.idle());  // ended, not waiting for a reconnect
  client.join();

  // A reconnect to the ended stream gets the fatal reply well inside a
  // client's timeout.
  StreamClientOptions late = clientOptions(listener->port(), "s0");
  late.timeoutMs = 3'000;
  StreamClient conn(h, late);
  ASSERT_EQ(conn.open(), SendStatus::kStreamEnded) << conn.error();
  EXPECT_EQ(conn.reply().status, kSocketResumeStreamEnded);
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

  const auto wire = encodeSocketHandshakeV2(StreamClient::pathTable(h), "", 0);
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

// Once every anonymous stream has ended, nothing will read another
// anonymous connection: a binary client must hear so at once, and a CSV
// one be closed, both counted rejected — not parked in the FIFO, where
// the client would wait out its whole timeout for a reply.
TEST(StreamRouter, AnonymousConnectionAfterEveryAnonymousStreamEndedIsTurnedAway) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  router->addNamedSlot("s0");  // still live: the run would go on
  const std::size_t slot = router->addAnonymousSlot();
  router->start();

  // First connection: an empty stream, which ends the only anonymous slot.
  std::thread client([&h, port = listener->port()] {
    StreamClient conn(h, clientOptions(port));
    EXPECT_EQ(conn.send(replayRecords({})), SendStatus::kOk);
  });
  SocketSource src(router, slot, h);
  EXPECT_TRUE(drainPerRecord(src).empty());
  EXPECT_FALSE(src.idle());
  client.join();

  StreamClientOptions late = clientOptions(listener->port());
  late.timeoutMs = 3'000;
  StreamClient binary(h, late);
  ASSERT_EQ(binary.open(), SendStatus::kStreamEnded) << binary.error();
  EXPECT_EQ(binary.reply().status, kSocketResumeStreamEnded);

  net::TcpConn csv = net::connectLoopback(listener->port(), kTestTimeoutMs);
  ASSERT_TRUE(csv.valid());
  const std::string row = h.path(h.leaves()[0]) + ",100\n";
  ASSERT_TRUE(csv.writeAll(row.data(), row.size(), kTestTimeoutMs));
  csv.shutdownWrite();
  char byte = 0;
  std::size_t got = 0;
  const net::IoStatus st = csv.readSome(&byte, 1, got, 3'000);
  EXPECT_TRUE(st == net::IoStatus::kEof || st == net::IoStatus::kError);
  EXPECT_TRUE(waitFor([&] { return router->rejected() == 2; }));
  router->stop();
}

}  // namespace
}  // namespace tiresias
