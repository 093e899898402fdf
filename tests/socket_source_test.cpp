// Socket-fed ingest: a SocketSource draining a loopback connection that a
// StreamRouter routed to it must deliver exactly the records written
// (with CsvSource's skip accounting for CSV), at any pull size,
// must survive slow writers, mid-frame disconnects and arbitrary byte
// corruption without ever crashing or throwing (the engine's ingest loop
// has no exception handling), and must account structural failures in
// protocolErrors() and record-level junk in skippedRecords().
// Well-formed clients are the StreamClient that `send` runs; raw wire
// images are for the malformed, dribbled and custom-table cases.
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
#include "stream/source.h"
#include "stream/stream_client.h"
#include "stream/stream_router.h"
#include "socket_test_util.h"

namespace tiresias {
namespace {

std::vector<Record> drainBatched(RecordSource& src, std::size_t max) {
  std::vector<Record> out, chunk;
  // An empty pull with idle() true is a bounded idle wait expiring (the
  // writer thread may not have connected yet), not the end of stream.
  while (src.nextBatch(chunk, max) > 0 || src.idle()) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

/// A source on its own router: the anonymous slot, or the slot named
/// opt.streamName — the `serve --listen` wiring.
SocketSource routedSource(std::shared_ptr<net::TcpListener> listener,
                          const Hierarchy& h, SocketSourceOptions opt = {}) {
  StreamRouter::Options ropt;
  ropt.format = opt.format;
  ropt.handshakeTimeoutMs = opt.readTimeoutMs;
  auto router = std::make_shared<StreamRouter>(std::move(listener), ropt);
  const std::size_t slot = opt.streamName.empty()
                               ? router->addAnonymousSlot()
                               : router->addNamedSlot(opt.streamName);
  router->start();
  return SocketSource(std::move(router), slot, h, std::move(opt));
}

/// Anonymous-stream handshake: a v2 handshake with an empty name.
std::vector<std::uint8_t> anonymousHello(
    const std::vector<std::string>& paths) {
  return encodeSocketHandshakeV2(paths, /*streamName=*/"", /*resumeToken=*/0);
}

/// Full binary wire image: anonymous handshake + the records split across
/// frames of `frameLen` + the end-of-stream marker.
std::vector<std::uint8_t> binaryWire(const Hierarchy& h,
                                     const std::vector<Record>& records,
                                     std::size_t frameLen) {
  std::vector<std::uint8_t> wire = anonymousHello(StreamClient::pathTable(h));
  for (std::size_t at = 0; at < records.size(); at += frameLen) {
    appendSocketFrame(wire, records.data() + at,
                      std::min(frameLen, records.size() - at));
  }
  appendSocketEndOfStream(wire);
  return wire;
}

TEST(SocketSource, BinaryRoundTripAtAnyChunkSize) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 157);

  for (std::size_t max : {1u, 3u, 64u, 4096u}) {
    auto listener = loopbackListener();
    std::thread writer([&h, &want, port = listener->port()] {
      StreamClientOptions opt = clientOptions(port);
      opt.frameRecords = 31;
      StreamClient conn(h, opt);
      EXPECT_EQ(conn.send(replayRecords(want)), SendStatus::kOk);
    });
    SocketSource src = routedSource(listener, h);
    EXPECT_EQ(drainBatched(src, max), want) << "max=" << max;
    EXPECT_EQ(src.skippedRecords(), 0u) << "max=" << max;
    EXPECT_EQ(src.protocolErrors(), 0u) << "max=" << max;
    EXPECT_EQ(src.unresolvedPaths(), 0u) << "max=" << max;
    writer.join();
  }
}

TEST(SocketSource, CsvFollowsCsvSourceSemantics) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto leaf = [&](int i) {
    return h.leaves()[static_cast<std::size_t>(i)];
  };
  // Every skip reason CsvSource handles, plus quoted and CRLF rows and a
  // final line without a trailing newline.
  std::string csv;
  std::vector<Record> want;
  for (int rep = 0; rep < 20; ++rep) {
    csv += h.path(leaf(rep % 3)) + "," + std::to_string(100 + rep) + "\n";
    want.push_back({leaf(rep % 3), 100 + rep});
  }
  csv += "no/such/path,200\n";                    // unknown -> skipped
  csv += "not a csv row\n";                       // one field -> skipped
  csv += h.path(leaf(0)) + ",notatime\n";         // bad time -> skipped
  csv += "\n";                                    // blank line (not junk)
  csv += "\"" + h.path(leaf(1)) + "\",300\n";     // quoted row
  csv += h.path(leaf(2)) + ",400\r\n";             // CRLF row
  csv += h.path(leaf(2)) + ",500";  // no trailing newline
  want.push_back({leaf(1), 300});
  want.push_back({leaf(2), 400});
  want.push_back({leaf(2), 500});

  auto listener = loopbackListener();
  std::thread writer = writeAsync(
      listener->port(), std::vector<std::uint8_t>(csv.begin(), csv.end()));
  SocketSource src = routedSource(listener, h);  // kAuto: no magic -> CSV
  EXPECT_EQ(drainPerRecord(src), want);
  EXPECT_EQ(src.skippedRecords(), 3u);
  EXPECT_EQ(src.protocolErrors(), 0u);
  writer.join();
}

TEST(SocketSource, SlowWriterDeliversEverything) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 40);
  const auto wire = binaryWire(h, want, 16);

  // Dribble the wire bytes in small chunks with pauses, splitting the
  // handshake, frame prefixes and record payloads arbitrarily.
  auto listener = loopbackListener();
  std::thread writer([port = listener->port(), &wire] {
    net::TcpConn conn = net::connectLoopback(port, kTestTimeoutMs);
    ASSERT_TRUE(conn.valid());
    for (std::size_t at = 0; at < wire.size(); at += 7) {
      EXPECT_TRUE(
          conn.writeAll(wire.data() + at, std::min<std::size_t>(7, wire.size() - at)));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    finishClient(conn);
  });
  SocketSource src = routedSource(listener, h);
  EXPECT_EQ(drainBatched(src, 64), want);
  EXPECT_EQ(src.protocolErrors(), 0u);
  writer.join();
}

TEST(SocketSource, EmptyConnectionIsEmptyStream) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  auto listener = loopbackListener();
  std::thread writer = writeAsync(listener->port(), {});
  SocketSource src = routedSource(listener, h);
  EXPECT_EQ(src.next(), std::nullopt);
  EXPECT_EQ(src.protocolErrors(), 0u);  // closing without a byte is clean
  writer.join();
}

TEST(SocketSource, AcceptTimeoutIsProtocolError) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  auto listener = loopbackListener();
  SocketSourceOptions opt;
  opt.readTimeoutMs = 50;
  SocketSource src = routedSource(listener, h, opt);  // nobody connects
  EXPECT_EQ(src.next(), std::nullopt);
  EXPECT_EQ(src.protocolErrors(), 1u);
}

TEST(SocketSource, MidFrameDisconnectEndsStreamCleanly) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 10);
  std::vector<std::uint8_t> wire = anonymousHello(StreamClient::pathTable(h));
  appendSocketFrame(wire, want.data(), want.size());
  wire.resize(wire.size() - 5);  // peer dies mid-record

  auto listener = loopbackListener();
  std::thread writer = writeAsync(listener->port(), wire);
  SocketSource src = routedSource(listener, h);
  EXPECT_EQ(drainBatched(src, 64).size(), 0u);  // frame never completed
  EXPECT_EQ(src.protocolErrors(), 1u);
  writer.join();
}

TEST(SocketSource, EofAtFrameBoundaryIsCleanWithoutMarker) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 24);
  auto listener = loopbackListener();
  std::thread writer([&h, &want, port = listener->port()] {
    StreamClient conn(h, clientOptions(port));
    ASSERT_EQ(conn.open(), SendStatus::kOk) << conn.error();
    VectorSource records(want);
    EXPECT_EQ(conn.push(records), SendStatus::kOk);
  });  // no finish(): the FIN lands exactly on a frame boundary
  SocketSource src = routedSource(listener, h);
  EXPECT_EQ(drainBatched(src, 64), want);
  EXPECT_EQ(src.protocolErrors(), 0u);
  writer.join();
}

TEST(SocketSource, BackwardsTimestampsAreSkippedNotFatal) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto& leaves = h.leaves();
  const std::vector<Record> sent = {
      {leaves[0], 100}, {leaves[1], 50},  // runs backwards: skipped
      {leaves[1], 200}, {leaves[2], 150},  // backwards again: skipped
      {leaves[2], 200},
  };
  std::vector<std::uint8_t> wire = anonymousHello(StreamClient::pathTable(h));
  appendSocketFrame(wire, sent.data(), sent.size());
  appendSocketEndOfStream(wire);

  auto listener = loopbackListener();
  std::thread writer = writeAsync(listener->port(), wire);
  SocketSource src = routedSource(listener, h);
  const std::vector<Record> want = {
      {leaves[0], 100}, {leaves[1], 200}, {leaves[2], 200}};
  EXPECT_EQ(drainBatched(src, 64), want);
  EXPECT_EQ(src.skippedRecords(), 2u);
  EXPECT_EQ(src.protocolErrors(), 0u);
  writer.join();
}

TEST(SocketSource, UnresolvablePathsSkipTheirRecords) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  std::vector<std::string> paths = StreamClient::pathTable(h);
  paths.push_back("no/such/path");
  const auto ghost = static_cast<NodeId>(paths.size() - 1);
  const std::vector<Record> sent = {
      {h.leaves()[0], 100}, {ghost, 150}, {h.leaves()[1], 200}};
  std::vector<std::uint8_t> wire = anonymousHello(paths);
  appendSocketFrame(wire, sent.data(), sent.size());
  appendSocketEndOfStream(wire);

  auto listener = loopbackListener();
  std::thread writer = writeAsync(listener->port(), wire);
  SocketSource src = routedSource(listener, h);
  const std::vector<Record> want = {{h.leaves()[0], 100},
                                    {h.leaves()[1], 200}};
  EXPECT_EQ(drainBatched(src, 64), want);
  EXPECT_EQ(src.unresolvedPaths(), 1u);
  EXPECT_EQ(src.skippedRecords(), 1u);
  EXPECT_EQ(src.protocolErrors(), 0u);
  writer.join();
}

TEST(SocketSource, FileIdOutsideTableIsProtocolError) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const std::vector<Record> sent = {{h.leaves()[0], 100},
                                    {static_cast<NodeId>(9999), 150}};
  std::vector<std::uint8_t> wire = anonymousHello(StreamClient::pathTable(h));
  appendSocketFrame(wire, sent.data(), sent.size());

  auto listener = loopbackListener();
  std::thread writer = writeAsync(listener->port(), wire);
  SocketSource src = routedSource(listener, h);
  // The record before the desync is still delivered; then the stream
  // ends as a protocol error.
  EXPECT_EQ(drainBatched(src, 64),
            (std::vector<Record>{{h.leaves()[0], 100}}));
  EXPECT_EQ(src.protocolErrors(), 1u);
  writer.join();
}

TEST(SocketSource, ForcedBinaryRejectsCsvBytes) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const std::string csv = h.path(h.leaves()[0]) + ",100\n";
  auto listener = loopbackListener();
  std::thread writer = writeAsync(
      listener->port(), std::vector<std::uint8_t>(csv.begin(), csv.end()));
  SocketSourceOptions opt;
  opt.format = SocketSourceOptions::Format::kBinary;
  SocketSource src = routedSource(listener, h, opt);
  EXPECT_EQ(src.next(), std::nullopt);
  EXPECT_EQ(src.protocolErrors(), 1u);
  writer.join();
}

TEST(SocketSource, ForcedCsvTreatsBinaryBytesAsJunkRows) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto wire = binaryWire(h, sampleRecords(h, 8), 8);
  auto listener = loopbackListener();
  std::thread writer = writeAsync(listener->port(), wire);
  SocketSourceOptions opt;
  opt.format = SocketSourceOptions::Format::kCsv;
  SocketSource src = routedSource(listener, h, opt);
  // Binary bytes are not CSV rows: everything skips or the line cap
  // trips; either way no records and no crash.
  EXPECT_EQ(drainBatched(src, 64).size(), 0u);
  writer.join();
}

// ---------------------------------------------------------------------
// kAuto sniff: binary requires the FULL magic + version prefix.

TEST(SocketSource, AutoSniffCsvRowStartingWithMagicIsCsv) {
  // Regression: a CSV category path that literally starts with "TSRS"
  // used to be mistaken for binary (the old sniff checked only the four
  // magic bytes). The version field never matches printable text, so the
  // full 8-byte sniff keeps it in the CSV lane.
  const auto h =
      HierarchyBuilder::fromPaths({"TSRSROOT/leafA", "TSRSROOT/leafB"});
  const NodeId a = h.find("TSRSROOT/leafA");
  const NodeId b = h.find("TSRSROOT/leafB");
  ASSERT_NE(a, kInvalidNode);
  ASSERT_NE(b, kInvalidNode);
  const std::string csv = "TSRSROOT/leafA,100\nTSRSROOT/leafB,200\n";

  auto listener = loopbackListener();
  std::thread writer = writeAsync(
      listener->port(), std::vector<std::uint8_t>(csv.begin(), csv.end()));
  SocketSource src = routedSource(listener, h);  // kAuto
  EXPECT_EQ(drainPerRecord(src),
            (std::vector<Record>{{a, 100}, {b, 200}}));
  EXPECT_EQ(src.skippedRecords(), 0u);
  EXPECT_EQ(src.protocolErrors(), 0u);
  writer.join();
}

TEST(SocketSource, AutoSniffTinyCsvUnderEightBytesIsCsv) {
  // A whole CSV stream shorter than the sniff window (EOF mid-sniff)
  // must still parse as CSV, not fail or hang.
  const auto h = HierarchyBuilder::fromPaths({"a"});
  const NodeId a = h.find("a");
  ASSERT_NE(a, kInvalidNode);
  const std::string csv = "a,7\n";  // 4 bytes
  auto listener = loopbackListener();
  std::thread writer = writeAsync(
      listener->port(), std::vector<std::uint8_t>(csv.begin(), csv.end()));
  SocketSource src = routedSource(listener, h);
  EXPECT_EQ(drainPerRecord(src), (std::vector<Record>{{a, 7}}));
  EXPECT_EQ(src.protocolErrors(), 0u);
  writer.join();
}

// ---------------------------------------------------------------------
// v2 named-stream handshake: resume reply, reconnect, unit-granular
// commits.

TEST(SocketSource, V2HandshakeRepliesAndDelivers) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto want = sampleRecords(h, 20);
  auto listener = loopbackListener();
  std::thread client([port = listener->port(), &h, &want] {
    StreamClient conn(h, clientOptions(port, "s0"));
    EXPECT_EQ(conn.send(replayRecords(want)), SendStatus::kOk);
    EXPECT_EQ(conn.reply().status, kSocketResumeOk);
    EXPECT_EQ(conn.reply().committedTime, kSocketNoCommit);  // fresh stream
  });
  SocketSourceOptions opt;
  opt.streamName = "s0";
  opt.unitDelta = 10;
  SocketSource src = routedSource(listener, h, opt);
  EXPECT_EQ(drainBatched(src, 64), want);
  EXPECT_EQ(src.protocolErrors(), 0u);
  EXPECT_EQ(src.reconnects(), 0u);
  EXPECT_EQ(src.resumes(), 0u);
  client.join();
}

TEST(SocketSource, V2ReconnectResumesFromCommittedUnit) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  // Three timeunits of 10s: [100,110) [110,120) [120,130).
  std::vector<Record> want;
  const auto& leaves = h.leaves();
  for (int i = 0; i < 30; ++i) {
    want.push_back(
        Record{leaves[i % leaves.size()], static_cast<Timestamp>(100 + i)});
  }
  auto listener = loopbackListener();
  std::thread client([port = listener->port(), &h, &want] {
    // Connection 1: all 30 records, then a crash (no end-of-stream).
    {
      StreamClient conn(h, clientOptions(port, "s0"));
      ASSERT_EQ(conn.open(), SendStatus::kOk) << conn.error();
      EXPECT_EQ(conn.reply().committedTime, kSocketNoCommit);
      VectorSource records(want);
      ASSERT_EQ(conn.push(records), SendStatus::kOk);
    }  // dropped without finish() = mid-stream disconnect
    // Connection 2: the server must ask for the uncommitted suffix (the
    // last, still-open unit) and nothing else.
    StreamClient conn(h, clientOptions(port, "s0"));
    EXPECT_EQ(conn.send(replayRecords(want)), SendStatus::kOk);
    EXPECT_EQ(conn.reply().status, kSocketResumeOk);
    EXPECT_EQ(conn.reply().committedTime, 120);  // units 100/110 committed
  });
  SocketSourceOptions opt;
  opt.streamName = "s0";
  opt.unitDelta = 10;
  SocketSource src = routedSource(listener, h, opt);
  // Bit-identical: the replayed partial unit is delivered exactly once.
  EXPECT_EQ(drainBatched(src, 64), want);
  EXPECT_EQ(src.protocolErrors(), 1u);  // the EOS-less disconnect
  EXPECT_EQ(src.reconnects(), 1u);
  EXPECT_EQ(src.resumes(), 1u);
  client.join();
}

TEST(SocketSource, NoteResumePointSeedsTheFirstReply) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto& leaves = h.leaves();
  auto listener = loopbackListener();
  std::thread client([port = listener->port(), &h, &leaves] {
    StreamClient conn(h, clientOptions(port, "s0"));
    EXPECT_EQ(conn.send(replayRecords({{leaves[0], 500}, {leaves[1], 503}})),
              SendStatus::kOk);
    EXPECT_EQ(conn.reply().committedTime, 500);  // the restore position
  });
  SocketSourceOptions opt;
  opt.streamName = "s0";
  opt.unitDelta = 10;
  SocketSource src = routedSource(listener, h, opt);
  // What the engine does after --restore, before the first pull.
  src.noteResumePoint(500);
  EXPECT_EQ(drainBatched(src, 64),
            (std::vector<Record>{{leaves[0], 500}, {leaves[1], 503}}));
  EXPECT_EQ(src.protocolErrors(), 0u);
  EXPECT_EQ(src.resumes(), 1u);
  client.join();
}

TEST(SocketSource, JunkBudgetDropsGarbageConnections) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  std::vector<std::string> paths = StreamClient::pathTable(h);
  paths.push_back("no/such/path");
  const auto ghost = static_cast<NodeId>(paths.size() - 1);
  std::vector<Record> garbage;
  for (int i = 0; i < 50; ++i) {
    garbage.push_back(Record{ghost, static_cast<Timestamp>(100 + i)});
  }
  std::vector<std::uint8_t> wire = anonymousHello(paths);
  appendSocketFrame(wire, garbage.data(), garbage.size());
  appendSocketEndOfStream(wire);

  auto listener = loopbackListener();
  std::thread writer = writeAsync(listener->port(), wire);
  SocketSourceOptions opt;
  opt.junkBudgetPerConn = 10;
  SocketSource src = routedSource(listener, h, opt);
  EXPECT_EQ(drainBatched(src, 64).size(), 0u);
  EXPECT_EQ(src.protocolErrors(), 1u);  // dropped at the 11th junk record
  EXPECT_EQ(src.skippedRecords(), 11u);
  writer.join();
}

// ---------------------------------------------------------------------
// Corruption fuzzing, mirroring binary_source_test: flip one byte at a
// spread of offsets across the full wire image. Every outcome must be a
// clean drain or a counted protocol error / skipped records — never a
// crash, throw, or hang (ASan/TSan enforce the memory half).

TEST(SocketSourceFuzz, RandomByteFlipsNeverCrash) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  const auto wire = binaryWire(h, sampleRecords(h, 30), 10);
  SocketSourceOptions opt;
  opt.readTimeoutMs = 2000;  // corrupt counts may stall the reader briefly
  std::vector<std::size_t> offsets;
  for (std::size_t at = 0; at < wire.size();
       at += std::max<std::size_t>(1, wire.size() / 97)) {
    offsets.push_back(at);
  }
  // One router for every round (a router stops only on its next accept
  // tick, too slow to pay once per round), with one anonymous slot per
  // round, since a source that ends also ends its slot: each round's
  // source takes the one connection of that round from the shared FIFO.
  auto listener = loopbackListener();
  StreamRouter::Options ropt;
  ropt.handshakeTimeoutMs = opt.readTimeoutMs;
  auto router = std::make_shared<StreamRouter>(listener, ropt);
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    slots.push_back(router->addAnonymousSlot());
  }
  router->start();
  for (std::size_t round = 0; round < offsets.size(); ++round) {
    const std::size_t at = offsets[round];
    auto mutated = wire;
    mutated[at] ^= 0x5A;
    std::thread writer = writeAsync(listener->port(), mutated);
    SocketSource src(router, slots[round], h, opt);
    const auto got = drainBatched(src, 64);
    // Accounting sanity: a failed stream is counted, a clean one is not.
    EXPECT_LE(src.protocolErrors(), 1u) << "at=" << at;
    (void)got;
    writer.join();
  }
}

}  // namespace
}  // namespace tiresias
