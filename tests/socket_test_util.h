// Fixtures shared by the socket-ingest tests: a loopback listener, the
// reference client's options, a well-formed record run and the drains.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.h"
#include "stream/source.h"
#include "stream/stream_client.h"

namespace tiresias {

inline constexpr int kTestTimeoutMs = 10'000;

inline std::shared_ptr<net::TcpListener> loopbackListener() {
  auto listener = std::make_shared<net::TcpListener>();
  EXPECT_TRUE(listener->listen(0, /*loopbackOnly=*/true))
      << listener->lastError();
  return listener;
}

/// StreamClient options for stream `name` (empty = anonymous) on `port`.
inline StreamClientOptions clientOptions(std::uint16_t port,
                                         std::string name = "") {
  return {.port = port, .streamName = std::move(name),
          .timeoutMs = kTestTimeoutMs};
}

/// A well-formed record run over h's leaves with non-decreasing times.
inline std::vector<Record> sampleRecords(const Hierarchy& h,
                                         std::size_t count) {
  std::vector<Record> records;
  const auto& leaves = h.leaves();
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(
        Record{leaves[i % leaves.size()], static_cast<Timestamp>(100 + i)});
  }
  return records;
}

/// Through next(), which retries while the source is idle.
inline std::vector<Record> drainPerRecord(RecordSource& src) {
  std::vector<Record> out;
  while (auto r = src.next()) out.push_back(*r);
  return out;
}

/// End a client's stream with a FIN, then read until the server closes.
/// A binary client must consume the server's resume reply: closing with
/// it unread resets the connection, which can discard bytes the server
/// has not read yet.
inline void finishClient(net::TcpConn& conn) {
  conn.shutdownWrite();
  char sink[64];
  std::size_t got = 0;
  while (conn.readSome(sink, sizeof(sink), got, kTestTimeoutMs) ==
         net::IoStatus::kOk) {
  }
}

/// Connect to `port`, write raw `bytes`, then finishClient(). The returned
/// thread must be joined before the test ends.
inline std::thread writeAsync(std::uint16_t port,
                              std::vector<std::uint8_t> bytes) {
  return std::thread([port, bytes = std::move(bytes)] {
    net::TcpConn conn = net::connectLoopback(port, kTestTimeoutMs);
    ASSERT_TRUE(conn.valid());
    if (!bytes.empty()) {
      EXPECT_TRUE(conn.writeAll(bytes.data(), bytes.size(), kTestTimeoutMs));
    }
    finishClient(conn);
  });
}

/// Routing is asynchronous: poll a condition until it holds.
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

}  // namespace tiresias
