// StreamRouter — one accept loop that routes incoming ingest connections
// to the right SocketSource slot, and the only reader of a TSRS
// handshake's identity prefix.
//
// Stream identity is fixed at accept time, not by which source happens to
// read a connection first, so a client that drops and dials again lands
// on the same slot and its SocketSource can resume the logical stream:
//
//   - one background thread accepts every connection and sniffs its
//     first eight bytes;
//   - "TSRS" + version 2 is binary: the router reads nameLen | name |
//     resumeToken and consumes them. A non-empty name goes to that name's
//     slot (the same slot on every reconnect); an empty name goes to the
//     shared first-come FIFO that anonymous slots (`--net-streams K`)
//     drain. Either way the connection reaches the source positioned at
//     tableBytes, with nothing to replay;
//   - anything else (CSV rows, junk, and the retired v1 prologue) goes to
//     the anonymous FIFO as CSV, with the sniffed bytes handed over in
//     Routed::head because they are the first CSV payload;
//   - Format::kCsv skips the sniff: every connection is CSV from byte 0.
//
// Graceful degradation hooks live here too, because accept time is the
// cheapest place to refuse work: a shed predicate (the CLI wires it to
// the engine's queue lag against --shed-watermark) closes connections
// before reading a byte, and structurally unroutable connections
// (unknown stream name, a named stream that has already ended, every
// anonymous stream ended, handshake timeout, anonymous overflow) are
// counted and closed instead of wedging a slot.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/tcp.h"
#include "stream/socket_source.h"

namespace tiresias {

class StreamRouter {
 public:
  struct Options {
    /// Pinned wire format (kCsv skips the sniff entirely).
    SocketSourceOptions::Format format = SocketSourceOptions::Format::kAuto;
    /// Deadline for the routing prefix of a handshake. A peer that
    /// connects and stalls before identifying itself is dropped.
    int handshakeTimeoutMs = 10'000;
    /// Checked once per accepted connection, before any read; true means
    /// the server is overloaded and the connection is closed on the spot
    /// (counted in shedConnections()). Called from the router thread.
    std::function<bool()> shedPredicate;
  };

  /// One routed connection. Binary: the identity prefix is consumed and
  /// `conn` is positioned at tableBytes (`head` empty). CSV: `head` holds
  /// the sniffed bytes, the first of the stream.
  struct Routed {
    net::TcpConn conn;
    std::vector<std::uint8_t> head;
    bool headEof = false;  // EOF already seen while sniffing
    bool binary = false;   // a v2 handshake, identity prefix consumed
  };

  StreamRouter(std::shared_ptr<net::TcpListener> listener, Options options);
  ~StreamRouter();

  StreamRouter(const StreamRouter&) = delete;
  StreamRouter& operator=(const StreamRouter&) = delete;

  /// Register slots before start(). A named slot receives every v2
  /// connection carrying `name` (newest wins if one is already waiting);
  /// anonymous slots share one first-come FIFO of empty-name v2 and CSV
  /// connections.
  std::size_t addNamedSlot(std::string name);
  std::size_t addAnonymousSlot();

  void start();
  /// Stops the accept thread and wakes every await() with "no connection".
  void stop();
  /// True once stop() was called: no connection will be routed any more.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// A slot's stream has ended for good, so nothing will read another
  /// connection for it. Named: connections waiting for it and every later
  /// handshake naming it are turned away. Anonymous: the shared FIFO
  /// shrinks to one connection per live anonymous slot, and once none is
  /// live every later anonymous connection is turned away. Turned away
  /// means counted in rejected() and closed, a binary one after a fatal
  /// kSocketResumeStreamEnded reply. Thread-safe; no-op on repeat calls.
  void endSlot(std::size_t slot);

  /// Block until a connection is routed to `slot` (or the shared FIFO for
  /// anonymous slots), the timeout passes, or the router stops.
  std::optional<Routed> await(std::size_t slot, int timeoutMs);

  std::size_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections closed by the shed predicate before any read.
  std::size_t shedConnections() const {
    return shed_.load(std::memory_order_relaxed);
  }
  /// Connections that could not be routed: unknown stream name, a stream
  /// that has ended, handshake timeout/corruption, or no anonymous
  /// capacity.
  std::size_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::string name;  // empty = anonymous (drains the shared FIFO)
    std::deque<Routed> queue;
    bool ended = false;  // guarded by mu_
  };

  void routeLoop();
  void routeOne(net::TcpConn conn);
  /// Reads `n` bytes of a handshake's routing prefix by the handshake
  /// deadline counted from `start`. kOk when all landed; kEof at an EOF
  /// (`got` says how many bytes came first); kTimeout at the deadline or
  /// once the router stops; kError on a socket error.
  net::IoStatus readPrefix(net::TcpConn& conn, std::uint8_t* dst,
                           std::size_t n, std::size_t& got,
                           std::chrono::steady_clock::time_point start);
  void deliverAnonymous(Routed routed);
  /// Close a connection whose stream has ended, with a fatal reply if it
  /// is binary, and count it rejected.
  void turnAway(Routed& routed);

  std::shared_ptr<net::TcpListener> listener_;
  Options opt_;
  // deque: Slot is move-only (its queue holds sockets) and growth must
  // not relocate existing elements.
  std::deque<Slot> slots_;
  std::unordered_map<std::string, std::size_t> byName_;
  std::deque<Routed> anonymous_;
  std::size_t anonymousSlots_ = 0;
  std::size_t anonymousLive_ = 0;  // not yet ended; guarded by mu_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> rejected_{0};
};

}  // namespace tiresias
