#include "stream/stream_router.h"

#include <algorithm>
#include <chrono>

#include "persist/le.h"

namespace tiresias {

namespace {

using net::IoStatus;
using persist::le32;
using persist::putLe32;
using persist::putLe64;

int remainingMs(int totalMs, std::chrono::steady_clock::time_point start) {
  if (totalMs < 0) return -1;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const long long left = static_cast<long long>(totalMs) - elapsed;
  return left > 0 ? static_cast<int>(left) : 0;
}

/// Accept tick: short enough that stop() is responsive, long enough that
/// an idle router costs nothing measurable.
constexpr int kAcceptTickMs = 200;

/// Answers a handshake the router will not route with a fatal `status`,
/// so the client's retry loop stops instead of hammering the server (or
/// waiting out its timeout for a reply that never comes).
void refuse(net::TcpConn& conn, std::uint32_t status) {
  std::uint8_t reply[12];
  putLe32(reply, status);
  putLe64(reply + 4, static_cast<std::uint64_t>(kSocketNoCommit));
  conn.writeAll(reply, sizeof(reply), 1'000);
}

}  // namespace

StreamRouter::StreamRouter(std::shared_ptr<net::TcpListener> listener,
                           Options options)
    : listener_(std::move(listener)), opt_(std::move(options)) {
  net::ignoreSigpipe();
}

StreamRouter::~StreamRouter() { stop(); }

std::size_t StreamRouter::addNamedSlot(std::string name) {
  const std::size_t id = slots_.size();
  byName_.emplace(name, id);
  slots_.push_back(Slot{std::move(name), {}});
  return id;
}

std::size_t StreamRouter::addAnonymousSlot() {
  const std::size_t id = slots_.size();
  slots_.push_back(Slot{{}, {}});
  ++anonymousSlots_;
  ++anonymousOpen_;
  return id;
}

void StreamRouter::start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { routeLoop(); });
}

void StreamRouter::stop() {
  stop_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StreamRouter::routeLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    net::TcpConn conn = listener_->accept(kAcceptTickMs);
    if (stop_.load(std::memory_order_acquire)) break;
    if (!conn.valid()) continue;  // tick elapsed or transient failure
    routeOne(std::move(conn));
  }
}

void StreamRouter::routeOne(net::TcpConn conn) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (opt_.shedPredicate && opt_.shedPredicate()) {
    // Overloaded: refuse before reading a byte. The client sees the close
    // and retries with backoff; no ingest queue gets deeper for it.
    shed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Routed routed;
  if (opt_.format == SocketSourceOptions::Format::kCsv) {
    routed.conn = std::move(conn);
    deliverAnonymous(std::move(routed));
    return;
  }
  // Sniff the magic + version. Requiring all eight bytes to match is what
  // keeps a CSV path that merely starts with "TSRS" out of the binary lane.
  const auto start = std::chrono::steady_clock::now();
  std::uint8_t head[8];
  std::size_t have = 0;
  const IoStatus sniffed = readPrefix(conn, head, sizeof(head), have, start);
  if (sniffed == IoStatus::kEof) {
    routed.headEof = true;
  } else if (sniffed != IoStatus::kOk) {
    // Stalled or errored before identifying itself: not routable.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (have < 8 || le32(head) != kSocketStreamMagic ||
      le32(head + 4) != kSocketStreamVersion2) {
    // CSV or junk, positional: the sniffed bytes are its first payload.
    routed.head.assign(head, head + have);
    routed.conn = std::move(conn);
    deliverAnonymous(std::move(routed));
    return;
  }
  // v2: consume nameLen | name | resumeToken. The name decides the slot;
  // the token is informational (a client-chosen session id).
  const auto readField = [&](void* dst, std::size_t n) {
    std::size_t got = 0;
    return readPrefix(conn, static_cast<std::uint8_t*>(dst), n, got, start) ==
           IoStatus::kOk;
  };
  std::uint8_t fixed[8];
  if (!readField(fixed, 4) || le32(fixed) > kSocketMaxStreamNameBytes) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::string name(le32(fixed), '\0');
  if (!readField(name.data(), name.size()) || !readField(fixed, 8)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  routed.binary = true;
  if (name.empty()) {
    routed.conn = std::move(conn);
    deliverAnonymous(std::move(routed));
    return;
  }
  const auto it = byName_.find(name);  // immutable after start(): no lock
  if (it == byName_.end()) {
    refuse(conn, kSocketResumeUnknownStream);  // a wrong name, not a flaky net
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  routed.conn = std::move(conn);
  {
    std::lock_guard lk(mu_);
    Slot& slot = slots_[it->second];
    if (!slot.ended) {
      // Newest wins: a waiting connection for the same name is a client
      // retry we never served — drop it (RAII close) for the fresh one.
      slot.queue.clear();
      slot.queue.push_back(std::move(routed));
      cv_.notify_all();
      return;
    }
  }
  turnAway(routed);
}

void StreamRouter::endSlot(std::size_t slot) {
  std::deque<Routed> waiting;
  {
    std::lock_guard lk(mu_);
    Slot& s = slots_[slot];
    if (s.ended) return;
    s.ended = true;
    if (s.name.empty()) {
      // The FIFO holds at most one connection per open anonymous slot;
      // the newest beyond that would never be read.
      if (!s.taken) --anonymousOpen_;
      while (anonymous_.size() > anonymousOpen_) {
        waiting.push_back(std::move(anonymous_.back()));
        anonymous_.pop_back();
      }
    } else {
      waiting.swap(s.queue);
    }
  }
  for (Routed& r : waiting) turnAway(r);
}

void StreamRouter::turnAway(Routed& routed) {
  // A binary client hears that no stream will read it; CSV has no reply.
  if (routed.binary) refuse(routed.conn, kSocketResumeStreamEnded);
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

IoStatus StreamRouter::readPrefix(net::TcpConn& conn, std::uint8_t* dst,
                                  std::size_t n, std::size_t& got,
                                  std::chrono::steady_clock::time_point start) {
  got = 0;
  while (got < n) {
    // Waits in accept-tick slices, so a peer that connects and goes quiet
    // holds stop() up by one tick at most, not by the whole deadline.
    const int left = remainingMs(opt_.handshakeTimeoutMs, start);
    const int slice = left < 0 ? kAcceptTickMs : std::min(left, kAcceptTickMs);
    std::size_t chunk = 0;
    const IoStatus st = conn.readSome(dst + got, n - got, chunk, slice);
    if (st == IoStatus::kOk) {
      got += chunk;
      continue;
    }
    if (st != IoStatus::kTimeout) return st;
    if (slice == left || stop_.load(std::memory_order_acquire)) return st;
  }
  return IoStatus::kOk;
}

void StreamRouter::deliverAnonymous(Routed routed) {
  {
    std::lock_guard lk(mu_);
    if (anonymous_.size() < anonymousOpen_) {
      anonymous_.push_back(std::move(routed));
      cv_.notify_all();
      return;
    }
  }
  if (anonymousSlots_ > 0) {
    // Every anonymous slot has ended, has taken its one connection or has
    // one waiting: nothing will ever read this one.
    turnAway(routed);
    return;
  }
  // No anonymous slot at all: the empty name is as unknown as a wrong one,
  // and a binary client hears so at once instead of retrying.
  if (routed.binary) refuse(routed.conn, kSocketResumeUnknownStream);
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<StreamRouter::Routed> StreamRouter::await(std::size_t slot,
                                                        int timeoutMs) {
  std::unique_lock lk(mu_);
  const bool named = !slots_[slot].name.empty();
  const auto ready = [&] {
    if (stop_.load(std::memory_order_acquire)) return true;
    return named ? !slots_[slot].queue.empty() : !anonymous_.empty();
  };
  if (timeoutMs < 0) {
    cv_.wait(lk, ready);
  } else if (!cv_.wait_for(lk, std::chrono::milliseconds(timeoutMs), ready)) {
    return std::nullopt;
  }
  auto& queue = named ? slots_[slot].queue : anonymous_;
  if (queue.empty()) return std::nullopt;  // woken by stop()
  Routed r = std::move(queue.front());
  queue.pop_front();
  if (!named && !slots_[slot].taken) {
    slots_[slot].taken = true;  // an anonymous slot serves one connection
    --anonymousOpen_;
  }
  return r;
}

}  // namespace tiresias
