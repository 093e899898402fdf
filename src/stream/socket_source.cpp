#include "stream/socket_source.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/timeutil.h"
#include "persist/le.h"
#include "persist/snapshot.h"
#include "stream/stream_router.h"

namespace tiresias {

namespace {

using net::IoStatus;
using persist::Deserializer;
using persist::le32;
using persist::le64;
using persist::putLe32;
using persist::putLe64;
using persist::Serializer;
using persist::SnapshotError;

constexpr std::size_t kRecordBytes = 12;  // u32 fileId + i64 timestamp
constexpr std::size_t kCsvReadChunk = std::size_t{64} << 10;

using Clock = std::chrono::steady_clock;

int elapsedMs(Clock::time_point since) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - since)
                              .count());
}

}  // namespace

struct SocketSource::Impl {
  enum class State : std::uint8_t { kStart, kBinary, kCsv, kDone };
  /// One fillPending() outcome: records are ready, the stream ended, or
  /// the bounded idle window expired while the stream merely waits
  /// (between connections or frames — see SocketSourceOptions::pullIdleMs).
  enum class Pull : std::uint8_t { kData, kIdle, kDone };

  std::shared_ptr<StreamRouter> router;
  std::size_t slot = 0;
  net::TcpConn conn;
  const Hierarchy& hierarchy;
  SocketSourceOptions opt;

  State state = State::kStart;
  std::size_t protocolErrors = 0;
  std::size_t unresolved = 0;
  /// Conn-scoped failures so far, against opt.protocolErrorBudget.
  std::size_t connFailures = 0;
  /// Monotonicity guard: the batcher requires non-decreasing time, and a
  /// misbehaving client must not be able to abort the server, so records
  /// that run backwards are skipped here.
  Timestamp lastTime = std::numeric_limits<Timestamp>::min();

  bool hadConn = false;  // a later connection is a *re*connect

  // Bounded-idle bookkeeping. A pull blocks at most pullIdleMs per call
  // (pullDeadline); idleAccumMs tracks *contiguous* idleness across calls
  // — any arrival (a connection, a byte) resets it, and once it passes
  // readTimeoutMs the stream gives up exactly where an unbounded wait
  // would have timed out.
  Clock::time_point pullDeadline{};
  int idleAccumMs = 0;

  // Resume state: records of the current (possibly incomplete) timeunit
  // are staged and only released downstream when the next unit opens, so
  // committedTime is always a unit boundary the client can replay from.
  std::vector<Record> staged;
  TimeUnit stagedUnit = 0;
  Timestamp committedTime = kSocketNoCommit;
  std::size_t connSkipped = 0;  // junk this connection, vs junk budget
  std::atomic<std::size_t> reconnectCount{0};
  std::atomic<std::size_t> resumeCount{0};

  // Binary mode: fileId → NodeId from the handshake table; frame staging.
  std::vector<NodeId> fileIdToNode;
  std::vector<std::uint8_t> frame;

  // CSV mode: undelivered bytes + scan cursor, EOF latch, shared-cache
  // resolution (CsvSource parity).
  std::string csvBuf;
  std::size_t csvPos = 0;
  bool csvEof = false;
  PathCache pathCache;
  std::vector<std::string> quotedScratch;
  std::vector<char> readBuf = std::vector<char>(kCsvReadChunk);

  /// Decoded records awaiting delivery through nextBatch().
  std::vector<Record> pending;
  std::size_t pendingPos = 0;

  Impl(std::shared_ptr<StreamRouter> r, std::size_t routerSlot,
       const Hierarchy& h, SocketSourceOptions o)
      : router(std::move(r)), slot(routerSlot), hierarchy(h),
        opt(std::move(o)), pathCache(h) {
    net::ignoreSigpipe();
  }

  /// A named stream survives lost connections; a positional one is its
  /// connection.
  bool resumable() const { return !opt.streamName.empty(); }
  /// Unit-granular commit staging (needs the pipeline delta).
  bool staging() const { return resumable() && opt.unitDelta > 0; }

  // ---- bounded-idle waits ----

  /// Out of patience: idle for readTimeoutMs, or the router has stopped,
  /// so the server is shutting down and no connection will come.
  bool idlePatienceExhausted() const {
    return idleAccumMs >= opt.readTimeoutMs || router->stopped();
  }

  /// Milliseconds a single idle-type wait (await, first byte of the next
  /// protocol element) may block right now: the remaining pull
  /// budget, capped by the stream's remaining patience.
  int idleWaitMs() const {
    int budget = std::max(opt.readTimeoutMs - idleAccumMs, 1);
    if (opt.pullIdleMs > 0) {
      const auto rem = std::chrono::duration_cast<std::chrono::milliseconds>(
                           pullDeadline - Clock::now())
                           .count();
      budget = std::min(budget, static_cast<int>(std::max<long long>(rem, 1)));
    }
    return budget;
  }

  /// Bounded wait for the first byte of the next protocol element. Bytes
  /// reset the idle clock; a timeout charges it. On kTimeout the caller
  /// checks idlePatienceExhausted(): exhausted means the old full-timeout
  /// expiry, otherwise it simply returns so fillPending() can yield.
  IoStatus readIdle(void* dst, std::size_t n, std::size_t& got) {
    const auto t0 = Clock::now();
    const IoStatus st = conn.readSome(dst, n, got, idleWaitMs());
    if (st == IoStatus::kOk) {
      idleAccumMs = 0;
    } else if (st == IoStatus::kTimeout) {
      idleAccumMs += std::max(elapsedMs(t0), 1);
    }
    return st;
  }

  // ---- failure / lifecycle ----

  /// Unrecoverable failure (no connection in time, budget exhausted):
  /// count it, drop the connection, end the stream.
  void fail() {
    ++protocolErrors;
    conn.close();
    finish();
  }

  /// Connection-scoped failure: a resumable stream with budget left goes
  /// back to waiting for its client to reconnect; anything else ends the
  /// stream like fail().
  void failConn() {
    if (resumable() && connFailures < opt.protocolErrorBudget) {
      ++connFailures;
      ++protocolErrors;
      resetForReconnect();
      return;
    }
    fail();
  }

  /// Drop every per-connection artifact and await the next connection.
  /// The staged partial unit is discarded — the reconnecting client
  /// replays it in full from committedTime, so nothing is duplicated or
  /// lost.
  void resetForReconnect() {
    conn.close();
    state = State::kStart;
    idleAccumMs = 0;  // the wait for the reconnect gets fresh patience
    staged.clear();
    lastTime = committedTime;
    csvBuf.clear();
    csvPos = 0;
    csvEof = false;
    fileIdToNode.clear();
    connSkipped = 0;
  }

  void endClean() {
    // The client finished: release any staged partial unit downstream.
    flushStaged();
    conn.close();
    finish();
  }

  /// The stream is over. The router learns it, so it answers the
  /// connections nothing will read any more instead of parking them.
  void finish() {
    state = State::kDone;
    router->endSlot(slot);
  }

  // ---- resume staging ----

  void flushStaged() {
    pending.insert(pending.end(), staged.begin(), staged.end());
    staged.clear();
  }

  /// Deliver one accepted record — directly, or through the unit-commit
  /// staging buffer when the stream is resumable.
  void emit(const Record& r) {
    if (!staging()) {
      pending.push_back(r);
      return;
    }
    const TimeUnit u = timeUnitOf(r.time, opt.unitDelta);
    if (!staged.empty() && u != stagedUnit) {
      // r opens a new unit, which completes the staged one: commit it.
      // Records are monotone, so everything before unitStart(u) has now
      // been seen — that boundary is the new replay point.
      flushStaged();
      committedTime = unitStart(u, opt.unitDelta);
    }
    if (staged.empty()) stagedUnit = u;
    staged.push_back(r);
  }

  /// One record-level skip, honoring the per-connection junk budget.
  /// Returns false when the budget tripped (the connection is gone).
  bool noteJunk(std::size_t& skipped) {
    ++skipped;
    if (opt.junkBudgetPerConn > 0 && ++connSkipped > opt.junkBudgetPerConn) {
      failConn();  // garbage at volume is structural, not noise
      return false;
    }
    return true;
  }

  /// Ensure pending has undelivered records. kDone only at end of
  /// stream; kIdle when the bounded pull window expired first (the stream
  /// is alive but has nothing yet — reconnect churn included, so a
  /// caller is never wedged by a peer that keeps connecting and dying).
  Pull fillPending(std::size_t& skipped) {
    const auto start = Clock::now();
    pullDeadline = start + std::chrono::milliseconds(
                               opt.pullIdleMs > 0 ? opt.pullIdleMs : 0);
    for (;;) {
      if (pendingPos < pending.size()) return Pull::kData;
      if (state == State::kDone) return Pull::kDone;
      if (opt.pullIdleMs > 0 && elapsedMs(start) >= opt.pullIdleMs) {
        return Pull::kIdle;
      }
      pending.clear();
      pendingPos = 0;
      if (state == State::kStart) {
        negotiate();
        continue;
      }
      if (state == State::kBinary) {
        pullBinaryFrame(skipped);
      } else {
        pullCsv(skipped);
      }
    }
  }

  /// Await the next routed connection and take it in the format the
  /// router sniffed. Leaves state at kBinary/kCsv/kDone — or back at
  /// kStart while waiting, or after a recoverable connection failure on a
  /// resumable stream.
  void negotiate() {
    const auto t0 = Clock::now();
    auto routed = router->await(slot, idleWaitMs());
    if (!routed || !routed->conn.valid()) {
      idleAccumMs += std::max(elapsedMs(t0), 1);
      // Nobody (re)connected yet: give up only once the patience the
      // unbounded wait had is spent, otherwise yield to the caller.
      if (idlePatienceExhausted()) fail();
      return;
    }
    conn = std::move(routed->conn);
    idleAccumMs = 0;  // a connection arrived
    if (hadConn) reconnectCount.fetch_add(1, std::memory_order_relaxed);
    hadConn = true;
    if (routed->binary) {
      readTable();
      return;
    }
    csvBuf.assign(routed->head.begin(), routed->head.end());
    csvEof = routed->headEof;
    // Closing without a byte is an empty stream under any format.
    if (opt.format == SocketSourceOptions::Format::kBinary &&
        !(csvBuf.empty() && csvEof)) {
      failConn();  // binary required, but this is no v2 handshake
      return;
    }
    state = State::kCsv;
  }

  /// Binary handshake after the router's identity prefix: table length,
  /// path table, then the resume reply.
  void readTable() {
    std::uint8_t sizeBuf[8];
    std::size_t got = 0;
    if (conn.readExact(sizeBuf, sizeof(sizeBuf), got, opt.readTimeoutMs) !=
        IoStatus::kOk) {
      failConn();
      return;
    }
    const std::uint64_t tableBytes = le64(sizeBuf);
    if (tableBytes > kSocketMaxTableBytes) {
      failConn();
      return;
    }
    std::vector<std::uint8_t> table(static_cast<std::size_t>(tableBytes));
    if (conn.readExact(table.data(), table.size(), got, opt.readTimeoutMs) !=
        IoStatus::kOk) {
      failConn();
      return;
    }
    try {
      Deserializer des(table);
      const std::size_t paths = des.count(sizeof(std::uint64_t));
      fileIdToNode.clear();
      fileIdToNode.reserve(paths);
      for (std::size_t i = 0; i < paths; ++i) {
        const NodeId node = hierarchy.find(des.str());
        if (node == kInvalidNode) ++unresolved;
        fileIdToNode.push_back(node);
      }
      Deserializer::require(des.atEnd(),
                            "socket handshake: trailing table bytes");
    } catch (const SnapshotError&) {
      failConn();  // table framing corrupt — connection-level, no throw
      return;
    }
    // Answer with the replay point before any frame flows, so the client
    // knows which prefix to skip. Only a named stream has one.
    const Timestamp replay = resumable() ? committedTime : kSocketNoCommit;
    std::uint8_t reply[12];
    putLe32(reply, kSocketResumeOk);
    putLe64(reply + 4, static_cast<std::uint64_t>(replay));
    if (!conn.writeAll(reply, sizeof(reply), opt.readTimeoutMs)) {
      failConn();
      return;
    }
    if (replay != kSocketNoCommit) {
      resumeCount.fetch_add(1, std::memory_order_relaxed);
    }
    state = State::kBinary;
  }

  /// Read and decode one record frame. Sets kDone at the end-of-stream
  /// marker or a clean EOF (anonymous streams); a resumable stream
  /// treats every EOS-less connection end as a crash and awaits the
  /// reconnect instead.
  void pullBinaryFrame(std::size_t& skipped) {
    std::uint8_t prefix[4];
    std::size_t have = 0;
    while (have < sizeof(prefix)) {
      std::size_t got = 0;
      // Between frames the stream is just idle (bounded wait, yielding);
      // a stall inside the prefix is truncation.
      const IoStatus st =
          have == 0 ? readIdle(prefix, sizeof(prefix), got)
                    : conn.readSome(prefix + have, sizeof(prefix) - have, got,
                                    opt.readTimeoutMs);
      if (st == IoStatus::kOk) {
        have += got;
        continue;
      }
      if (st == IoStatus::kEof && have == 0) {
        if (resumable()) {
          failConn();  // no EOS: presumed crashed, await the reconnect
        } else {
          endClean();  // frame boundary is a legal end of stream
        }
        return;
      }
      if (st == IoStatus::kTimeout && have == 0 && !idlePatienceExhausted()) {
        return;  // no prefix byte consumed: the frame read resumes later
      }
      failConn();  // timeout, reset, or EOF inside the prefix
      return;
    }
    const std::uint32_t count = le32(prefix);
    if (count == 0) {
      endClean();  // explicit end-of-stream marker
      return;
    }
    if (count > kSocketMaxFrameRecords) {
      failConn();
      return;
    }
    frame.resize(static_cast<std::size_t>(count) * kRecordBytes);
    std::size_t got = 0;
    if (conn.readExact(frame.data(), frame.size(), got, opt.readTimeoutMs) !=
        IoStatus::kOk) {
      failConn();  // truncated frame (peer died or stalled mid-frame)
      return;
    }
    const std::uint8_t* rec = frame.data();
    const std::size_t tableSize = fileIdToNode.size();
    for (std::uint32_t i = 0; i < count; ++i, rec += kRecordBytes) {
      const std::uint32_t fileId = le32(rec);
      const auto time = static_cast<Timestamp>(le64(rec + 4));
      if (fileId >= tableSize) {
        // A file-id the handshake never announced means the framing is
        // desynchronized; records decoded before it are still delivered.
        failConn();
        return;
      }
      const NodeId node = fileIdToNode[fileId];
      if (node == kInvalidNode || time < lastTime) {
        if (!noteJunk(skipped)) return;
        continue;
      }
      lastTime = time;
      emit(Record{node, time});
    }
  }

  void handleCsvLine(std::string_view line, std::size_t& skipped) {
    if (line.empty() || state == State::kDone) return;
    std::string_view pathField;
    Timestamp t = 0;
    if (!parseCsvTraceRow(line, quotedScratch, pathField, t)) {
      noteJunk(skipped);
      return;
    }
    const NodeId node = pathCache.resolve(pathField);
    if (node == kInvalidNode || t < lastTime) {
      noteJunk(skipped);
      return;
    }
    lastTime = t;
    emit(Record{node, t});
  }

  /// Consume buffered CSV lines, reading more from the socket as needed,
  /// until at least one record is pending or the stream ends.
  void pullCsv(std::size_t& skipped) {
    for (;;) {
      for (;;) {
        const std::size_t nl = csvBuf.find('\n', csvPos);
        if (nl == std::string::npos) break;
        handleCsvLine(
            std::string_view(csvBuf).substr(csvPos, nl - csvPos), skipped);
        if (state != State::kCsv) return;  // junk budget tripped
        csvPos = nl + 1;
      }
      csvBuf.erase(0, csvPos);
      csvPos = 0;
      if (!pending.empty()) return;
      if (csvEof) {
        // A final line without a trailing newline still counts, like
        // CsvSource's file reader.
        if (!csvBuf.empty()) {
          handleCsvLine(csvBuf, skipped);
          csvBuf.clear();
          if (state != State::kCsv) return;
        }
        endClean();
        return;
      }
      if (csvBuf.size() > kSocketMaxCsvLineBytes) {
        failConn();  // a megabyte with no newline is not a CSV row
        return;
      }
      std::size_t got = 0;
      const IoStatus st = readIdle(readBuf.data(), readBuf.size(), got);
      if (st == IoStatus::kOk) {
        csvBuf.append(readBuf.data(), got);
      } else if (st == IoStatus::kEof) {
        csvEof = true;
      } else if (st == IoStatus::kTimeout && !idlePatienceExhausted()) {
        return;  // between rows: buffered bytes keep, the pull resumes
      } else {
        failConn();  // idle past the timeout, or the socket errored
        return;
      }
    }
  }
};

SocketSource::SocketSource(std::shared_ptr<StreamRouter> router,
                           std::size_t slot, const Hierarchy& hierarchy,
                           SocketSourceOptions options)
    : impl_(std::make_unique<Impl>(std::move(router), slot, hierarchy,
                                   std::move(options))) {}

SocketSource::~SocketSource() = default;

std::size_t SocketSource::protocolErrors() const {
  return impl_->protocolErrors;
}

std::size_t SocketSource::unresolvedPaths() const {
  return impl_->unresolved;
}

std::size_t SocketSource::reconnects() const {
  return impl_->reconnectCount.load(std::memory_order_relaxed);
}

std::size_t SocketSource::resumes() const {
  return impl_->resumeCount.load(std::memory_order_relaxed);
}

void SocketSource::noteResumePoint(Timestamp time) {
  Impl& im = *impl_;
  if (time > im.committedTime) {
    im.committedTime = time;
    im.lastTime = std::max(im.lastTime, time);
  }
}

bool SocketSource::idle() const {
  return impl_->state != Impl::State::kDone;
}

std::size_t SocketSource::nextBatch(std::vector<Record>& out,
                                    std::size_t max) {
  out.clear();
  Impl& im = *impl_;
  while (out.size() < max) {
    // Never touch the network while already holding deliverable records:
    // a live stream that hasn't ended must not starve the caller of what
    // it has (the engine's first unit would otherwise wait for a full
    // chunk that an open-ended stream never accumulates).
    if (im.pendingPos >= im.pending.size() && !out.empty()) break;
    const Impl::Pull pull = im.fillPending(skipped_);
    if (pull != Impl::Pull::kData) break;  // stream ended or merely idle
    const std::size_t take =
        std::min(max - out.size(), im.pending.size() - im.pendingPos);
    out.insert(out.end(), im.pending.begin() + im.pendingPos,
               im.pending.begin() + im.pendingPos + take);
    im.pendingPos += take;
  }
  return out.size();
}

std::vector<std::uint8_t> encodeSocketHandshakeV2(
    const std::vector<std::string>& paths, const std::string& streamName,
    std::uint64_t resumeToken) {
  Serializer table;
  table.u64(paths.size());
  for (const std::string& p : paths) table.str(p);
  const std::size_t nameLen = streamName.size();
  std::vector<std::uint8_t> out(28 + nameLen + table.size());
  putLe32(out.data(), kSocketStreamMagic);
  putLe32(out.data() + 4, kSocketStreamVersion2);
  putLe32(out.data() + 8, static_cast<std::uint32_t>(nameLen));
  std::memcpy(out.data() + 12, streamName.data(), nameLen);
  putLe64(out.data() + 12 + nameLen, resumeToken);
  putLe64(out.data() + 20 + nameLen, table.size());
  std::memcpy(out.data() + 28 + nameLen, table.data().data(), table.size());
  return out;
}

void appendSocketFrame(std::vector<std::uint8_t>& out, const Record* records,
                       std::size_t count) {
  std::uint8_t scratch[kRecordBytes];
  putLe32(scratch, static_cast<std::uint32_t>(count));
  out.insert(out.end(), scratch, scratch + 4);
  for (std::size_t i = 0; i < count; ++i) {
    putLe32(scratch, records[i].category);
    putLe64(scratch + 4, static_cast<std::uint64_t>(records[i].time));
    out.insert(out.end(), scratch, scratch + kRecordBytes);
  }
}

void appendSocketEndOfStream(std::vector<std::uint8_t>& out) {
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  out.insert(out.end(), zero, zero + 4);
}

bool readSocketResumeReply(net::TcpConn& conn, int timeoutMs,
                           SocketResumeReply& out) {
  std::uint8_t buf[12];
  std::size_t got = 0;
  if (conn.readExact(buf, sizeof(buf), got, timeoutMs) != IoStatus::kOk) {
    return false;
  }
  out.status = le32(buf);
  out.committedTime = static_cast<Timestamp>(le64(buf + 4));
  return true;
}

}  // namespace tiresias
