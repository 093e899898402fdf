// Socket-fed record ingest: the serving surface's input side.
//
// A SocketSource is a RecordSource whose records arrive over TCP instead
// of a file, so a registered engine stream can sit in front of live
// traffic while everything downstream (TimeUnitBatcher, scheduler
// backpressure, checkpointing, metrics) stays unchanged. Connections come
// only from a StreamRouter slot; the router sniffs each one and decides
// its format, so the source only decodes. Two wire formats:
//
//   binary ("TSRS" stream framing — the `.tsrb` record encoding, framed
//   for a stream that has no length up front), one handshake version:
//     handshake:  magic "TSRS" u32 | version u32 (=2) | nameLen u32 |
//                 name bytes | resumeToken u64 | tableBytes u64 | table.
//                 The table is in TSNP Serializer framing (u64 pathCount,
//                 then pathCount × str), identical to a `.tsrb` file's
//                 table; a path's file-id is its index. A non-empty name
//                 binds the connection to a logical stream, so a
//                 reconnecting client resumes *its* stream; an empty name
//                 is an anonymous, positional stream. The router consumes
//                 everything up to and including resumeToken, so the
//                 source starts reading at tableBytes.
//     reply:      after the table the server always answers with 12
//                 bytes: status u32 (0 ok, 1 unknown stream, 2 stream
//                 already ended — for an empty name, every anonymous
//                 stream; the router sends 1 and 2 right after the name
//                 and closes) |
//                 committedTime i64 — the earliest timestamp the server
//                 still needs; the client skips everything before it
//                 (kSocketNoCommit = nothing committed, always the answer
//                 on an anonymous stream).
//     frames:     u32 count | count × { u32 fileId, i64 timestamp }
//                 (12 bytes per record, little-endian, same as `.tsrb`
//                 blocks). count == 0 is the explicit end-of-stream
//                 marker; a clean EOF at a frame boundary also ends an
//                 anonymous stream or awaits a reconnect (named streams).
//     The version-1 handshake (no name, token or reply) is no longer
//     accepted: under kAuto its bytes are read as CSV junk rows, under
//     kBinary it is a protocol error.
//   csv: newline-separated "<category-path>,<timestamp>" rows, exactly
//     CsvSource's accept/skip semantics (shared parseCsvTraceRow +
//     PathCache), so `nc server port < trace.csv` just works. The sniff
//     requires all eight magic+version bytes to match, so a CSV row that
//     merely starts with the literal "TSRS" is CSV.
//
// Hardening (the engine's ingest loop has no exception handling and
// TIRESIAS_EXPECT aborts, so network input must never reach either):
//   - nextBatch() never throws: every structural problem — bad magic or
//     version, an implausible table/frame size, a truncated frame, a
//     file-id outside the table, a read timeout, a CSV line past the
//     length cap — drops the connection cleanly and counts it in
//     protocolErrors(); a non-resumable source then reports end of
//     stream, a resumable one waits for the named client to reconnect
//     (until its protocol-error budget runs out).
//   - record-level junk — unresolvable paths, rows CsvSource would skip,
//     and records whose timestamp runs backwards (the batcher requires
//     non-decreasing time; a misbehaving client must not abort the
//     server) — is skipped and counted in skippedRecords(), never fatal.
//     An optional per-connection junk budget drops clients that are
//     clearly streaming garbage.
//   - all reads retry EINTR, handle partial delivery, and are bounded by
//     a per-connection timeout; SIGPIPE is ignored process-wide.
//
// Resume correctness (bit-identical replay across reconnects and
// restarts) comes from unit-granular commits: with `unitDelta` set, a
// resumable source holds the records of the current — possibly still
// incomplete — timeunit in a staging buffer and only releases whole
// units downstream. committedTime is always the start of the staged
// unit, so on a disconnect the staged partial is discarded and the
// reconnecting client re-sends exactly from the commit point: no record
// is delivered twice, none is lost. After a crash + `--restore`, the
// engine seeds committedTime with the pipeline's resume position
// (noteResumePoint), closing the same loop across process restarts.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "net/tcp.h"
#include "stream/source.h"

namespace tiresias {

class StreamRouter;

/// "TSRS": the stream variant of the "TSRB" trace magic.
inline constexpr std::uint32_t kSocketStreamMagic = 0x53525354;
/// The one handshake version: stream name, resume token, resume reply.
inline constexpr std::uint32_t kSocketStreamVersion2 = 2;
/// Per-frame record ceiling (16 MiB payload), same bound as a `.tsrb`
/// block: a corrupted count must never drive the frame buffer allocation.
inline constexpr std::uint32_t kSocketMaxFrameRecords = 1u << 20;
/// Handshake path-table ceiling. Unlike a file there is no size to check
/// against, so the bound is explicit (64 MiB of paths is far beyond any
/// real hierarchy).
inline constexpr std::uint64_t kSocketMaxTableBytes = std::uint64_t{64}
                                                      << 20;
/// Stream-name ceiling: a name is an identifier, not a payload.
inline constexpr std::uint32_t kSocketMaxStreamNameBytes = 256;
/// CSV mode: a line longer than this (no newline in 1 MiB) is structural
/// corruption, not a record.
inline constexpr std::size_t kSocketMaxCsvLineBytes = std::size_t{1} << 20;

/// Resume-reply status codes.
inline constexpr std::uint32_t kSocketResumeOk = 0;
inline constexpr std::uint32_t kSocketResumeUnknownStream = 1;
inline constexpr std::uint32_t kSocketResumeStreamEnded = 2;
/// committedTime sentinel: the server has committed nothing yet — send
/// the stream from the beginning.
inline constexpr Timestamp kSocketNoCommit =
    std::numeric_limits<Timestamp>::min();

struct SocketSourceOptions {
  enum class Format : std::uint8_t { kAuto = 0, kCsv, kBinary };
  /// Wire format. kAuto takes each connection as the router sniffed it:
  /// binary for a v2 handshake, CSV for anything else. kBinary fails a
  /// connection the router did not see as binary; kCsv reads every
  /// connection as CSV (set the router's format to match).
  Format format = Format::kAuto;
  /// Bound on every blocking step: the wait for a connection, each read.
  /// A connection idle past this is considered dead and dropped (protocol
  /// error).
  int readTimeoutMs = 30'000;
  /// Timeunit width for resumable streams (> 0 enables unit-granular
  /// commit staging; must match the stream's pipeline delta). 0 = deliver
  /// records as they decode (non-resumable behavior).
  Duration unitDelta = 0;
  /// The stream name of the router slot this source serves. Non-empty
  /// marks the source *resumable*: a lost connection waits for the named
  /// client to reconnect instead of ending the stream.
  std::string streamName;
  /// Resumable streams: how many connection-scoped protocol errors (and
  /// EOS-less disconnects) to survive before giving the stream up.
  std::size_t protocolErrorBudget = 16;
  /// When > 0, a connection whose skipped-record count passes this budget
  /// is dropped as a protocol error (a client streaming garbage at volume
  /// is indistinguishable from a framing bug). 0 = unlimited.
  std::size_t junkBudgetPerConn = 0;
  /// Bound (ms) on how long one nextBatch() pull may block while the
  /// stream is merely idle — waiting for a connection, a reconnect, or
  /// the next frame. Past it the pull returns what it has (possibly
  /// nothing, with idle() true), so the engine's ingest sweep stays
  /// responsive to checkpoint quiesce while the stream waits. Contiguous
  /// idleness still accumulates against readTimeoutMs, which keeps the
  /// overall give-up semantics. <= 0 disables the bound (a pull blocks up
  /// to readTimeoutMs, the pre-idle behavior). next() always blocks until
  /// a record or end of stream regardless (it retries while idle()).
  int pullIdleMs = 200;
};

class SocketSource final : public RecordSource {
 public:
  /// Serve connections routed to `slot` of a StreamRouter, lazily, from
  /// the first pull. With options.streamName set (the slot's name) the
  /// source is resumable: every reconnect of that named stream lands back
  /// here.
  SocketSource(std::shared_ptr<StreamRouter> router, std::size_t slot,
               const Hierarchy& hierarchy, SocketSourceOptions options = {});
  ~SocketSource() override;

  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;

  /// Record-level junk: unknown categories, junk CSV rows, out-of-order
  /// timestamps. Same meaning as CsvSource/BinarySource accounting.
  std::size_t skippedRecords() const override { return skipped_; }

  /// True while the stream can still produce records: an empty nextBatch
  /// was a bounded idle wait expiring (see pullIdleMs), not the end.
  bool idle() const override;

  /// Resumable sources: the engine calls this (before the first pull)
  /// with the pipeline's restore position so a client reconnecting after
  /// a crash + --restore is told to skip the already-processed prefix.
  void noteResumePoint(Timestamp time) override;

  /// Structural failures that ended (or, on a resumable stream,
  /// interrupted) a connection: framing corruption, timeouts, truncation,
  /// no connection within readTimeoutMs. 0 after a clean end of stream.
  std::size_t protocolErrors() const;
  /// Handshake table paths that did not resolve against the reader's
  /// hierarchy (records referencing them land in skippedRecords()).
  std::size_t unresolvedPaths() const;
  /// Connections received beyond the first (live gauges read these from
  /// other threads, hence atomics underneath).
  std::size_t reconnects() const;
  /// Handshakes answered with a real committed position (the client
  /// actually had a prefix to skip).
  std::size_t resumes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t skipped_ = 0;
};

/// Client-side framing helpers, used by StreamClient (stream_client.h) and
/// by tests that write malformed bytes or a custom table. Records'
/// `category` field is the file-id — the index into the handshake path
/// list. An empty `streamName` opens an anonymous stream.
std::vector<std::uint8_t> encodeSocketHandshakeV2(
    const std::vector<std::string>& paths, const std::string& streamName,
    std::uint64_t resumeToken);
void appendSocketFrame(std::vector<std::uint8_t>& out, const Record* records,
                       std::size_t count);
void appendSocketEndOfStream(std::vector<std::uint8_t>& out);

/// The server's answer to a handshake.
struct SocketResumeReply {
  std::uint32_t status = 0;
  Timestamp committedTime = kSocketNoCommit;
};
/// Read the 12-byte resume reply. False on timeout, EOF, or error.
bool readSocketResumeReply(net::TcpConn& conn, int timeoutMs,
                           SocketResumeReply& out);

}  // namespace tiresias
