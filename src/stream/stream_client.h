// StreamClient — the one TSRS client: what `tiresias_cli send` runs and
// every in-process client (the chaos test, the socket tests) drives.
//
// One attempt is open() (connect, v2 handshake whose path table is the
// hierarchy's own paths, so fileId == NodeId, then the resume reply),
// push() (frames, dropping records before the committed time) and
// finish() (end-of-stream, half-close). A client dropped after push()
// without finish() is a mid-stream disconnect. send() runs attempts under
// the retry policy, reopening the trace before each connect (an
// unreadable trace must not cost the server a connection): transient
// failures are retried after a jittered exponential backoff; a fatal
// reply or an unreadable trace ends the send at once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/tcp.h"
#include "stream/socket_source.h"
#include "stream/source.h"

namespace tiresias {

/// Opens the trace afresh for each attempt. Null when it cannot be opened;
/// the factory reports why.
using RecordSourceFactory = std::function<std::unique_ptr<RecordSource>()>;

/// A factory replaying `records` (time-ordered) from the start each time.
RecordSourceFactory replayRecords(std::vector<Record> records);

struct StreamClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// The logical stream to feed; empty opens an anonymous stream.
  std::string streamName;
  /// Sent in the handshake (informational) and the backoff jitter's seed,
  /// so concurrent retrying clients spread out.
  std::uint64_t token = 0;
  /// Bound on the connect and on every read and write.
  int timeoutMs = 30'000;
  /// Records per frame.
  std::size_t frameRecords = 4096;
  /// send(): transient failures retried, and the first retry's delay
  /// ceiling, which doubles per retry up to StreamClient::kMaxBackoffMs.
  long long retries = 0;
  long long backoffMs = 200;
};

/// Outcome of one step or of a whole send().
enum class SendStatus : std::uint8_t {
  kOk,
  kTransient,      // no connection, connection lost or no reply: retryable
  kUnknownStream,  // fatal reply: the server serves no stream of that name
  kStreamEnded,    // fatal reply: the stream (every anonymous one) ended
  kBadTrace,       // the trace could not be opened or read
};

class StreamClient {
 public:
  static constexpr long long kMaxBackoffMs = 10'000;

  /// The delay before retry `attempt` (1-based): uniform in [base/2, base]
  /// with base = backoffMs * 2^(attempt-1), capped at kMaxBackoffMs.
  static long long backoffDelayMs(long long backoffMs, long long attempt,
                                  std::mt19937_64& rng);

  /// The handshake path table for `h`: path i is NodeId i.
  static std::vector<std::string> pathTable(const Hierarchy& h);

  StreamClient(const Hierarchy& hierarchy, StreamClientOptions options);

  /// kOk only for a kSocketResumeOk reply.
  SendStatus open();
  /// kBadTrace when the source throws persist::SnapshotError.
  SendStatus push(RecordSource& source);
  SendStatus finish();

  /// Attempts of open → push(trace()) → finish under the retry policy.
  /// `note` hears each retry and each resumed retry.
  SendStatus send(const RecordSourceFactory& trace,
                  const std::function<void(const std::string&)>& note = {});

  /// The last reply (kSocketNoCommit committed time before any).
  const SocketResumeReply& reply() const { return reply_; }
  /// Records the current attempt wrote, and those it dropped because the
  /// server had already committed them.
  std::uint64_t sent() const { return sent_; }
  std::uint64_t resumeSkipped() const { return resumeSkipped_; }
  /// The trace's own skipped rows, after a push that read it to the end.
  std::size_t traceSkipped() const { return traceSkipped_; }
  /// Why the last step failed. Empty for a kBadTrace from the factory.
  const std::string& error() const { return error_; }

 private:
  SendStatus lost(std::string what);

  StreamClientOptions opt_;
  std::vector<std::uint8_t> hello_;  // the handshake, the same every attempt
  net::TcpConn conn_;
  SocketResumeReply reply_;
  std::vector<Record> batch_, keep_;
  std::vector<std::uint8_t> wire_;
  std::uint64_t sent_ = 0;
  std::uint64_t resumeSkipped_ = 0;
  std::size_t traceSkipped_ = 0;
  std::string error_;
};

}  // namespace tiresias
