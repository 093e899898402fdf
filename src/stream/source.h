// Record sources: the abstraction the detectors pull operational data from.
//
// A RecordSource yields time-ordered records. VectorSource replays an
// in-memory trace; CsvSource streams a trace file (category-path,timestamp);
// sources produced by workload generators live in src/workload.
//
// Every source implements one pull, nextBatch(): it appends up to `max`
// records into a caller-owned buffer, so the ingest loop is non-virtual
// per record and allocation-free (buffers are reused across calls).
// next() is a one-record convenience built on it, for tests and tools.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stream/record.h"

namespace tiresias {

class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Pull up to `max` records (max > 0) into `out`, clearing it first but
  /// keeping its capacity, in non-decreasing time order. Returns
  /// out.size(); 0 means end of stream, unless idle() is true.
  virtual std::size_t nextBatch(std::vector<Record>& out,
                                std::size_t max) = 0;

  /// Next record, or nullopt at end of stream: nextBatch(…, 1), retried
  /// while idle(), so a live source blocks until a record or the end.
  /// Nothing in src/ overrides it; it stays virtual only for the
  /// forwarding wrappers under benchmark/ that still mark it `override`.
  virtual std::optional<Record> next();

  /// Rows the source consumed but could not turn into records (junk lines,
  /// unknown categories). Operational traces contain garbage; consumers
  /// surface this through RunSummary / EngineStats instead of dropping it
  /// silently. In-memory sources have nothing to skip.
  virtual std::size_t skippedRecords() const { return 0; }

  /// True when the last pull returned nothing because the stream is
  /// merely waiting for more input (a live socket between connections or
  /// frames), not because it ended. Callers that must stay responsive —
  /// the engine's ingest sweep, which parks for checkpoint quiesce
  /// between pulls — treat an empty pull with idle() true as "try again
  /// later" instead of end of stream. Replay sources are never idle.
  virtual bool idle() const { return false; }

  /// Restore hand-off: the engine calls this before the first pull with
  /// the pipeline's resume position (the start of the first timeunit it
  /// still needs). Sources that negotiate with a live producer — a
  /// resumable SocketSource telling its reconnecting client which prefix
  /// to skip — use it; replay sources ignore it (the batcher already
  /// drops the processed prefix).
  virtual void noteResumePoint(Timestamp /*time*/) {}
};

/// Path→NodeId resolution cache shared by every source that reads textual
/// category paths (file CSV, CSV-over-TCP): probes with the raw field
/// bytes (transparent hash, no key materialization on hits) and caches
/// misses too, so junk categories are as cheap as real ones. Capped —
/// operational junk is unbounded — with lookups past the cap falling back
/// to the tree walk, which stays correct. Hit accounting is exposed so
/// tests can assert repeated rows actually go through the cache.
class PathCache {
 public:
  /// Entries are cheap (path bytes + 4-byte id) but stop inserting past
  /// this many distinct paths.
  static constexpr std::size_t kCap = std::size_t{1} << 20;

  explicit PathCache(const Hierarchy& hierarchy) : hierarchy_(hierarchy) {}

  NodeId resolve(std::string_view rawPath);

  std::size_t size() const { return map_.size(); }
  std::size_t hits() const { return hits_; }

 private:
  /// Transparent hash so the cache can be probed with string_view.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  const Hierarchy& hierarchy_;
  std::unordered_map<std::string, NodeId, Hash, std::equal_to<>> map_;
  std::size_t hits_ = 0;
};

/// Replays a vector of records. Verifies time ordering on construction.
class VectorSource final : public RecordSource {
 public:
  explicit VectorSource(std::vector<Record> records);

  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;

 private:
  std::vector<Record> records_;
  std::size_t pos_ = 0;
};

/// Streams records from a CSV file with rows "<category-path>,<timestamp>".
/// Category paths are resolved against the given hierarchy; unknown paths
/// are counted and skipped (operational traces contain junk rows).
///
/// Rows are read in chunks and split in place (plain rows need no copy;
/// see parseCsvTraceRow), and paths resolve through a per-source PathCache
/// keyed on the raw field bytes: repeated categories, the overwhelmingly
/// common case in operational traces, skip both the path split and the
/// tree walk. Unknown paths are cached too, so junk rows are cheap as
/// well. The constructor throws persist::SnapshotError when the file
/// cannot be opened.
class CsvSource final : public RecordSource {
 public:
  CsvSource(std::string path, const Hierarchy& hierarchy);
  ~CsvSource() override;

  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;

  std::size_t skippedRecords() const override { return skipped_; }

  /// Path-cache observability, for tests asserting repeated rows hit the
  /// resolution cache.
  std::size_t pathCacheSize() const;
  std::size_t pathCacheHits() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t skipped_ = 0;
};

/// Writes records as CSV ("<category-path>,<timestamp>") for interchange.
void writeRecordsCsv(const std::string& path, const Hierarchy& hierarchy,
                     const std::vector<Record>& records);

/// Parse one CSV trace row ("<category-path>,<timestamp>") with exactly
/// CsvSource's accept/skip semantics (shared by CsvSource and the
/// binary-trace converter, so both make identical junk decisions): the
/// row must split (csvSplit rules) into exactly two fields, and strtoll
/// must consume the whole timestamp field, up to any embedded NUL.
/// Returns false for junk rows. On success `path` views into `line` or
/// into `quotedScratch` (valid until either changes).
bool parseCsvTraceRow(std::string_view line,
                      std::vector<std::string>& quotedScratch,
                      std::string_view& path, Timestamp& time);

}  // namespace tiresias
