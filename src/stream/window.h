// Timeunit batching (Step 1 of the paper's pipeline, Fig 3(b)).
//
// A TimeUnitBatcher pulls time-ordered records from a RecordSource and
// groups them into consecutive fixed-size timeunits of length Δ, emitting
// empty batches for quiet units (a zero count is a real observation for the
// forecasting models, not missing data). The sliding-window bookkeeping
// (ℓ history units, increment ς) lives in the detectors; the paper's
// ς < Δ case is handled by batching at resolution ς and aggregating with
// timeseries::MultiScaleSeries (§V-B6).
//
// The batcher is built on RecordSource::nextBatch: it pulls records in
// chunks into a reused buffer and slices unit boundaries with plain
// timestamp comparisons (one precomputed boundary per unit — no per-record
// division, no per-record virtual call). next(TimeUnitBatch&) reuses the
// caller's batch storage; the optional-returning next() is a convenience
// wrapper for callers that want fresh batches.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "persist/snapshot.h"
#include "stream/source.h"

namespace tiresias {

struct TimeUnitBatch {
  TimeUnit unit = 0;  // index: records fall in [unit*delta, (unit+1)*delta)
  std::vector<Record> records;
  /// Monotonic stamp (ns) set by the engine when the unit is enqueued for
  /// processing; 0 when untracked. Only deltas against monotonicNanos()
  /// are meaningful — the metrics layer turns enqueue -> processed into
  /// the end-to-end unit-latency histogram. Not persisted.
  std::int64_t enqueueNs = 0;
};

class TimeUnitBatcher {
 public:
  /// Records pulled from the source per nextBatch call.
  static constexpr std::size_t kDefaultChunk = 4096;

  /// Batches `source` into units of `delta` seconds. The first emitted unit
  /// is the one containing `startTime` (leading records before it are
  /// dropped and counted in droppedRecords()).
  TimeUnitBatcher(RecordSource& source, Duration delta, Timestamp startTime,
                  std::size_t chunkSize = kDefaultChunk);

  /// One pull outcome: a unit was emitted, the source is transiently
  /// idle (no unit ready *yet* — see RecordSource::idle()), or the
  /// source is exhausted and everything buffered has been delivered.
  enum class Pull : std::uint8_t { kUnit, kIdle, kEnd };

  /// Fills `out` with the next timeunit in sequence (possibly with no
  /// records), reusing out.records' capacity. kIdle parks any partial
  /// unit internally and leaves `out` empty: the caller may run other
  /// work (the engine uses this window for checkpoint quiesce) and pull
  /// again; the unit resumes where it stopped.
  Pull pull(TimeUnitBatch& out);

  /// pull() with kIdle retried until a unit or the end: false once the
  /// source is exhausted and all buffered records are delivered.
  bool next(TimeUnitBatch& out);

  /// Convenience wrapper around next(TimeUnitBatch&) returning a fresh
  /// batch per unit; nullopt at end of stream.
  std::optional<TimeUnitBatch> next();

  /// True when the next pull() will return a unit without calling the
  /// source: the read-ahead chunk holds a record at or past the end of the
  /// next unit, so every record of that unit is already buffered. False
  /// before the first pull, while an idle pull has a partial unit parked,
  /// and when the chunk ends inside the next unit (its close needs a pull).
  bool nextUnitBuffered() const;

  Duration delta() const { return delta_; }
  std::size_t droppedRecords() const { return dropped_; }
  /// Records pulled from the source so far (delivered + dropped + still
  /// buffered in the read-ahead chunk). A resumable source can be
  /// repositioned past exactly this many records before loadState().
  std::size_t consumedRecords() const { return consumed_; }

  /// Snapshot the batching position: the next unit index, drop/consume
  /// accounting, and the read-ahead records pulled from the source but not
  /// yet emitted.
  void saveState(persist::Serializer& out) const;
  /// Restore onto a batcher whose source continues exactly where the
  /// saved batcher's source stopped (i.e. positioned `consumedRecords()`
  /// records in). Throws persist::SnapshotError on malformed input or a
  /// delta mismatch.
  void loadState(persist::Deserializer& in);

 private:
  enum class Refill : std::uint8_t { kData, kIdle, kEnd };

  /// Pulls the next chunk; kIdle on an empty pull from a source that is
  /// merely waiting, kEnd once it is exhausted.
  Refill refill();

  RecordSource& source_;
  Duration delta_;
  TimeUnit nextUnit_;
  std::vector<Record> chunk_;
  std::size_t chunkPos_ = 0;
  std::size_t chunkSize_;
  /// Records of the in-progress unit parked by a kIdle pull (already
  /// consumed from chunk_, not yet emitted).
  std::vector<Record> carry_;
  bool begun_ = false;  // pre-start records are only dropped up front
  bool sourceDone_ = false;
  std::size_t dropped_ = 0;
  std::size_t consumed_ = 0;  // total records pulled from the source
};

}  // namespace tiresias
