// DetectionEngine — concurrent multi-stream detection (the operational
// deployment the paper describes: continuous detection over many
// independent operational streams — per-dataset, per-region, per-hierarchy
// — on shared hardware).
//
// Architecture: a task-scheduled executor (engine::Scheduler). Each stream
// (a RecordSource paired with its own Hierarchy + TiresiasPipeline) owns a
// FIFO queue of timeunits; two thread pools, sized independently, move
// work through it:
//
//   ingest pool  — `ingestThreads` threads; streams are partitioned
//                  statically across them (one producer per stream keeps
//                  source order). Each thread sweeps its streams
//                  round-robin, batching timeunits (Step 1,
//                  TimeUnitBatcher over RecordSource::nextBatch) into the
//                  stream's queue: one per visit, or under a resident cap
//                  a run of the units already buffered. A stream whose
//                  queue is full is skipped; a full global queued-unit
//                  bound parks the thread (backpressure), so memory stays
//                  bounded no matter how fast sources produce or how many
//                  streams are registered.
//   worker pool  — `workers` threads sharing the scheduler's ready queue.
//                  A worker claims a ready stream, advances its pipeline
//                  by at most `runBudget` units via
//                  TiresiasPipeline::processUnit, requeues it if backlog
//                  remains, and recycles batch buffers back to ingest
//                  (steady-state batching allocates nothing).
//
// A stream is owned by at most one worker at a time and its units arrive
// in source order, so an M-worker run is bit-identical to M=1 and to k
// sequential TiresiasPipeline::run calls (the equivalence the engine test
// asserts) — while a heavy or bursty stream can no longer stall streams
// that previously shared its shard, and thread count is decoupled from
// stream count. Results are delivered to a user sink tagged with the
// stream name; report::ConcurrentAnomalyStore is the ready-made
// thread-safe sink.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/pipeline.h"
#include "engine/scheduler.h"
#include "obs/metrics.h"
#include "persist/snapshot.h"
#include "stream/window.h"

namespace tiresias::engine {

struct EngineConfig {
  /// Worker pool size. 0 = one per hardware thread.
  std::size_t workers = 0;
  /// Ingest pool size; decoupled from `workers` (sources are usually far
  /// cheaper to batch than pipelines are to advance).
  std::size_t ingestThreads = 1;
  /// Max units a worker advances one stream by before requeueing it.
  /// Under a resident cap the engine raises it to streamQueueCapacity, so
  /// a woken stream drains what one ingest visit gave it in one claim.
  std::size_t runBudget = 8;
  /// Per-stream queue bound, in timeunits. Smaller values bound memory
  /// tighter but trigger backpressure earlier.
  std::size_t streamQueueCapacity = 16;
  /// Global bound on queued units across all streams (the memory cap that
  /// holds no matter how many streams are registered).
  std::size_t totalQueueCapacity = 1024;
  /// Per-stage latency histograms + gauge sampling (obs::MetricsRegistry).
  /// On by default: the record path is lock-free (< 2% overhead target,
  /// not yet resolved by a measurement; see bench_engine_throughput). Off
  /// = zero-cost (spans compile to one null-pointer branch).
  bool metrics = true;
  /// Gauge sampling period for the background sampler thread; 0 disables
  /// the sampler (stage histograms still record).
  std::size_t metricsSampleMillis = 50;
  /// Resident-stream cap for the hibernation paging layer. 0 = unlimited
  /// (no hibernation). When positive, at most this many streams keep live
  /// pipeline state in memory; colder streams (LRU by last-advanced unit)
  /// are evicted to hibernation snapshots and restored, bit-identically,
  /// on their next unit. Best-effort under concurrency: streams currently
  /// owned by a worker cannot be evicted, so the resident count can
  /// briefly exceed the cap by up to `workers`.
  std::size_t maxResidentStreams = 0;
  /// Where hibernation snapshots go. Empty = evicted state is kept as an
  /// in-memory serialized blob (still far smaller than the live detector);
  /// set = one snapshot file per stream under this directory (created on
  /// demand; a failed write falls back to the in-memory blob).
  std::string hibernateDir;
};

/// Live counters of one stream (a snapshot; the engine keeps atomics and
/// the scheduler's per-stream bookkeeping).
struct StreamStats {
  std::string name;
  std::size_t unitsIngested = 0;     // units pushed into the stream queue
  std::size_t unitsProcessed = 0;    // units consumed by the pipeline
  std::size_t unitsDiscarded = 0;    // units dropped by stop()
  std::size_t recordsProcessed = 0;
  std::size_t instancesDetected = 0;
  std::size_t anomaliesReported = 0;
  std::size_t junkRowsSkipped = 0;   // source-side skipped rows (CSV junk)
  std::size_t warmupUnitsBuffered = 0;  // units held in pipeline warm-up
  std::size_t queueDepth = 0;        // current
  std::size_t maxQueueDepth = 0;     // high-water mark
  std::size_t runs = 0;              // worker claims of this stream
  std::size_t requeues = 0;          // claims that left backlog behind
};

/// Checkpoint/restore counters. Written by checkpoint()/restoreFrom(),
/// read tear-free by stats() pollers (the engine guards them with a
/// seqlock over relaxed atomics, so a concurrent snapshot never mixes
/// fields of two different checkpoints).
struct CheckpointStats {
  std::size_t checkpoints = 0;    // completed checkpoint() calls
  std::size_t restores = 0;       // completed restoreFrom() calls
  std::size_t lastBytes = 0;      // encoded size of the last snapshot
  std::size_t lastUnits = 0;      // aggregate unitsProcessed it captured
  double lastSeconds = 0.0;       // duration of the last checkpoint
  double totalSeconds = 0.0;      // cumulative checkpoint time
};

struct EngineStats {
  std::vector<StreamStats> perStream;
  /// Executor-level counters (ready-queue depth, claims, requeues,
  /// global queued units, producer backpressure waits).
  SchedulerStats scheduler;
  std::size_t ingestThreads = 0;
  // Aggregates over all streams:
  std::size_t streams = 0;
  std::size_t unitsIngested = 0;
  std::size_t unitsProcessed = 0;
  std::size_t unitsDiscarded = 0;
  std::size_t recordsProcessed = 0;
  std::size_t instancesDetected = 0;
  std::size_t anomaliesReported = 0;
  std::size_t junkRowsSkipped = 0;
  /// Units absorbed by pipelines still in warm-up (streams shorter than
  /// the detector window never leave warm-up and report zero instances).
  std::size_t warmupUnitsBuffered = 0;
  /// Total resident detect-workspace bytes: the engine's per-worker pool.
  /// Scales with `workers`, not with the stream count.
  std::size_t workspaceBytes = 0;
  /// Distinct Hierarchy objects behind the registered streams (streams
  /// sharing a handle share one hierarchy's memory).
  std::size_t distinctHierarchies = 0;
  /// Residency: streams holding live pipeline state in memory vs. streams
  /// paged out to hibernation snapshots, and the paging traffic so far.
  std::size_t residentStreams = 0;
  std::size_t hibernatedStreams = 0;
  std::size_t hibernateEvictions = 0;
  std::size_t hibernateWakes = 0;
  std::size_t maxQueueDepth = 0;      // max over per-stream high-water marks
  std::size_t backpressureWaits = 0;  // == scheduler.backpressureWaits
  /// Units processed by the busiest stream, and its share of the total —
  /// 1/streams for a perfectly even mix, approaching 1.0 under heavy skew.
  std::size_t busiestStreamUnits = 0;
  double busiestStreamShare = 0.0;
  /// Checkpoint/restore counters and durations.
  CheckpointStats checkpoint;
  /// Per-stage latency percentiles and sampled gauges (empty with
  /// `enabled == false` when the engine runs with metrics off).
  obs::MetricsSnapshot metrics;
  /// Wall-clock seconds from start() until now (or until drain finished).
  double elapsedSeconds = 0.0;
  /// recordsProcessed / elapsedSeconds.
  double recordsPerSecond = 0.0;

  /// Queue lag: units ingested but not yet processed (nor discarded).
  std::size_t queueLagUnits() const {
    const std::size_t done = unitsProcessed + unitsDiscarded;
    return unitsIngested > done ? unitsIngested - done : 0;
  }
};

class DetectionEngine {
 public:
  /// Result delivery, called from worker threads (concurrently across
  /// streams — the sink must be thread-safe; ConcurrentAnomalyStore::sink()
  /// qualifies). May be null to discard results.
  using ResultSink =
      std::function<void(const std::string& stream, const InstanceResult&)>;

  DetectionEngine(EngineConfig config, ResultSink sink);
  /// Stops and joins outstanding threads.
  ~DetectionEngine();

  DetectionEngine(const DetectionEngine&) = delete;
  DetectionEngine& operator=(const DetectionEngine&) = delete;

  /// Register a stream before start(). The engine keeps the shared
  /// hierarchy handle alive for its own lifetime (streams registered with
  /// the same handle share one hierarchy's memory); the source is owned.
  /// Returns the stream id (dense, in registration order).
  std::size_t addStream(std::string name,
                        std::shared_ptr<const Hierarchy> hierarchy,
                        PipelineConfig config,
                        std::unique_ptr<RecordSource> source);

  std::size_t streamCount() const { return streams_.size(); }
  const std::string& streamName(std::size_t id) const;

  /// Launch the worker + ingest pools. Call once, after all addStream.
  void start();

  /// Block until every source is exhausted and every queue is drained,
  /// then stop the pools. Returns the final stats.
  EngineStats drain();

  /// Early shutdown: stop ingesting, discard queued work (the dropped
  /// units are counted in EngineStats::unitsDiscarded, not processed),
  /// join. Safe to call repeatedly or after drain().
  void stop();

  /// Live (or final) counters. Thread-safe: may be polled from any thread
  /// while the pools run, including concurrently with drain()/stop().
  EngineStats stats() const;

  /// A stream's cumulative pipeline summary (with the ingest-side junk-row
  /// count folded in). Must be called after drain()/stop() — calling it
  /// while the pools run would race the owning worker's pipeline, so it
  /// fails fast instead.
  RunSummary streamSummary(std::size_t id) const;

  /// Appends caller state (e.g. the anomaly store) into the snapshot's
  /// user section, inside the quiesced window, so it is atomically
  /// consistent with the pipeline state in the same file.
  using ExtraWriter = std::function<void(persist::Serializer&)>;
  using ExtraReader = std::function<void(persist::Deserializer&)>;

  /// Write a consistent snapshot of every stream's pipeline state and
  /// cumulative summary to `path` (write-to-temp + rename, so the
  /// published file is always complete). While the pools run this
  /// quiesces first: ingestion pauses and the workers drain every queued
  /// unit, so the snapshot sits on a unit boundary for every stream;
  /// processing resumes before the call returns. May be called from any
  /// thread, concurrently with drain()/stop() (a checkpoint racing stop()
  /// captures the post-discard state). Throws persist::SnapshotError on
  /// I/O failure.
  void checkpoint(const std::string& path, const ExtraWriter& extra = {});

  /// Load a checkpoint into this engine before start(). Every stream
  /// named in the snapshot must already be registered (addStream) with an
  /// identical configuration; its source should cover at least the
  /// not-yet-processed suffix — ingestion resumes at each pipeline's
  /// resumeTime(), so re-registering the same source from the beginning
  /// simply skips the already-processed prefix. Streams registered but
  /// absent from the snapshot start fresh. Junk-row counts restart at the
  /// checkpointed value plus whatever the new source skips. Returns the
  /// number of streams restored; throws persist::SnapshotError on
  /// mismatch or corruption.
  std::size_t restoreFrom(const std::string& path,
                          const ExtraReader& extra = {});

  /// Extra gauges recorded on every sampler pass (after the engine's own).
  /// Lets the embedder fold sources it owns — reconnect counters, shed
  /// connections, injected faults — into the same registry the stats
  /// endpoint serves. Called from the sampler thread; must be thread-safe
  /// and must not touch the engine. Set before start().
  using GaugeSampler = std::function<void(obs::MetricsRegistry&)>;
  void setGaugeSampler(GaugeSampler sampler) {
    gaugeSampler_ = std::move(sampler);
  }

 private:
  struct StreamState;

  void ingestLoop(std::size_t threadIndex);
  /// Parks the calling ingest thread while a checkpoint is quiescing.
  void maybePauseIngest();
  /// Worker-side unit processor (serialized per stream by the scheduler).
  /// Lends workspacePool_[workerIndex] to the stream for the duration of
  /// the call and wakes the stream first if it is hibernated.
  void processOne(std::size_t workerIndex, std::size_t id,
                  TimeUnitBatch& batch);
  /// Restore a hibernated stream's pipeline from its blob/file. Call with
  /// the stream's pageMu held and a workspace already attached.
  void wakeStream(std::size_t id, StreamState& stream);
  /// Serialize a stream's pipeline state and reset it to a shell. Call
  /// with the stream's pageMu held.
  void hibernateStream(std::size_t id, StreamState& stream);
  /// LRU bookkeeping after a stream advanced one unit (or was restored):
  /// marks it resident and most-recently-used.
  void noteAdvanced(std::size_t id, StreamState& stream);
  /// Evict least-recently-advanced streams (never `protectId`, never a
  /// stream a worker currently owns) until the resident count is within
  /// config_.maxResidentStreams. No-op when the cap is 0.
  void enforceResidentCap(std::size_t protectId);
  std::string hibernatePath(std::size_t id) const;
  /// Background gauge sampler (queue depths, workspace bytes, skew);
  /// one pass every metricsSampleMillis until stopped.
  void samplerLoop();
  void sampleGauges();
  void stopSampler();

  std::vector<Record> takeRecycled();
  void recycleBuffer(std::vector<Record>&& buf);

  EngineConfig config_;
  ResultSink sink_;
  /// Metrics registry (null when config.metrics is false). Created before
  /// the scheduler and destroyed after it — every span holds a plain
  /// pointer. Shards: [0] unbound, [1..W] workers, [W+1..W+I] ingest,
  /// [W+I+1] the sampler.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  GaugeSampler gaugeSampler_;
  std::vector<std::unique_ptr<StreamState>> streams_;
  /// Distinct hierarchies behind the streams, in first-registration order.
  /// Holding the handles here is what makes addStream's lifetime promise:
  /// a hierarchy outlives the engine even if the caller drops its copy.
  std::vector<std::shared_ptr<const Hierarchy>> hierarchies_;
  /// Identity index over hierarchies_ so registering 100k streams that
  /// share a handle stays O(1) per stream.
  std::unordered_set<const void*> hierarchyKeys_;
  std::unique_ptr<Scheduler> scheduler_;

  // Workspace pool: one DetectWorkspace per worker, lent to whichever
  // stream that worker is advancing (attach + generation bump per unit).
  // Resident scratch therefore scales with `workers`, not stream count.
  // poolBytes_[w] mirrors pool[w]->bytes(), written only by worker w after
  // it finishes a unit, so stats/sampler threads never touch a workspace
  // a worker might be rebinding.
  std::vector<std::shared_ptr<DetectWorkspace>> workspacePool_;
  std::vector<std::atomic<std::size_t>> poolBytes_;

  // Residency/paging state. residencyMu_ guards only the LRU list and the
  // per-stream inLru flags — never held across serialization. Eviction
  // claims a victim's pageMu with try_lock under residencyMu_ (a stream
  // mid-advance is simply skipped), then serializes outside residencyMu_.
  std::mutex residencyMu_;
  std::list<std::size_t> lru_;  // front = least recently advanced
  std::atomic<std::size_t> residentCount_{0};
  std::atomic<std::size_t> hibernatedCount_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> wakes_{0};
  std::vector<std::thread> ingestPool_;
  /// Gauge sampler thread (running iff registry_ and sample period > 0).
  std::thread sampler_;
  std::mutex samplerMutex_;
  std::condition_variable samplerCv_;
  bool samplerStop_ = false;
  std::atomic<bool> started_{false};
  std::atomic<bool> joined_{false};  // pools stopped; summaries are stable
  std::atomic<bool> stopRequested_{false};
  /// Serializes drain()/stop() against each other (they may be issued
  /// from different threads; the joins must not interleave). Note a
  /// stop() issued while drain() is blocked joining waits for the drain
  /// to finish — it cannot interrupt it.
  std::mutex controlMutex_;

  // Record buffers cycle ingest -> stream queue -> worker -> back to
  // ingest, so steady-state batching allocates nothing. Bounded: the pool
  // never holds more than what can be in flight.
  std::mutex recycleMutex_;
  std::vector<std::vector<Record>> recycle_;
  std::size_t recycleCap_ = 0;

  // Timing is read by concurrent stats() pollers while drain()/stop()
  // finalize it, so both values live in atomics (nanoseconds on the
  // steady clock). finalElapsedNs_ < 0 means "still running".
  std::atomic<std::int64_t> startNs_{0};
  std::atomic<std::int64_t> finalElapsedNs_{-1};

  /// Serializes checkpoint()/restoreFrom() against each other. Distinct
  /// from controlMutex_ on purpose: drain() holds controlMutex_ for its
  /// entire blocking join, and a periodic checkpointer must still be able
  /// to snapshot while the engine drains.
  std::mutex checkpointMutex_;

  // Ingest-pause handshake for the quiesce window: checkpoint() raises
  // the flag, each ingest thread parks on pauseCv_ and acks, and the
  // checkpointer waits until every live ingest thread is parked before
  // asking the scheduler to drain to a unit boundary.
  std::atomic<bool> ingestPauseFlag_{false};
  std::mutex pauseMutex_;
  std::condition_variable pauseCv_;      // paused ingest threads park here
  std::condition_variable pauseAckCv_;   // checkpointer waits for acks here
  bool ingestPaused_ = false;
  std::size_t activeIngest_ = 0;  // ingest threads that have not exited
  std::size_t pausedIngest_ = 0;  // ingest threads currently parked

  // Checkpoint counters: a seqlock over relaxed atomics. Writers bump
  // ckptSeq_ to odd, store the fields, bump back to even; readers retry
  // until they see a stable even sequence, so a stats() snapshot can
  // never tear across fields (every access is atomic — TSan-clean).
  std::atomic<std::uint64_t> ckptSeq_{0};
  std::atomic<std::size_t> ckptCount_{0};
  std::atomic<std::size_t> ckptRestores_{0};
  std::atomic<std::size_t> ckptLastBytes_{0};
  std::atomic<std::size_t> ckptLastUnits_{0};
  std::atomic<std::int64_t> ckptLastNs_{0};
  std::atomic<std::int64_t> ckptTotalNs_{0};
};

}  // namespace tiresias::engine
