// Scheduler — the task-scheduled executor under DetectionEngine.
//
// Replaces the thread-pair-per-shard layout: instead of welding each
// stream to a shard's dedicated worker thread, every stream owns a FIFO
// queue of timeunits and a shared pool of M workers serves whichever
// streams currently have work. The scheduler keeps a *ready queue* of
// runnable stream ids (an engine::BoundedQueue in its MPMC role); a worker
// claims a ready stream, advances it by at most `runBudget` units, and —
// if backlog remains — requeues it at the tail, so one heavy stream can
// never monopolize a worker for longer than a budget slice and thin
// streams interleave with it fairly.
//
// Serialization invariant: a stream is owned by at most one worker at any
// time, and its units are processed strictly in submission order. The
// invariant is held by the per-stream state machine (idle -> ready ->
// running): submit() only enqueues a stream id when the stream is neither
// ready nor running, and the only transition out of running is performed
// by the owning worker. Together with the per-stream FIFO this makes an
// M-worker run bit-identical to the sequential baseline, whatever M is.
//
// Backpressure: producers are bounded per stream (`streamQueueCapacity`
// units, so a stalled pipeline can't buffer unbounded input) and globally
// (`totalQueueCapacity` units across all streams, so memory stays bounded
// no matter how many streams are registered). Producers ask admission()
// before each unit: they skip a stream whose own queue is full and park in
// waitForSpace() when the global bound is full; workers wake them as units
// drain. The global bound is cooperative: with P producer threads it can
// overshoot by at most P-1 units.
//
// Shutdown: finishStream() marks end of a stream's input; once every
// stream has finished and drained, the ready queue closes and workers
// exit (drainAndJoin). stopAndJoin() is early shutdown: the ready queue
// closes in discard mode, parked producers are released (submit returns
// false), queued units are dropped and counted, workers are joined.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/bounded_queue.h"
#include "obs/metrics.h"
#include "stream/window.h"

namespace tiresias::engine {

struct SchedulerConfig {
  /// Worker pool size. Independent of the stream count.
  std::size_t workers = 1;
  /// Max units a worker advances one stream by before requeueing it
  /// (fairness/latency slice; larger = fewer scheduling round-trips).
  std::size_t runBudget = 8;
  /// Per-stream queue bound, in units.
  std::size_t streamQueueCapacity = 16;
  /// Global bound on queued units across all streams.
  std::size_t totalQueueCapacity = 1024;
  /// Optional metrics registry (not owned; must outlive the scheduler).
  /// When set, workers record dispatch-wait and run-slice latency spans
  /// and worker i binds metrics shard metricsShardBase + i.
  obs::MetricsRegistry* metrics = nullptr;
  std::size_t metricsShardBase = 1;
};

/// Snapshot of one stream's scheduling state.
struct StreamQueueStats {
  std::size_t queueDepth = 0;      // units currently queued
  std::size_t maxQueueDepth = 0;   // high-water mark
  std::size_t unitsEnqueued = 0;
  std::size_t unitsProcessed = 0;
  std::size_t unitsDiscarded = 0;  // dropped by stopAndJoin()
  std::size_t runs = 0;            // times a worker claimed this stream
  std::size_t requeues = 0;        // claims that ended with backlog left
};

/// Snapshot of the executor as a whole.
struct SchedulerStats {
  std::size_t workers = 0;
  std::size_t runBudget = 0;        // units per claim, as configured
  std::size_t readyStreams = 0;     // current ready-queue depth
  std::size_t maxReadyStreams = 0;  // high-water mark
  std::size_t claims = 0;           // stream pops by workers ("steals"
                                    // from the shared pool)
  std::size_t requeues = 0;         // claims ending with backlog left
  std::size_t queuedUnits = 0;      // units queued across all streams
  std::size_t maxQueuedUnits = 0;   // high-water mark
  std::size_t backpressureWaits = 0;  // producer parks in waitForSpace()
};

class Scheduler {
 public:
  /// Worker-side unit processor. Called with per-stream serialization
  /// (at most one call per stream in flight, units in submission order);
  /// calls for *different* streams run concurrently. `workerIndex` is the
  /// dense index of the calling worker (stable for the whole call), so the
  /// callee can address per-worker pooled resources — the engine lends its
  /// per-worker detection workspace to the stream being advanced. The
  /// batch is mutable so the callee can salvage its record buffer.
  using ProcessFn = std::function<void(std::size_t workerIndex,
                                       std::size_t streamId,
                                       TimeUnitBatch& batch)>;

  Scheduler(SchedulerConfig config, ProcessFn process);
  /// Joins outstanding workers (via stopAndJoin).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a stream before start(). Returns the dense stream id.
  std::size_t addStream();

  /// Launch the worker pool. Call once, after all addStream().
  void start();

  /// Whether stream `id` can take one more unit now, and if not, why.
  enum class Admission : std::uint8_t {
    kAccept,      // room under both bounds
    kStreamFull,  // the stream's own queue holds streamQueueCapacity units
    kGlobalFull,  // totalQueueCapacity units are queued across all streams
    kStopping,    // stopAndJoin() was called; submit() would drop the unit
  };
  /// Advisory (the answer can go stale as soon as the lock drops): a
  /// producer skips a kStreamFull stream — its neighbours may still have
  /// room — and parks in waitForSpace() on kGlobalFull, when none has.
  /// A stream whose queue is full while the global bound is also full
  /// reports kGlobalFull.
  Admission admission(std::size_t id) const;

  /// Enqueue the next unit of stream `id` in source order and mark the
  /// stream ready if it was idle. Never blocks. Returns false iff the
  /// scheduler is stopping (the unit is dropped, uncounted). Each stream
  /// must have a single producer thread.
  bool submit(std::size_t id, TimeUnitBatch&& batch);

  /// Park until queued units drained (so admission may accept again) or the
  /// scheduler stops. Returns false iff stopping. Counts one
  /// backpressure wait.
  bool waitForSpace();

  /// Declare end of input for stream `id` (no submit() after this).
  void finishStream(std::size_t id);

  /// Block until every queued unit has been processed and no worker is
  /// mid-stream (a unit boundary across all streams) — the quiescent point
  /// a checkpoint snapshots at. Callers must stop producers first or the
  /// wait may never end; returns immediately when the scheduler is not
  /// started or is stopping. Workers stay parked on the ready queue, so
  /// processing resumes by itself when producers submit again.
  void quiesce();

  /// Wait until every finished stream has drained, then join the workers.
  /// Requires finishStream() to have been called for every stream
  /// (otherwise the pool would wait forever).
  void drainAndJoin();

  /// Early shutdown: release parked producers, drop all queued units
  /// (counted in unitsDiscarded), join the workers. Idempotent; safe
  /// after drainAndJoin().
  void stopAndJoin();

  std::size_t streamCount() const { return streams_.size(); }

  /// Thread-safe snapshots, pollable while the pool runs.
  SchedulerStats stats() const;
  StreamQueueStats streamStats(std::size_t id) const;
  /// Every stream's stats under a single lock acquisition — what stats
  /// pollers should use (per-stream streamStats() calls in a loop would
  /// take the scheduler lock once per stream against the hot path).
  std::vector<StreamQueueStats> allStreamStats() const;

 private:
  /// Per-stream scheduling state. The state machine lives under mu_:
  /// `ready` == the id is in the ready queue; `running` == owned by a
  /// worker; never both.
  struct StreamEntry {
    std::deque<TimeUnitBatch> queue;
    bool ready = false;
    bool running = false;
    bool inputDone = false;  // finishStream() called
    bool retired = false;    // drained after inputDone (counted once)
    StreamQueueStats stats;
  };

  void workerLoop(std::size_t workerIndex);
  /// Advance one claimed stream by up to runBudget units.
  void runStream(std::size_t workerIndex, std::size_t id);
  /// Mark `stream` retired if fully drained; close the ready queue when
  /// the last stream retires. Call with mu_ held; returns true when this
  /// call retired the last stream.
  bool retireIfDrained(StreamEntry& stream);

  SchedulerConfig config_;
  ProcessFn process_;

  mutable std::mutex mu_;
  std::condition_variable spaceCv_;  // producers park here
  std::vector<std::unique_ptr<StreamEntry>> streams_;
  std::size_t liveStreams_ = 0;   // not yet retired
  std::size_t queuedUnits_ = 0;   // across all streams
  std::size_t maxQueuedUnits_ = 0;
  std::size_t claims_ = 0;
  std::size_t requeues_ = 0;
  std::size_t backpressureWaits_ = 0;
  /// Bumped once per consumed unit; waitForSpace() parks until it moves.
  std::size_t consumeTick_ = 0;
  bool started_ = false;
  bool stopRequested_ = false;

  /// Ready queue of runnable stream ids; capacity == streamCount() so a
  /// push can never block (each stream appears at most once). Built in
  /// start(). This is BoundedQueue in its MPMC role: producers and
  /// workers both push (initial schedule / requeue), workers pop.
  std::unique_ptr<BoundedQueue<std::size_t>> ready_;
  std::vector<std::thread> workers_;
};

}  // namespace tiresias::engine
