#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/expect.h"
#include "common/timer.h"
#include "obs/instrumented_source.h"

namespace tiresias::engine {

namespace {

using tiresias::monotonicNanos;

// Engine snapshot section tags (see persist/snapshot.h for the framing).
constexpr std::uint32_t kMetaSectionTag = 1;    // stream count
constexpr std::uint32_t kStreamSectionTag = 2;  // one per stream
constexpr std::uint32_t kUserSectionTag = 3;    // ExtraWriter payload

// Hibernation files are single-section snapshots (same framing, own tag).
constexpr std::uint32_t kHibernateSectionTag = 1;

/// The serialized pipeline state inside a hibernation file. Framing or
/// tag mismatch means the file is not ours (or corrupt) — SnapshotError.
std::vector<std::uint8_t> readHibernationFile(const std::string& path) {
  const persist::SnapshotReader reader = persist::SnapshotReader::readFile(path);
  persist::Deserializer::require(
      reader.sections().size() == 1 &&
          reader.sections()[0].tag == kHibernateSectionTag,
      "hibernation snapshot has unexpected sections");
  return reader.sections()[0].payload;
}

/// Marker for "no stream to protect" in enforceResidentCap.
constexpr std::size_t kNoProtect = static_cast<std::size_t>(-1);

void writeRunSummary(persist::Serializer& out, const RunSummary& s) {
  out.u64(s.unitsProcessed);
  out.u64(s.recordsProcessed);
  out.u64(s.instancesDetected);
  out.u64(s.anomaliesReported);
  out.u64(s.junkRowsSkipped);
  out.u64(s.warmupUnitsBuffered);
  out.u64(s.seasons.size());
  for (const auto& season : s.seasons) {
    out.u64(season.period);
    out.f64(season.weight);
  }
}

RunSummary readRunSummary(persist::Deserializer& in) {
  RunSummary s;
  s.unitsProcessed = in.u64();
  s.recordsProcessed = in.u64();
  s.instancesDetected = in.u64();
  s.anomaliesReported = in.u64();
  s.junkRowsSkipped = in.u64();
  s.warmupUnitsBuffered = in.u64();
  const std::size_t seasons =
      in.count(sizeof(std::uint64_t) + sizeof(double));
  s.seasons.resize(seasons);
  for (auto& season : s.seasons) {
    season.period = in.boundedCount(persist::kMaxUnbackedCount);
    season.weight = in.f64();
  }
  return s;
}

}  // namespace

/// One registered stream: the pipeline plus everything it consumes.
struct DetectionEngine::StreamState {
  std::string name;
  std::unique_ptr<RecordSource> source;
  TiresiasPipeline pipeline;
  /// Cumulative counters; written only by the worker currently owning the
  /// stream (serialized by the scheduler), read after the pools stop.
  RunSummary summary;
  // Mirrors of the summary that stats() may poll while the pools run.
  std::atomic<std::size_t> sourceSkipped{0};
  std::atomic<std::size_t> warmupBuffered{0};
  std::atomic<std::size_t> recordsProcessed{0};
  std::atomic<std::size_t> instancesDetected{0};
  std::atomic<std::size_t> anomaliesReported{0};
  /// Ingest-side batcher state; null until ingest begins. Touched only by
  /// the stream's single ingest thread.
  std::unique_ptr<TimeUnitBatcher> batcher;
  bool exhausted = false;
  /// Junk rows carried over from a restored checkpoint; the live skip
  /// count is junkBase + the (fresh) source's own accounting. Written
  /// before start(), read by the ingest thread.
  std::size_t junkBase = 0;

  // --- Residency/paging (hibernation) state ---
  /// Serializes paging transitions against use: the owning worker holds it
  /// across wake + advance; an evictor try_locks it (and skips the stream
  /// when a worker owns it). Never acquired while holding residencyMu_
  /// except via try_lock, so lock order cannot deadlock.
  std::mutex pageMu;
  /// True when the pipeline is a shell and the state lives in
  /// hibernationBlob or the stream's hibernation file. Guarded by pageMu.
  bool hibernated = false;
  bool hibernatedToDisk = false;
  std::vector<std::uint8_t> hibernationBlob;
  /// LRU membership; guarded by the engine's residencyMu_.
  bool inLru = false;
  std::list<std::size_t>::iterator lruIt{};
  /// Cheap resident-count path when no cap is set. Owned by whichever
  /// worker currently has the stream (serialized by the scheduler).
  bool everAdvanced = false;

  StreamState(std::string streamName,
              std::shared_ptr<const Hierarchy> hierarchy,
              PipelineConfig config, std::unique_ptr<RecordSource> src)
      : name(std::move(streamName)),
        source(std::move(src)),
        pipeline(std::move(hierarchy), std::move(config)) {}
};

DetectionEngine::DetectionEngine(EngineConfig config, ResultSink sink)
    : config_(config), sink_(std::move(sink)) {
  if (config_.workers == 0) {
    config_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  TIRESIAS_EXPECT(config_.ingestThreads > 0,
                  "engine needs at least one ingest thread");
  TIRESIAS_EXPECT(config_.runBudget > 0, "run budget must be positive");
  TIRESIAS_EXPECT(config_.streamQueueCapacity > 0,
                  "per-stream queue capacity must be positive");
  TIRESIAS_EXPECT(config_.totalQueueCapacity > 0,
                  "total queue capacity must be positive");
  if (config_.metrics) {
    // Shard plan: [0] unbound callers, [1..W] workers, [W+1..W+I] ingest
    // threads, [W+I+1] the gauge sampler.
    registry_ = std::make_unique<obs::MetricsRegistry>(
        config_.workers + config_.ingestThreads + 2);
  }
  SchedulerConfig scfg;
  scfg.workers = config_.workers;
  // Under a resident cap a claim may drain a whole queueful: the ingest
  // sweep admits a stream's units in runs of up to streamQueueCapacity,
  // and a stream requeued mid-run would wait behind the fleet, be evicted
  // and pay a wake for the rest of the run.
  scfg.runBudget = config_.maxResidentStreams > 0
                       ? std::max(config_.runBudget,
                                  config_.streamQueueCapacity)
                       : config_.runBudget;
  scfg.streamQueueCapacity = config_.streamQueueCapacity;
  scfg.totalQueueCapacity = config_.totalQueueCapacity;
  scfg.metrics = registry_.get();
  scfg.metricsShardBase = 1;
  scheduler_ = std::make_unique<Scheduler>(
      scfg, [this](std::size_t w, std::size_t id, TimeUnitBatch& b) {
        processOne(w, id, b);
      });
  recycleCap_ =
      config_.totalQueueCapacity + config_.workers + config_.ingestThreads;
  // Workspace pool: one scratch workspace per worker, lent to whichever
  // stream that worker advances. Allocated empty here; each bind() sizes
  // it to the stream's hierarchy.
  workspacePool_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workspacePool_.push_back(std::make_shared<DetectWorkspace>());
  }
  poolBytes_ = std::vector<std::atomic<std::size_t>>(config_.workers);
  if (!config_.hibernateDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.hibernateDir, ec);
    // A failure here is not fatal: hibernateStream falls back to the
    // in-memory blob when the file write fails.
  }
}

DetectionEngine::~DetectionEngine() { stop(); }

std::size_t DetectionEngine::addStream(std::string name,
                                       std::shared_ptr<const Hierarchy> hierarchy,
                                       PipelineConfig config,
                                       std::unique_ptr<RecordSource> source) {
  TIRESIAS_EXPECT(!started_.load(), "addStream() after start()");
  TIRESIAS_EXPECT(hierarchy != nullptr, "stream needs a hierarchy");
  TIRESIAS_EXPECT(source != nullptr, "stream needs a source");
  if (registry_) {
    // Separate the raw source pull (kSourceFetch) from the batcher's
    // unit-slicing on top of it (kBatchFlush).
    source = std::make_unique<obs::InstrumentedSource>(std::move(source),
                                                       registry_.get());
  }
  // Registry of distinct hierarchies: holding the handle here guarantees
  // the hierarchy outlives the engine; dedupe by object identity so the
  // stats can report how much structure is actually shared.
  if (hierarchyKeys_.insert(hierarchy.get()).second) {
    hierarchies_.push_back(hierarchy);
  }
  const std::size_t id = streams_.size();
  streams_.push_back(std::make_unique<StreamState>(
      std::move(name), std::move(hierarchy), std::move(config),
      std::move(source)));
  streams_.back()->pipeline.bindMetrics(registry_.get());
  const std::size_t schedId = scheduler_->addStream();
  TIRESIAS_EXPECT(schedId == id, "scheduler/stream id mismatch");
  return id;
}

const std::string& DetectionEngine::streamName(std::size_t id) const {
  TIRESIAS_EXPECT(id < streams_.size(), "stream id out of range");
  return streams_[id]->name;
}

void DetectionEngine::start() {
  TIRESIAS_EXPECT(!started_.load(), "start() called twice");
  startNs_.store(monotonicNanos(), std::memory_order_release);
  {
    std::lock_guard lk(pauseMutex_);
    activeIngest_ = config_.ingestThreads;
  }
  started_.store(true, std::memory_order_release);
  scheduler_->start();
  ingestPool_.reserve(config_.ingestThreads);
  for (std::size_t t = 0; t < config_.ingestThreads; ++t) {
    ingestPool_.emplace_back([this, t] { ingestLoop(t); });
  }
  if (registry_ && config_.metricsSampleMillis > 0) {
    sampler_ = std::thread([this] { samplerLoop(); });
  }
}

void DetectionEngine::samplerLoop() {
  obs::bindThreadShard(config_.workers + config_.ingestThreads + 1);
  std::unique_lock lk(samplerMutex_);
  for (;;) {
    if (samplerCv_.wait_for(
            lk, std::chrono::milliseconds(config_.metricsSampleMillis),
            [&] { return samplerStop_; })) {
      return;
    }
    lk.unlock();
    sampleGauges();
    lk.lock();
  }
}

void DetectionEngine::sampleGauges() {
  const SchedulerStats sched = scheduler_->stats();
  registry_->recordValue(obs::Gauge::kReadyStreams, sched.readyStreams);
  registry_->recordValue(obs::Gauge::kQueuedUnits, sched.queuedUnits);
  std::size_t deepest = 0;
  std::size_t busiest = 0;
  std::size_t total = 0;
  for (const auto& q : scheduler_->allStreamStats()) {
    deepest = std::max(deepest, q.queueDepth);
    busiest = std::max(busiest, q.unitsProcessed);
    total += q.unitsProcessed;
  }
  registry_->recordValue(obs::Gauge::kMaxStreamQueueDepth, deepest);
  // Workspace residency: the per-worker pool, mirrored into poolBytes_ by
  // the owning workers — never read off a live workspace, which a worker
  // could be rebinding.
  std::size_t workspace = 0;
  for (const auto& bytes : poolBytes_) {
    workspace += bytes.load(std::memory_order_relaxed);
  }
  registry_->recordValue(obs::Gauge::kWorkspaceBytes, workspace);
  registry_->recordValue(obs::Gauge::kResidentStreams,
                         residentCount_.load(std::memory_order_relaxed));
  registry_->recordValue(obs::Gauge::kHibernatedStreams,
                         hibernatedCount_.load(std::memory_order_relaxed));
  if (total > 0) {
    registry_->recordValue(obs::Gauge::kBusiestStreamPpm,
                           busiest * 1'000'000 / total);
  }
  if (gaugeSampler_) gaugeSampler_(*registry_);
}

void DetectionEngine::stopSampler() {
  {
    std::lock_guard lk(samplerMutex_);
    samplerStop_ = true;
  }
  samplerCv_.notify_all();
  if (sampler_.joinable()) {
    sampler_.join();
    // One parting sample, so short runs (drained before the first period
    // elapsed) still expose every gauge.
    sampleGauges();
  }
}

std::vector<Record> DetectionEngine::takeRecycled() {
  std::lock_guard lock(recycleMutex_);
  if (recycle_.empty()) return {};
  std::vector<Record> buf = std::move(recycle_.back());
  recycle_.pop_back();
  return buf;
}

void DetectionEngine::recycleBuffer(std::vector<Record>&& buf) {
  buf.clear();
  std::lock_guard lock(recycleMutex_);
  if (recycle_.size() < recycleCap_) recycle_.push_back(std::move(buf));
}

void DetectionEngine::maybePauseIngest() {
  if (!ingestPauseFlag_.load(std::memory_order_acquire)) return;
  std::unique_lock lk(pauseMutex_);
  while (ingestPaused_ && !stopRequested_.load(std::memory_order_relaxed)) {
    ++pausedIngest_;
    pauseAckCv_.notify_all();
    pauseCv_.wait(lk);
    --pausedIngest_;
  }
}

void DetectionEngine::ingestLoop(std::size_t threadIndex) {
  obs::bindThreadShard(config_.workers + 1 + threadIndex);
  // Static partition: stream id modulo pool size. One producer per stream
  // preserves source order; the scheduler takes care of the rest.
  std::vector<std::pair<std::size_t, StreamState*>> mine;
  for (std::size_t id = threadIndex; id < streams_.size();
       id += config_.ingestThreads) {
    StreamState* s = streams_[id].get();
    // Batching starts at the pipeline's resume position: the configured
    // startTime normally, or the first unprocessed unit after a restore
    // (the already-processed prefix of a replayed source is dropped).
    // A pipeline that has actually progressed (restored from a checkpoint
    // or woken from hibernation) additionally seeds live sources with the
    // position, so a source that negotiates with its producer (resumable
    // SocketSource) can tell a reconnecting client to skip the processed
    // prefix. Fresh pipelines (resumeTime == startTime) seed nothing —
    // their first connection is not a resume.
    if (s->pipeline.resumeTime() > s->pipeline.config().startTime) {
      s->source->noteResumePoint(s->pipeline.resumeTime());
    }
    s->batcher = std::make_unique<TimeUnitBatcher>(
        *s->source, s->pipeline.config().delta, s->pipeline.resumeTime());
    mine.emplace_back(id, s);
  }
  // Round-robin from a persistent cursor, so every stream advances at a
  // similar pace. A stream whose own queue is full is skipped (its backlog
  // is the workers' problem, not its neighbours'); a full global bound, or
  // a whole lap of skips, parks the thread, which then resumes where it
  // stopped. Uncapped, a visit admits one unit. Under a resident cap it
  // admits up to streamQueueCapacity units while the next one closes from
  // the read-ahead chunk (a live source never holds the sweep): one unit
  // per visit spreads queued work over more streams than the cap, and
  // cycling through them makes nearly every unit pay a wake.
  const std::size_t visitUnits =
      config_.maxResidentStreams > 0 ? config_.streamQueueCapacity : 1;
  std::size_t live = mine.size();
  std::size_t cursor = 0;    // index into mine of the stream being visited
  std::size_t admitted = 0;  // units it has taken in this visit
  std::size_t skipped = 0;   // consecutive visits that moved nothing
  TimeUnitBatch batch;
  const auto nextStream = [&](bool moved) {
    skipped = moved ? 0 : skipped + 1;
    admitted = 0;
    if (++cursor == mine.size()) cursor = 0;
  };
  while (live > 0 && !stopRequested_.load(std::memory_order_relaxed)) {
    if (skipped >= mine.size()) {
      // Every live stream is backlogged: park until a unit drains.
      if (!scheduler_->waitForSpace()) break;  // stopping
      skipped = 0;
    }
    const auto [id, stream] = mine[cursor];
    if (stream->exhausted) {
      nextStream(false);
      continue;
    }
    // A checkpoint parks producers here, before every pull, so quiesce
    // latency is one unit, not a whole sweep.
    maybePauseIngest();
    const Scheduler::Admission admit = scheduler_->admission(id);
    if (admit == Scheduler::Admission::kStopping) break;
    if (admit == Scheduler::Admission::kGlobalFull) {
      if (!scheduler_->waitForSpace()) break;  // stopping
      continue;  // resume the same stream
    }
    if (admit == Scheduler::Admission::kStreamFull) {
      nextStream(admitted > 0);
      continue;
    }
    // Batch into a buffer recycled from the workers (allocation-free once
    // the pool is primed).
    batch.records = takeRecycled();
    TimeUnitBatcher::Pull pull;
    {
      // kBatchFlush covers the whole unit assembly; the source pulls
      // inside it record as kSourceFetch (nested span).
      obs::StageSpan flush(registry_.get(), obs::Stage::kBatchFlush);
      pull = stream->batcher->pull(batch);
    }
    stream->sourceSkipped.store(
        stream->junkBase + stream->source->skippedRecords(),
        std::memory_order_relaxed);
    if (pull == TimeUnitBatcher::Pull::kIdle) {
      // The source is alive but has nothing yet (a live socket stream
      // between connections or frames). Its bounded idle wait paced this
      // visit already, so count it as progress — parking in waitForSpace
      // would wedge an all-idle sweep — and revisit on the next lap.
      recycleBuffer(std::move(batch.records));
      nextStream(true);
      continue;
    }
    if (pull == TimeUnitBatcher::Pull::kEnd) {
      stream->exhausted = true;
      --live;
      scheduler_->finishStream(id);
      recycleBuffer(std::move(batch.records));
      nextStream(true);
      continue;
    }
    // Stamp for the end-to-end unit-latency histogram (enqueue ->
    // processed; sampled on the worker side).
    batch.enqueueNs = registry_ ? monotonicNanos() : 0;
    if (!scheduler_->submit(id, std::move(batch))) break;  // stopping
    if (++admitted == visitUnits || !stream->batcher->nextUnitBuffered()) {
      nextStream(true);
    }
  }
  // Exit is visible to a checkpointer waiting for pause acks: a finished
  // thread counts as paused.
  std::lock_guard lk(pauseMutex_);
  --activeIngest_;
  pauseAckCv_.notify_all();
}

void DetectionEngine::processOne(std::size_t workerIndex, std::size_t id,
                                 TimeUnitBatch& batch) {
  StreamState& stream = *streams_[id];
  RunSummary& sum = stream.summary;
  const std::size_t instancesBefore = sum.instancesDetected;
  const std::size_t anomaliesBefore = sum.anomaliesReported;
  const std::size_t batchRecords = batch.records.size();
  {
    // pageMu pins the stream resident for the whole advance: an evictor
    // that try_locks it while we hold it simply skips this stream.
    std::lock_guard page(stream.pageMu);
    // Lend this worker's pooled workspace to the stream. Attach before
    // waking so a wake's detector rebuild binds the pooled workspace
    // instead of allocating a private one.
    stream.pipeline.attachWorkspace(workspacePool_[workerIndex]);
    if (stream.hibernated) wakeStream(id, stream);
    stream.pipeline.processUnit(
        batch,
        [&](const InstanceResult& r) {
          if (sink_) {
            obs::StageSpan span(registry_.get(), obs::Stage::kReportSink);
            sink_(stream.name, r);
          }
        },
        sum);
    // Refresh the pool-bytes mirror while we still own the workspace (the
    // sampler reads the mirror, never the live workspace).
    poolBytes_[workerIndex].store(workspacePool_[workerIndex]->bytes(),
                                  std::memory_order_relaxed);
    noteAdvanced(id, stream);
  }
  if (registry_ && batch.enqueueNs > 0) {
    const std::int64_t waited = monotonicNanos() - batch.enqueueNs;
    if (waited > 0) {
      registry_->recordLatencyNs(obs::Stage::kUnitLatency,
                                 static_cast<std::uint64_t>(waited));
    }
  }
  stream.warmupBuffered.store(sum.warmupUnitsBuffered,
                              std::memory_order_relaxed);
  stream.recordsProcessed.fetch_add(batchRecords, std::memory_order_relaxed);
  stream.instancesDetected.fetch_add(sum.instancesDetected - instancesBefore,
                                     std::memory_order_relaxed);
  stream.anomaliesReported.fetch_add(sum.anomaliesReported - anomaliesBefore,
                                     std::memory_order_relaxed);
  recycleBuffer(std::move(batch.records));
  enforceResidentCap(id);
}

std::string DetectionEngine::hibernatePath(std::size_t id) const {
  return config_.hibernateDir + "/stream-" + std::to_string(id) + ".tsnap";
}

void DetectionEngine::wakeStream(std::size_t id, StreamState& stream) {
  obs::StageSpan span(registry_.get(), obs::Stage::kHibernateRestore);
  if (stream.hibernatedToDisk) {
    const std::vector<std::uint8_t> payload =
        readHibernationFile(hibernatePath(id));
    persist::Deserializer in(payload);
    stream.pipeline.wake(in);
    persist::Deserializer::require(
        in.atEnd(), "hibernation snapshot corrupt: trailing bytes");
    std::error_code ec;
    std::filesystem::remove(hibernatePath(id), ec);  // best-effort cleanup
  } else {
    persist::Deserializer in(stream.hibernationBlob);
    stream.pipeline.wake(in);
    persist::Deserializer::require(
        in.atEnd(), "hibernation blob corrupt: trailing bytes");
    stream.hibernationBlob.clear();
    stream.hibernationBlob.shrink_to_fit();
  }
  stream.hibernated = false;
  stream.hibernatedToDisk = false;
  hibernatedCount_.fetch_sub(1, std::memory_order_relaxed);
  wakes_.fetch_add(1, std::memory_order_relaxed);
}

void DetectionEngine::hibernateStream(std::size_t id, StreamState& stream) {
  persist::Serializer state;
  stream.pipeline.hibernate(state);
  if (!config_.hibernateDir.empty()) {
    try {
      persist::SnapshotWriter writer;
      writer.addSection(kHibernateSectionTag, state);
      writer.writeFile(hibernatePath(id));
      stream.hibernatedToDisk = true;
      stream.hibernationBlob.clear();
      stream.hibernationBlob.shrink_to_fit();
    } catch (const persist::SnapshotError&) {
      // Disk refused the snapshot; keep the state in memory instead of
      // losing it (the eviction still sheds the live detector's footprint).
      stream.hibernatedToDisk = false;
      stream.hibernationBlob = state.data();
    }
  } else {
    stream.hibernatedToDisk = false;
    stream.hibernationBlob = state.data();
  }
  stream.hibernated = true;
  hibernatedCount_.fetch_add(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

void DetectionEngine::noteAdvanced(std::size_t id, StreamState& stream) {
  if (config_.maxResidentStreams == 0) {
    // No cap: no LRU to keep, just count first-time residency. The flag is
    // owned by the worker currently holding the stream (scheduler
    // serialization), so a plain bool is race-free.
    if (!stream.everAdvanced) {
      stream.everAdvanced = true;
      residentCount_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::lock_guard lk(residencyMu_);
  if (!stream.inLru) {
    lru_.push_back(id);
    stream.lruIt = std::prev(lru_.end());
    stream.inLru = true;
    residentCount_.fetch_add(1, std::memory_order_relaxed);
  } else {
    lru_.splice(lru_.end(), lru_, stream.lruIt);
  }
}

void DetectionEngine::enforceResidentCap(std::size_t protectId) {
  if (config_.maxResidentStreams == 0) return;
  for (;;) {
    StreamState* victim = nullptr;
    std::size_t victimId = kNoProtect;
    {
      std::lock_guard lk(residencyMu_);
      if (residentCount_.load(std::memory_order_relaxed) <=
          config_.maxResidentStreams) {
        return;
      }
      // Least-recently-advanced first. try_lock only: a stream owned by a
      // worker (or being evicted by a peer) is simply skipped — the cap is
      // best-effort by up to `workers` streams.
      for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (*it == protectId) continue;
        StreamState& candidate = *streams_[*it];
        if (!candidate.pageMu.try_lock()) continue;
        victimId = *it;
        victim = &candidate;
        lru_.erase(it);
        candidate.inLru = false;
        residentCount_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      if (victim == nullptr) return;  // everything evictable is busy
    }
    // Serialize outside residencyMu_ so eviction I/O never stalls other
    // workers' LRU bookkeeping.
    hibernateStream(victimId, *victim);
    victim->pageMu.unlock();
  }
}

EngineStats DetectionEngine::drain() {
  TIRESIAS_EXPECT(started_.load(), "drain() before start()");
  // drain() and stop() may be issued from different threads (a watchdog
  // stopping a draining engine); serialize them so the joined_ check and
  // the joins themselves can't interleave into a double-join.
  std::lock_guard control(controlMutex_);
  if (!joined_.load()) {
    // Each ingest thread ends on its own once its sources are exhausted,
    // finishing its streams; the scheduler closes the ready queue when the
    // last stream drains, which ends the workers.
    for (auto& t : ingestPool_) {
      if (t.joinable()) t.join();
    }
    scheduler_->drainAndJoin();
    stopSampler();
    finalElapsedNs_.store(monotonicNanos() - startNs_.load(std::memory_order_relaxed),
                          std::memory_order_release);
    joined_.store(true, std::memory_order_release);
  }
  return stats();
}

void DetectionEngine::stop() {
  if (!started_.load()) return;
  std::lock_guard control(controlMutex_);
  if (joined_.load()) return;
  stopRequested_.store(true);
  // Release ingest threads parked in a checkpoint pause, and a
  // checkpointer waiting for pause acks (its predicate observes
  // stopRequested_).
  {
    std::lock_guard lk(pauseMutex_);
  }
  pauseCv_.notify_all();
  pauseAckCv_.notify_all();
  // Releases parked producers (submit/waitForSpace return false), closes
  // the ready queue in discard mode and drops the queued backlog: stop()
  // means "discard queued work", in contrast to drain().
  scheduler_->stopAndJoin();
  for (auto& t : ingestPool_) {
    if (t.joinable()) t.join();
  }
  stopSampler();
  finalElapsedNs_.store(monotonicNanos() - startNs_.load(std::memory_order_relaxed),
                        std::memory_order_release);
  joined_.store(true, std::memory_order_release);
}

void DetectionEngine::checkpoint(const std::string& path,
                                 const ExtraWriter& extra) {
  std::lock_guard ckptLock(checkpointMutex_);
  const std::int64_t t0 = monotonicNanos();
  // While the pools run, snapshot at a quiescent unit boundary: park the
  // producers, then let the workers drain every queued unit. Once the
  // engine has drained/stopped (or was never started) the state is
  // already stable.
  const bool quiesced = started_.load(std::memory_order_acquire) &&
                        !joined_.load(std::memory_order_acquire);
  if (quiesced) {
    ingestPauseFlag_.store(true, std::memory_order_release);
    {
      std::unique_lock lk(pauseMutex_);
      ingestPaused_ = true;
      pauseAckCv_.wait(lk, [&] {
        return pausedIngest_ == activeIngest_ ||
               stopRequested_.load(std::memory_order_relaxed);
      });
    }
    scheduler_->quiesce();
  }
  const auto resume = [&] {
    if (!quiesced) return;
    {
      std::lock_guard lk(pauseMutex_);
      ingestPaused_ = false;
    }
    ingestPauseFlag_.store(false, std::memory_order_release);
    pauseCv_.notify_all();
  };

  std::size_t bytes = 0;
  std::size_t totalUnits = 0;
  try {
    persist::SnapshotWriter writer;
    {
      persist::Serializer meta;
      meta.u64(streams_.size());
      writer.addSection(kMetaSectionTag, meta);
    }
    for (std::size_t id = 0; id < streams_.size(); ++id) {
      StreamState& stream = *streams_[id];
      persist::Serializer payload;
      payload.str(stream.name);
      // The worker-side summary never sees the source, so the ingest-side
      // junk count lives only in the sourceSkipped mirror — fold it in at
      // snapshot time exactly like streamSummary() does at read time.
      RunSummary summary = stream.summary;
      summary.junkRowsSkipped =
          stream.sourceSkipped.load(std::memory_order_relaxed);
      writeRunSummary(payload, summary);
      // Workers are quiesced (or stopped), so pageMu is uncontended; hold
      // it anyway so the hibernated flag and blob can never be observed
      // mid-transition.
      std::lock_guard page(stream.pageMu);
      if (stream.hibernated) {
        // A hibernated stream's state is already serialized — splice the
        // blob in verbatim. hibernate() writes exactly the saveState
        // encoding, so the checkpoint is byte-identical either way.
        if (stream.hibernatedToDisk) {
          payload.raw(readHibernationFile(hibernatePath(id)));
        } else {
          payload.raw(stream.hibernationBlob);
        }
      } else {
        stream.pipeline.saveState(payload);
      }
      writer.addSection(kStreamSectionTag, payload);
      totalUnits += summary.unitsProcessed;
    }
    if (extra) {
      persist::Serializer user;
      extra(user);
      writer.addSection(kUserSectionTag, user);
    }
    bytes = writer.writeFile(path);
  } catch (...) {
    resume();
    throw;
  }
  resume();

  // Publish the counters through the seqlock so a concurrent stats()
  // poller never mixes fields of two checkpoints.
  const std::int64_t durationNs = monotonicNanos() - t0;
  if (registry_) {
    registry_->recordLatencyNs(obs::Stage::kCheckpointSave,
                               static_cast<std::uint64_t>(durationNs));
  }
  ckptSeq_.fetch_add(1, std::memory_order_relaxed);  // odd: write open
  std::atomic_thread_fence(std::memory_order_release);
  ckptCount_.fetch_add(1, std::memory_order_relaxed);
  ckptLastBytes_.store(bytes, std::memory_order_relaxed);
  ckptLastUnits_.store(totalUnits, std::memory_order_relaxed);
  ckptLastNs_.store(durationNs, std::memory_order_relaxed);
  ckptTotalNs_.fetch_add(durationNs, std::memory_order_relaxed);
  ckptSeq_.fetch_add(1, std::memory_order_release);  // even: write closed
}

std::size_t DetectionEngine::restoreFrom(const std::string& path,
                                         const ExtraReader& extra) {
  TIRESIAS_EXPECT(!started_.load(), "restoreFrom() after start()");
  std::lock_guard ckptLock(checkpointMutex_);
  obs::StageSpan restoreSpan(registry_.get(), obs::Stage::kCheckpointRestore);
  const persist::SnapshotReader reader = persist::SnapshotReader::readFile(path);
  bool sawMeta = false;
  std::size_t restored = 0;
  std::vector<bool> restoredIds(streams_.size(), false);
  for (const auto& section : reader.sections()) {
    persist::Deserializer in(section.payload);
    switch (section.tag) {
      case kMetaSectionTag:
        in.u64();  // stream count at save time; informational
        sawMeta = true;
        break;
      case kStreamSectionTag: {
        const std::string name = in.str();
        StreamState* stream = nullptr;
        std::size_t id = 0;
        for (; id < streams_.size(); ++id) {
          if (streams_[id]->name == name) {
            stream = streams_[id].get();
            break;
          }
        }
        persist::Deserializer::require(
            stream != nullptr,
            "checkpoint names a stream that is not registered");
        persist::Deserializer::require(
            !restoredIds[id], "checkpoint holds a stream twice");
        restoredIds[id] = true;
        RunSummary summary = readRunSummary(in);
        stream->pipeline.loadState(in);
        persist::Deserializer::require(
            in.atEnd(), "snapshot corrupt: trailing bytes in stream section");
        // The stream now holds live state: register it as resident (and
        // most recently used) so the cap enforcement below sees it.
        if (stream->pipeline.holdsState()) noteAdvanced(id, *stream);
        stream->summary = summary;
        stream->junkBase = summary.junkRowsSkipped;
        stream->sourceSkipped.store(summary.junkRowsSkipped,
                                    std::memory_order_relaxed);
        stream->warmupBuffered.store(summary.warmupUnitsBuffered,
                                     std::memory_order_relaxed);
        stream->recordsProcessed.store(summary.recordsProcessed,
                                       std::memory_order_relaxed);
        stream->instancesDetected.store(summary.instancesDetected,
                                        std::memory_order_relaxed);
        stream->anomaliesReported.store(summary.anomaliesReported,
                                        std::memory_order_relaxed);
        ++restored;
        break;
      }
      case kUserSectionTag:
        if (extra) extra(in);
        break;
      default:
        throw persist::SnapshotError("unknown snapshot section tag");
    }
  }
  persist::Deserializer::require(sawMeta,
                                 "snapshot is missing its meta section");
  // A restore materializes every snapshotted stream; page the coldest back
  // out until the resident cap holds, before the pools ever start.
  enforceResidentCap(kNoProtect);
  ckptSeq_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  ckptRestores_.fetch_add(1, std::memory_order_relaxed);
  ckptSeq_.fetch_add(1, std::memory_order_release);
  return restored;
}

EngineStats DetectionEngine::stats() const {
  EngineStats out;
  out.streams = streams_.size();
  out.ingestThreads = config_.ingestThreads;
  if (scheduler_) out.scheduler = scheduler_->stats();
  out.scheduler.workers = config_.workers;
  out.backpressureWaits = out.scheduler.backpressureWaits;
  // One bulk snapshot: per-stream streamStats() calls in a loop would
  // take the scheduler lock once per stream against the hot path.
  std::vector<StreamQueueStats> queueStats;
  if (scheduler_) queueStats = scheduler_->allStreamStats();
  out.perStream.reserve(streams_.size());
  for (std::size_t id = 0; id < streams_.size(); ++id) {
    const StreamState& stream = *streams_[id];
    StreamStats s;
    s.name = stream.name;
    if (id < queueStats.size()) {
      const StreamQueueStats& q = queueStats[id];
      s.unitsIngested = q.unitsEnqueued;
      s.unitsProcessed = q.unitsProcessed;
      s.unitsDiscarded = q.unitsDiscarded;
      s.queueDepth = q.queueDepth;
      s.maxQueueDepth = q.maxQueueDepth;
      s.runs = q.runs;
      s.requeues = q.requeues;
    }
    s.recordsProcessed = stream.recordsProcessed.load(std::memory_order_relaxed);
    s.instancesDetected =
        stream.instancesDetected.load(std::memory_order_relaxed);
    s.anomaliesReported =
        stream.anomaliesReported.load(std::memory_order_relaxed);
    s.junkRowsSkipped = stream.sourceSkipped.load(std::memory_order_relaxed);
    s.warmupUnitsBuffered = stream.warmupBuffered.load(std::memory_order_relaxed);
    out.unitsIngested += s.unitsIngested;
    out.unitsProcessed += s.unitsProcessed;
    out.unitsDiscarded += s.unitsDiscarded;
    out.recordsProcessed += s.recordsProcessed;
    out.instancesDetected += s.instancesDetected;
    out.anomaliesReported += s.anomaliesReported;
    out.junkRowsSkipped += s.junkRowsSkipped;
    out.warmupUnitsBuffered += s.warmupUnitsBuffered;
    out.maxQueueDepth = std::max(out.maxQueueDepth, s.maxQueueDepth);
    out.busiestStreamUnits = std::max(out.busiestStreamUnits, s.unitsProcessed);
    out.perStream.push_back(std::move(s));
  }
  if (out.unitsProcessed > 0) {
    out.busiestStreamShare = static_cast<double>(out.busiestStreamUnits) /
                             static_cast<double>(out.unitsProcessed);
  }
  // The pooled workspaces (mirrors written by the owning workers; see
  // poolBytes_).
  for (const auto& bytes : poolBytes_) {
    out.workspaceBytes += bytes.load(std::memory_order_relaxed);
  }
  out.distinctHierarchies = hierarchies_.size();
  out.residentStreams = residentCount_.load(std::memory_order_relaxed);
  out.hibernatedStreams = hibernatedCount_.load(std::memory_order_relaxed);
  out.hibernateEvictions = evictions_.load(std::memory_order_relaxed);
  out.hibernateWakes = wakes_.load(std::memory_order_relaxed);
  // Seqlock read of the checkpoint counters: retry until a stable even
  // sequence brackets the field loads (all accesses atomic — tear-free
  // and TSan-clean while checkpoint()/restoreFrom() publish).
  for (;;) {
    const std::uint64_t s1 = ckptSeq_.load(std::memory_order_acquire);
    if ((s1 & 1) == 0) {
      out.checkpoint.checkpoints = ckptCount_.load(std::memory_order_relaxed);
      out.checkpoint.restores = ckptRestores_.load(std::memory_order_relaxed);
      out.checkpoint.lastBytes =
          ckptLastBytes_.load(std::memory_order_relaxed);
      out.checkpoint.lastUnits =
          ckptLastUnits_.load(std::memory_order_relaxed);
      out.checkpoint.lastSeconds =
          static_cast<double>(ckptLastNs_.load(std::memory_order_relaxed)) /
          1e9;
      out.checkpoint.totalSeconds =
          static_cast<double>(ckptTotalNs_.load(std::memory_order_relaxed)) /
          1e9;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (ckptSeq_.load(std::memory_order_relaxed) == s1) break;
    }
    std::this_thread::yield();
  }
  std::int64_t elapsedNs = 0;
  if (started_.load(std::memory_order_acquire)) {
    const std::int64_t fin = finalElapsedNs_.load(std::memory_order_acquire);
    elapsedNs =
        fin >= 0 ? fin : monotonicNanos() - startNs_.load(std::memory_order_acquire);
  }
  out.elapsedSeconds = static_cast<double>(elapsedNs) / 1e9;
  if (out.elapsedSeconds > 0.0) {
    out.recordsPerSecond =
        static_cast<double>(out.recordsProcessed) / out.elapsedSeconds;
  }
  if (registry_) out.metrics = registry_->snapshot();
  return out;
}

RunSummary DetectionEngine::streamSummary(std::size_t id) const {
  TIRESIAS_EXPECT(id < streams_.size(), "stream id out of range");
  // The summary is plain (non-atomic) state written by whichever worker
  // owns the stream; it is only stable once the pools have stopped.
  TIRESIAS_EXPECT(!started_.load(std::memory_order_acquire) ||
                      joined_.load(std::memory_order_acquire),
                  "streamSummary() while the pools are running — call it "
                  "after drain() or stop()");
  const auto& stream = *streams_[id];
  RunSummary sum = stream.summary;
  // Fold the ingest-side junk-row count in at read time (the worker never
  // sees the source, so the pipeline summary alone can't carry it).
  sum.junkRowsSkipped = stream.sourceSkipped.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace tiresias::engine
