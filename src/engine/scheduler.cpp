#include "engine/scheduler.h"

#include <algorithm>

#include "common/expect.h"

namespace tiresias::engine {

Scheduler::Scheduler(SchedulerConfig config, ProcessFn process)
    : config_(config), process_(std::move(process)) {
  TIRESIAS_EXPECT(config_.workers > 0, "scheduler needs at least one worker");
  TIRESIAS_EXPECT(config_.runBudget > 0, "run budget must be positive");
  TIRESIAS_EXPECT(config_.streamQueueCapacity > 0,
                  "per-stream queue capacity must be positive");
  TIRESIAS_EXPECT(config_.totalQueueCapacity > 0,
                  "total queue capacity must be positive");
  TIRESIAS_EXPECT(process_ != nullptr, "scheduler needs a process function");
}

Scheduler::~Scheduler() { stopAndJoin(); }

std::size_t Scheduler::addStream() {
  std::lock_guard lock(mu_);
  TIRESIAS_EXPECT(!started_, "addStream() after start()");
  streams_.push_back(std::make_unique<StreamEntry>());
  return streams_.size() - 1;
}

void Scheduler::start() {
  {
    std::lock_guard lock(mu_);
    TIRESIAS_EXPECT(!started_, "start() called twice");
    started_ = true;
    liveStreams_ = streams_.size();
    ready_ = std::make_unique<BoundedQueue<std::size_t>>(
        std::max<std::size_t>(1, streams_.size()));
  }
  if (streams_.empty()) ready_->close();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

Scheduler::Admission Scheduler::admission(std::size_t id) const {
  std::lock_guard lock(mu_);
  TIRESIAS_EXPECT(id < streams_.size(), "stream id out of range");
  if (stopRequested_) return Admission::kStopping;
  if (queuedUnits_ >= config_.totalQueueCapacity) {
    return Admission::kGlobalFull;
  }
  return streams_[id]->queue.size() >= config_.streamQueueCapacity
             ? Admission::kStreamFull
             : Admission::kAccept;
}

bool Scheduler::submit(std::size_t id, TimeUnitBatch&& batch) {
  bool schedule = false;
  {
    std::lock_guard lock(mu_);
    TIRESIAS_EXPECT(id < streams_.size(), "stream id out of range");
    TIRESIAS_EXPECT(started_, "submit() before start()");
    if (stopRequested_) return false;
    StreamEntry& s = *streams_[id];
    TIRESIAS_EXPECT(!s.inputDone, "submit() after finishStream()");
    s.queue.push_back(std::move(batch));
    ++s.stats.unitsEnqueued;
    s.stats.maxQueueDepth = std::max(s.stats.maxQueueDepth, s.queue.size());
    ++queuedUnits_;
    maxQueuedUnits_ = std::max(maxQueuedUnits_, queuedUnits_);
    if (!s.ready && !s.running) {
      s.ready = true;
      schedule = true;
    }
  }
  if (schedule) {
    // Never kFull: each stream id is in the ready queue at most once and
    // its capacity is streamCount(). kClosed can only mean shutdown, in
    // which case the backlog is discarded by stopAndJoin() anyway.
    const auto r = ready_->tryPush(id);
    TIRESIAS_EXPECT(r != BoundedQueue<std::size_t>::PushResult::kFull,
                    "ready queue can never fill");
  }
  return true;
}

bool Scheduler::waitForSpace() {
  std::unique_lock lock(mu_);
  if (stopRequested_) return false;
  // The caller observed "no space" before locking; if workers drained
  // everything in that window, no further tick will ever come (idle
  // workers park in ready_->pop()) — space is certainly available now,
  // so return for a re-sweep instead of parking on a stale snapshot.
  if (queuedUnits_ == 0) return true;
  // Otherwise some stream queue is non-empty, hence ready or running by
  // the scheduling invariant, so a worker is bound to consume a unit and
  // bump the tick.
  ++backpressureWaits_;
  const std::size_t tick = consumeTick_;
  spaceCv_.wait(lock,
                [&] { return stopRequested_ || consumeTick_ != tick; });
  return !stopRequested_;
}

void Scheduler::finishStream(std::size_t id) {
  bool closeReady = false;
  {
    std::lock_guard lock(mu_);
    TIRESIAS_EXPECT(id < streams_.size(), "stream id out of range");
    StreamEntry& s = *streams_[id];
    if (s.inputDone) return;
    s.inputDone = true;
    closeReady = retireIfDrained(s);
  }
  if (closeReady) ready_->close();
}

bool Scheduler::retireIfDrained(StreamEntry& stream) {
  if (stream.retired || !stream.inputDone || !stream.queue.empty() ||
      stream.ready || stream.running) {
    return false;
  }
  stream.retired = true;
  return --liveStreams_ == 0;
}

void Scheduler::workerLoop(std::size_t workerIndex) {
  obs::bindThreadShard(config_.metricsShardBase + workerIndex);
  for (;;) {
    std::optional<std::size_t> id;
    {
      // Dispatch wait is worker idle time: blocked on the ready queue
      // because no stream is runnable (all drained, or producers stalled).
      obs::StageSpan wait(config_.metrics, obs::Stage::kDispatchWait);
      id = ready_->pop();
    }
    if (!id) break;
    runStream(workerIndex, *id);
  }
}

void Scheduler::runStream(std::size_t workerIndex, std::size_t id) {
  obs::StageSpan slice(config_.metrics, obs::Stage::kRunSlice);
  StreamEntry& s = *streams_[id];
  {
    std::lock_guard lock(mu_);
    s.ready = false;
    s.running = true;
    ++claims_;
    ++s.stats.runs;
  }
  TimeUnitBatch batch;
  for (std::size_t n = 0; n < config_.runBudget; ++n) {
    {
      std::lock_guard lock(mu_);
      if (stopRequested_ || s.queue.empty()) break;
      batch = std::move(s.queue.front());
      s.queue.pop_front();
    }
    process_(workerIndex, id, batch);
    {
      std::lock_guard lock(mu_);
      ++s.stats.unitsProcessed;
      --queuedUnits_;
      ++consumeTick_;
    }
    // Notify after dropping mu_ so woken producers don't immediately
    // block on the mutex the notifier still holds.
    spaceCv_.notify_all();
  }
  bool reschedule = false;
  bool closeReady = false;
  {
    std::lock_guard lock(mu_);
    s.running = false;
    if (stopRequested_) {
      // Early shutdown: leave the backlog for stopAndJoin() to discard.
    } else if (!s.queue.empty()) {
      s.ready = true;
      ++requeues_;
      ++s.stats.requeues;
      reschedule = true;
    } else {
      closeReady = retireIfDrained(s);
    }
  }
  if (reschedule) {
    const auto r = ready_->tryPush(id);
    TIRESIAS_EXPECT(r != BoundedQueue<std::size_t>::PushResult::kFull,
                    "ready queue can never fill");
  }
  if (closeReady) ready_->close();
  // The running -> idle transition is what quiesce() waits on; the
  // per-unit notifies above only fire when a unit was consumed.
  spaceCv_.notify_all();
}

void Scheduler::quiesce() {
  std::unique_lock lock(mu_);
  if (!started_) return;
  spaceCv_.wait(lock, [&] {
    // Streams mid-run must always finish their in-flight unit (even under
    // early shutdown, so a concurrent snapshot never races a worker); the
    // queued-empty requirement is waived when stopping because stopAndJoin
    // discards the backlog rather than processing it.
    if (queuedUnits_ != 0 && !stopRequested_) return false;
    for (const auto& s : streams_) {
      if (s->running) return false;
    }
    return true;
  });
}

void Scheduler::drainAndJoin() {
  {
    std::lock_guard lock(mu_);
    TIRESIAS_EXPECT(started_, "drainAndJoin() before start()");
    for (const auto& s : streams_) {
      TIRESIAS_EXPECT(s->inputDone,
                      "drainAndJoin() with a stream still producing — call "
                      "finishStream() for every stream first");
    }
  }
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void Scheduler::stopAndJoin() {
  {
    std::lock_guard lock(mu_);
    stopRequested_ = true;
    // Discard (and count) the backlog immediately, not after the join: a
    // worker can be wedged arbitrarily long in a user sink, and stats
    // pollers must be able to observe the discard while stop() is still
    // joining (the engine's stop test synchronizes on exactly that).
    // Safe concurrently with a running worker: after stopRequested_ no
    // worker touches its stream's queue again, and the in-flight unit was
    // already popped.
    for (auto& sp : streams_) {
      StreamEntry& s = *sp;
      s.stats.unitsDiscarded += s.queue.size();
      queuedUnits_ -= s.queue.size();
      s.queue.clear();
    }
    spaceCv_.notify_all();
  }
  if (ready_) ready_->close(BoundedQueue<std::size_t>::CloseMode::kDiscard);
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard lock(mu_);
  SchedulerStats out;
  out.workers = config_.workers;
  out.runBudget = config_.runBudget;
  out.claims = claims_;
  out.requeues = requeues_;
  out.queuedUnits = queuedUnits_;
  out.maxQueuedUnits = maxQueuedUnits_;
  out.backpressureWaits = backpressureWaits_;
  if (ready_) {
    out.readyStreams = ready_->depth();
    out.maxReadyStreams = ready_->maxDepth();
  }
  return out;
}

StreamQueueStats Scheduler::streamStats(std::size_t id) const {
  std::lock_guard lock(mu_);
  TIRESIAS_EXPECT(id < streams_.size(), "stream id out of range");
  StreamQueueStats out = streams_[id]->stats;
  out.queueDepth = streams_[id]->queue.size();
  return out;
}

std::vector<StreamQueueStats> Scheduler::allStreamStats() const {
  std::lock_guard lock(mu_);
  std::vector<StreamQueueStats> out;
  out.reserve(streams_.size());
  for (const auto& sp : streams_) {
    out.push_back(sp->stats);
    out.back().queueDepth = sp->queue.size();
  }
  return out;
}

}  // namespace tiresias::engine
