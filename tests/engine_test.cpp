// Tests for the task-scheduled multi-stream detection engine
// (src/engine/): the MPMC bounded queue, the Scheduler's per-stream
// serialization, the sequential-equivalence guarantee across worker-pool
// sizes (including a pathologically skewed 200+-stream mix), stress with
// workers >> cores, early stop, and junk-row surfacing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/pipeline.h"
#include "core/workspace.h"
#include "engine/bounded_queue.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "report/concurrent_store.h"
#include "timeseries/ewma.h"
#include "workload/ccd.h"
#include "workload/scd.h"

namespace tiresias {
namespace {

using engine::BoundedQueue;
using engine::DetectionEngine;
using engine::EngineConfig;
using engine::Scheduler;
using engine::SchedulerConfig;
using workload::GeneratorSource;
using workload::Scale;
using workload::WorkloadSpec;

PipelineConfig testPipelineConfig(const WorkloadSpec& spec) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 16;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  return cfg;
}

TEST(BoundedQueue, FifoAndDepthTracking) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.maxDepth(), 4u);
  EXPECT_EQ(q.blockedPushes(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.pop(), i);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, BackpressureBlocksProducerUntilConsumed) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks until the consumer pops
    pushed.store(true);
  });
  // The producer must be parked on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GE(q.blockedPushes(), 1u);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, TryPushNeverBlocks) {
  BoundedQueue<int> q(2);
  using Push = BoundedQueue<int>::PushResult;
  EXPECT_EQ(q.tryPush(1), Push::kOk);
  EXPECT_EQ(q.tryPush(2), Push::kOk);
  EXPECT_EQ(q.tryPush(3), Push::kFull);  // at capacity: refused, not parked
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.tryPush(3), Push::kOk);
  q.close();
  EXPECT_EQ(q.tryPush(4), Push::kClosed);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseDrainsThenEndsStream) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));          // refused after close
  EXPECT_EQ(q.pop(), 7);            // queued items still drain
  EXPECT_EQ(q.pop(), std::nullopt); // then end-of-stream
}

TEST(BoundedQueue, ClosedEmptyQueueUnblocksConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  consumer.join();
}

TEST(BoundedQueue, CloseDiscardDropsQueuedItems) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close(BoundedQueue<int>::CloseMode::kDiscard);
  EXPECT_EQ(q.pop(), std::nullopt);  // backlog dropped, not drained
  EXPECT_EQ(q.discardedItems(), 2u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_FALSE(q.push(3));
}

TEST(BoundedQueue, DiscardAfterDrainCloseStillDropsBacklog) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  q.close();  // graceful close: item stays poppable...
  q.close(BoundedQueue<int>::CloseMode::kDiscard);  // ...until discarded
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.discardedItems(), 1u);
}

/// Scheduler in isolation: whatever the worker count, every stream's
/// units must come out serialized and in submission order.
TEST(Scheduler, PreservesPerStreamFifoUnderManyWorkers) {
  const std::size_t streams = 6;
  const std::size_t unitsPerStream = 64;
  std::vector<std::vector<TimeUnit>> seen(streams);
  std::vector<std::atomic<int>> inFlight(streams);
  for (auto& f : inFlight) f.store(0);
  std::atomic<bool> overlapped{false};

  SchedulerConfig cfg;
  cfg.workers = 8;
  cfg.runBudget = 3;
  cfg.streamQueueCapacity = 4;
  cfg.totalQueueCapacity = 16;
  Scheduler sched(cfg, [&](std::size_t, std::size_t id, TimeUnitBatch& b) {
    if (inFlight[id].fetch_add(1) != 0) overlapped.store(true);
    seen[id].push_back(b.unit);  // safe: serialized per stream
    std::this_thread::yield();
    inFlight[id].fetch_sub(1);
  });
  for (std::size_t i = 0; i < streams; ++i) ASSERT_EQ(sched.addStream(), i);
  sched.start();

  // One producer per stream, as the engine's ingest partition guarantees.
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < streams; ++i) {
    producers.emplace_back([&, i] {
      for (std::size_t u = 0; u < unitsPerStream;) {
        const Scheduler::Admission admit = sched.admission(i);
        ASSERT_NE(admit, Scheduler::Admission::kStopping);
        if (admit != Scheduler::Admission::kAccept) {
          if (!sched.waitForSpace()) return;
          continue;
        }
        TimeUnitBatch b;
        b.unit = static_cast<TimeUnit>(u);
        ASSERT_TRUE(sched.submit(i, std::move(b)));
        ++u;
      }
      sched.finishStream(i);
    });
  }
  for (auto& t : producers) t.join();
  sched.drainAndJoin();

  EXPECT_FALSE(overlapped.load());
  for (std::size_t i = 0; i < streams; ++i) {
    ASSERT_EQ(seen[i].size(), unitsPerStream);
    for (std::size_t u = 0; u < unitsPerStream; ++u) {
      EXPECT_EQ(seen[i][u], static_cast<TimeUnit>(u));
    }
  }
  const auto stats = sched.stats();
  EXPECT_GT(stats.claims, 0u);
  EXPECT_EQ(stats.queuedUnits, 0u);
  EXPECT_GT(stats.maxQueuedUnits, 0u);
  EXPECT_LE(stats.maxReadyStreams, streams);
}

/// admission() names why a unit would be refused: the stream's own queue,
/// the global bound (which wins when both are full), or shutdown.
TEST(Scheduler, AdmissionNamesEachRefusal) {
  using Admission = Scheduler::Admission;
  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.streamQueueCapacity = 2;
  cfg.totalQueueCapacity = 4;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  bool first = true;
  Scheduler sched(cfg, [&](std::size_t, std::size_t, TimeUnitBatch&) {
    if (!std::exchange(first, false)) return;
    entered.set_value();
    released.wait();  // hold the first unit in flight
  });
  for (std::size_t i = 0; i < 3; ++i) ASSERT_EQ(sched.addStream(), i);
  sched.start();
  EXPECT_EQ(sched.admission(0), Admission::kAccept);

  ASSERT_TRUE(sched.submit(0, TimeUnitBatch{}));
  entered.get_future().wait();  // popped: stream 0's queue is empty again
  EXPECT_EQ(sched.admission(0), Admission::kAccept);
  ASSERT_TRUE(sched.submit(0, TimeUnitBatch{}));
  ASSERT_TRUE(sched.submit(0, TimeUnitBatch{}));
  EXPECT_EQ(sched.admission(0), Admission::kStreamFull);
  EXPECT_EQ(sched.admission(1), Admission::kAccept);

  // The in-flight unit still counts against the global bound: 1 + 2 + 1.
  ASSERT_TRUE(sched.submit(1, TimeUnitBatch{}));
  EXPECT_EQ(sched.admission(0), Admission::kGlobalFull);
  EXPECT_EQ(sched.admission(1), Admission::kGlobalFull);
  EXPECT_EQ(sched.admission(2), Admission::kGlobalFull);

  release.set_value();
  sched.stopAndJoin();
  EXPECT_EQ(sched.admission(0), Admission::kStopping);
  EXPECT_EQ(sched.admission(2), Admission::kStopping);
}

/// The headline guarantee: k streams through an M-worker engine produce
/// exactly the per-stream anomalies and summaries of k sequential
/// TiresiasPipeline::run calls. The tiny queues force backpressure on the
/// ingest path.
TEST(Engine, EquivalentToSequentialPipelines) {
  const std::vector<WorkloadSpec> specs = {
      workload::ccdNetworkWorkload(Scale::kTest),
      workload::ccdTroubleWorkload(Scale::kTest),
      workload::scdNetworkWorkload(Scale::kTest),
      workload::ccdNetworkWorkload(Scale::kTest),
  };
  const TimeUnit units = 48;

  // Sequential baseline, one pipeline per stream.
  std::vector<std::vector<report::StoredAnomaly>> baselineAnomalies;
  std::vector<RunSummary> baselineSummaries;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    GeneratorSource src(specs[i], 0, units, 100 + i);
    TiresiasPipeline pipeline(borrowHierarchy(specs[i].hierarchy), testPipelineConfig(specs[i]));
    report::AnomalyStore store(specs[i].hierarchy);
    baselineSummaries.push_back(
        pipeline.run(src, [&](const InstanceResult& r) { store.add(r); }));
    baselineAnomalies.push_back(store.all());
  }

  EngineConfig cfg;
  cfg.workers = 3;             // uneven 4-streams-over-3-workers contention
  cfg.ingestThreads = 2;
  cfg.runBudget = 2;
  cfg.streamQueueCapacity = 2; // force per-stream backpressure
  cfg.totalQueueCapacity = 4;  // ...and the global bound
  report::ConcurrentAnomalyStore store;
  DetectionEngine eng(cfg, store.sink());
  std::vector<std::string> names;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string name = "stream-" + std::to_string(i);
    names.push_back(name);
    store.registerStream(name, specs[i].hierarchy);
    eng.addStream(name, borrowHierarchy(specs[i].hierarchy), testPipelineConfig(specs[i]),
                  std::make_unique<GeneratorSource>(specs[i], 0, units,
                                                    100 + i));
  }
  eng.start();
  const auto stats = eng.drain();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(names[i]);
    const auto sum = eng.streamSummary(i);
    EXPECT_EQ(sum.unitsProcessed, baselineSummaries[i].unitsProcessed);
    EXPECT_EQ(sum.recordsProcessed, baselineSummaries[i].recordsProcessed);
    EXPECT_EQ(sum.instancesDetected, baselineSummaries[i].instancesDetected);
    EXPECT_EQ(sum.anomaliesReported, baselineSummaries[i].anomaliesReported);

    const auto got = store.snapshot(names[i]);
    const auto& want = baselineAnomalies[i];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].anomaly, want[j].anomaly);
      EXPECT_EQ(got[j].path, want[j].path);
      EXPECT_EQ(got[j].depth, want[j].depth);
    }
  }

  std::size_t baselineUnits = 0, baselineRecords = 0;
  for (const auto& s : baselineSummaries) {
    baselineUnits += s.unitsProcessed;
    baselineRecords += s.recordsProcessed;
  }
  EXPECT_EQ(stats.unitsProcessed, baselineUnits);
  EXPECT_EQ(stats.recordsProcessed, baselineRecords);
  EXPECT_EQ(stats.streams, specs.size());
  ASSERT_EQ(stats.perStream.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(stats.perStream[i].name, names[i]);
    EXPECT_EQ(stats.perStream[i].unitsProcessed,
              baselineSummaries[i].unitsProcessed);
    EXPECT_GT(stats.perStream[i].runs, 0u);
  }
  // The tiny queues must actually have exercised the scheduler: streams
  // were claimed, requeued with backlog, and producers parked.
  EXPECT_GT(stats.maxQueueDepth, 0u);
  EXPECT_GT(stats.scheduler.claims, 0u);
  EXPECT_GT(stats.scheduler.requeues, 0u);
  EXPECT_GT(stats.scheduler.maxQueuedUnits, 0u);
}

/// Pathological skew (the satellite stress): one stream carries ~95% of
/// all records among 200 tiny streams, plus a zero-record stream. Every
/// worker-pool size must reproduce the sequential baseline bit-identically
/// per stream — the heavy stream may occupy one worker for long stretches,
/// but it must never corrupt or reorder its neighbors.
TEST(Engine, SkewedMixEquivalentAcrossWorkerGrid) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  const auto& h = spec.hierarchy;
  const std::vector<NodeId> leaves = h.leaves();
  const Duration delta = spec.unit;

  // Synthetic per-stream traces (VectorSource) so the skew is exact.
  // Stream 0: 180 units x 100 records plus a localized 400-record spike on
  // one leaf at unit 40 (so it produces real anomalies). Streams 1..200:
  // one record every 6th unit over 24 units. Stream 201: zero records
  // (exhausts immediately, must still retire).
  const std::size_t kTiny = 200;
  const TimeUnit heavyUnits = 180, tinyUnits = 24;
  auto makeRecords = [&](std::size_t streamIdx) {
    std::vector<Record> records;
    if (streamIdx == kTiny + 1) return records;  // the zero-record stream
    const bool heavy = streamIdx == 0;
    const TimeUnit units = heavy ? heavyUnits : tinyUnits;
    for (TimeUnit u = 0; u < units; ++u) {
      std::size_t perUnit = heavy ? 100 : (u % 6 == 0 ? 1 : 0);
      if (heavy && u == 40) perUnit += 400;  // spike, placed on one leaf
      for (std::size_t i = 0; i < perUnit; ++i) {
        Record r;
        r.time = static_cast<Timestamp>(u) * delta +
                 static_cast<Timestamp>(i % static_cast<std::size_t>(delta));
        r.category = (heavy && i >= 100)
                         ? leaves[0]
                         : leaves[(streamIdx + i) % leaves.size()];
        records.push_back(r);
      }
    }
    return records;
  };
  PipelineConfig pcfg = testPipelineConfig(spec);
  pcfg.detector.theta = 4.0;
  const std::size_t streams = kTiny + 2;

  // Sequential baseline.
  std::vector<std::vector<report::StoredAnomaly>> baseAnoms(streams);
  std::vector<RunSummary> baseSums(streams);
  std::size_t totalBaseRecords = 0, heavyRecords = 0;
  for (std::size_t i = 0; i < streams; ++i) {
    VectorSource src(makeRecords(i));
    TiresiasPipeline pipeline(borrowHierarchy(h), pcfg);
    report::AnomalyStore store(h);
    baseSums[i] =
        pipeline.run(src, [&](const InstanceResult& r) { store.add(r); });
    baseAnoms[i] = store.all();
    totalBaseRecords += baseSums[i].recordsProcessed;
    if (i == 0) heavyRecords = baseSums[i].recordsProcessed;
  }
  // The mix really is pathological: >= 95% of records in one stream, and
  // the heavy stream really detects something.
  EXPECT_GE(static_cast<double>(heavyRecords),
            0.95 * static_cast<double>(totalBaseRecords));
  EXPECT_GT(baseAnoms[0].size(), 0u);

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.ingestThreads = 2;
    cfg.streamQueueCapacity = 4;
    cfg.totalQueueCapacity = 64;
    cfg.runBudget = 4;
    report::ConcurrentAnomalyStore store;
    DetectionEngine eng(cfg, store.sink());
    for (std::size_t i = 0; i < streams; ++i) {
      const std::string name = "s" + std::to_string(i);
      store.registerStream(name, h);
      eng.addStream(name, borrowHierarchy(h), pcfg,
                    std::make_unique<VectorSource>(makeRecords(i)));
    }
    eng.start();
    const auto stats = eng.drain();

    EXPECT_EQ(stats.recordsProcessed, totalBaseRecords);
    EXPECT_EQ(stats.busiestStreamUnits,
              static_cast<std::size_t>(heavyUnits));
    EXPECT_GT(stats.busiestStreamShare, 0.02);  // 180 of ~4980 units
    for (std::size_t i = 0; i < streams; ++i) {
      SCOPED_TRACE("stream " + std::to_string(i));
      const auto sum = eng.streamSummary(i);
      EXPECT_EQ(sum.unitsProcessed, baseSums[i].unitsProcessed);
      EXPECT_EQ(sum.recordsProcessed, baseSums[i].recordsProcessed);
      EXPECT_EQ(sum.instancesDetected, baseSums[i].instancesDetected);
      EXPECT_EQ(sum.anomaliesReported, baseSums[i].anomaliesReported);
      const auto got = store.snapshot("s" + std::to_string(i));
      ASSERT_EQ(got.size(), baseAnoms[i].size());
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].anomaly, baseAnoms[i][j].anomaly);
        EXPECT_EQ(got[j].path, baseAnoms[i][j].path);
        EXPECT_EQ(got[j].depth, baseAnoms[i][j].depth);
      }
    }
    // The zero-record stream exhausted without ever becoming ready.
    EXPECT_EQ(stats.perStream[kTiny + 1].unitsIngested, 0u);
    EXPECT_EQ(stats.perStream[kTiny + 1].runs, 0u);
  }
}

/// Determinism across engine runs: identical seeds => identical aggregate
/// counters, run-to-run, regardless of thread scheduling.
TEST(Engine, DeterministicAcrossRuns) {
  auto runOnce = [](std::size_t workers) {
    const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
    std::vector<WorkloadSpec> specs(3, spec);
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.ingestThreads = workers > 1 ? 2 : 1;
    cfg.streamQueueCapacity = 4;
    report::ConcurrentAnomalyStore store;
    DetectionEngine eng(cfg, store.sink());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      store.registerStream("s" + std::to_string(i), specs[i].hierarchy);
      eng.addStream("s" + std::to_string(i), borrowHierarchy(specs[i].hierarchy),
                    testPipelineConfig(specs[i]),
                    std::make_unique<GeneratorSource>(specs[i], 0, 40,
                                                      7 * (i + 1)));
    }
    eng.start();
    const auto stats = eng.drain();
    return std::tuple(stats.recordsProcessed, stats.instancesDetected,
                      stats.anomaliesReported, store.totalSize());
  };
  const auto oneWorker = runOnce(1);
  EXPECT_EQ(runOnce(3), oneWorker);
  EXPECT_EQ(runOnce(3), oneWorker);
}

/// Many small units with far more workers than cores (and more than
/// streams): exercises ready-queue wakeups and thread churn; completion
/// without deadlock is the assertion.
TEST(Engine, StressManyWorkersManySmallUnits) {
  const auto spec = workload::scdNetworkWorkload(Scale::kTest);
  const std::size_t streams = 12;
  const TimeUnit units = 128;
  EngineConfig cfg;
  cfg.workers = 16;  // >> cores on any CI box, > streams
  cfg.ingestThreads = 3;
  cfg.streamQueueCapacity = 2;
  cfg.totalQueueCapacity = 8;
  cfg.runBudget = 1;  // maximal scheduling churn
  std::atomic<std::size_t> results{0};
  DetectionEngine eng(cfg, [&](const std::string&, const InstanceResult&) {
    results.fetch_add(1);
  });
  for (std::size_t i = 0; i < streams; ++i) {
    eng.addStream("s" + std::to_string(i), borrowHierarchy(spec.hierarchy),
                  testPipelineConfig(spec),
                  std::make_unique<GeneratorSource>(spec, 0, units, i + 1));
  }
  eng.start();
  const auto stats = eng.drain();
  EXPECT_EQ(stats.unitsProcessed, streams * static_cast<std::size_t>(units));
  const std::size_t perStream = units - 16 + 1;  // window 16
  EXPECT_EQ(results.load(), streams * perStream);
  EXPECT_EQ(stats.instancesDetected, streams * perStream);
  for (std::size_t i = 0; i < streams; ++i) {
    EXPECT_EQ(eng.streamSummary(i).unitsProcessed,
              static_cast<std::size_t>(units));
  }
}

/// stats() is documented as pollable from any thread, including while
/// drain() finalizes timing — the poller and the drain must not race on
/// the elapsed-time bookkeeping (run under TSan in CI).
TEST(Engine, StatsPollDuringDrainIsRaceFree) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.ingestThreads = 2;
  cfg.streamQueueCapacity = 4;
  DetectionEngine eng(cfg, nullptr);
  for (std::size_t i = 0; i < 4; ++i) {
    eng.addStream("s" + std::to_string(i), borrowHierarchy(spec.hierarchy),
                  testPipelineConfig(spec),
                  std::make_unique<GeneratorSource>(spec, 0, 64, i + 1));
  }
  std::atomic<bool> done{false};
  eng.start();
  std::thread poller([&] {
    while (!done.load()) {
      const auto s = eng.stats();
      EXPECT_GE(s.elapsedSeconds, 0.0);
      EXPECT_LE(s.unitsProcessed, 4u * 64u);
    }
  });
  const auto stats = eng.drain();
  done.store(true);
  poller.join();
  EXPECT_EQ(stats.unitsProcessed, 4u * 64u);
  EXPECT_EQ(stats.unitsIngested, stats.unitsProcessed);
  EXPECT_EQ(stats.unitsDiscarded, 0u);
  EXPECT_GT(stats.elapsedSeconds, 0.0);
  // Final stats are frozen: polling later returns the same elapsed time.
  const auto later = eng.stats();
  EXPECT_EQ(later.elapsedSeconds, stats.elapsedSeconds);
}

/// streamSummary() while the pools are still running would race the
/// owning worker's pipeline; the engine fails fast instead of returning a
/// torn summary.
TEST(EngineDeathTest, StreamSummaryWhileRunningFailsFast) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  EXPECT_DEATH(
      {
        EngineConfig cfg;
        cfg.workers = 1;
        DetectionEngine eng(cfg, nullptr);
        eng.addStream("s0", borrowHierarchy(spec.hierarchy), testPipelineConfig(spec),
                      std::make_unique<GeneratorSource>(spec, 0, 100000, 1));
        eng.start();
        (void)eng.streamSummary(0);  // pools still running: must abort
      },
      "streamSummary\\(\\) while the pools are running");
}

/// stop() must actually discard the queued backlog (its documented
/// contract), not let the workers drain it. The sink blocks the worker on
/// a gate so the stream queue holds a known backlog when stop() fires.
TEST(Engine, StopDiscardsQueuedWork) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.streamQueueCapacity = 8;
  std::atomic<bool> release{false};
  PipelineConfig pcfg = testPipelineConfig(spec);
  pcfg.detector.windowLength = 2;  // instances (and the gate) fire early
  DetectionEngine eng(cfg, [&](const std::string&, const InstanceResult&) {
    while (!release.load()) std::this_thread::yield();
  });
  eng.addStream("s0", borrowHierarchy(spec.hierarchy), pcfg,
                std::make_unique<GeneratorSource>(spec, 0, 100000, 1));
  eng.start();
  // Wait until the worker is wedged in the sink and ingest has piled a
  // backlog into the stream queue behind it.
  while (eng.stats().queueLagUnits() < cfg.streamQueueCapacity) {
    std::this_thread::yield();
  }
  std::thread stopper([&] { eng.stop(); });
  // Only release the worker once stop() has demonstrably discarded the
  // backlog — otherwise a fast worker could drain it first.
  while (eng.stats().unitsDiscarded == 0) std::this_thread::yield();
  release.store(true);  // un-wedge the worker; stop() can now join it
  stopper.join();

  const auto stats = eng.stats();
  EXPECT_GT(stats.unitsDiscarded, 0u);
  EXPECT_EQ(stats.unitsIngested,
            stats.unitsProcessed + stats.unitsDiscarded);
  // The discarded backlog must not have reached the pipeline.
  EXPECT_LT(stats.unitsProcessed, stats.unitsIngested);
  // ...and the summary is safe (and stable) after stop().
  EXPECT_EQ(eng.streamSummary(0).unitsProcessed, stats.unitsProcessed);
}

/// A stream shorter than the detector window never leaves warm-up; that
/// must be visible in the summary/stats instead of silently reporting
/// "processed" units with zero instances.
TEST(Engine, SurfacesStreamsEndingInWarmup) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  EngineConfig cfg;
  cfg.workers = 1;
  DetectionEngine eng(cfg, nullptr);
  PipelineConfig pcfg = testPipelineConfig(spec);  // window 16
  eng.addStream("short", borrowHierarchy(spec.hierarchy), pcfg,
                std::make_unique<GeneratorSource>(spec, 0, 10, 3));
  eng.start();
  const auto stats = eng.drain();
  EXPECT_EQ(stats.unitsProcessed, 10u);
  EXPECT_EQ(stats.instancesDetected, 0u);
  EXPECT_EQ(stats.warmupUnitsBuffered, 10u);
  const auto sum = eng.streamSummary(0);
  EXPECT_EQ(sum.warmupUnitsBuffered, 10u);
  EXPECT_EQ(sum.instancesDetected, 0u);
}

/// stop() mid-flight must unblock parked producers and join cleanly.
TEST(Engine, StopInterruptsBackloggedIngest) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.streamQueueCapacity = 1;  // producers park almost immediately
  cfg.totalQueueCapacity = 1;
  DetectionEngine eng(cfg, nullptr);
  eng.addStream("s0", borrowHierarchy(spec.hierarchy), testPipelineConfig(spec),
                std::make_unique<GeneratorSource>(spec, 0, 100000, 1));
  eng.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  eng.stop();  // must not hang
  const auto stats = eng.stats();
  EXPECT_LT(stats.unitsProcessed, 100000u);
  EXPECT_GT(stats.elapsedSeconds, 0.0);
}

/// Junk rows in a CSV-backed stream surface through RunSummary and
/// EngineStats instead of disappearing.
TEST(Engine, SurfacesCsvJunkRowCounts) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  // A trace with two good rows, one unknown category, one malformed row.
  const std::string path = "engine_junk_test.csv";
  {
    const NodeId leaf = spec.hierarchy.leaves().front();
    std::ofstream out(path);
    out << spec.hierarchy.path(leaf) << ",100\n";
    out << "no/such/category/path,200\n";
    out << "not a csv row\n";
    out << spec.hierarchy.path(leaf) << ",900\n";
  }

  {  // Plain pipeline run: RunSummary carries the count.
    CsvSource src(path, spec.hierarchy);
    PipelineConfig cfg = testPipelineConfig(spec);
    cfg.detector.windowLength = 2;
    cfg.delta = 600;
    TiresiasPipeline pipeline(borrowHierarchy(spec.hierarchy), cfg);
    const auto sum = pipeline.run(src, nullptr);
    EXPECT_EQ(sum.junkRowsSkipped, 2u);
    EXPECT_EQ(sum.recordsProcessed, 2u);
  }

  {  // Engine run: EngineStats and streamSummary carry it too.
    EngineConfig ecfg;
    ecfg.workers = 1;
    DetectionEngine eng(ecfg, nullptr);
    PipelineConfig cfg = testPipelineConfig(spec);
    cfg.detector.windowLength = 2;
    cfg.delta = 600;
    eng.addStream("csv", borrowHierarchy(spec.hierarchy), cfg,
                  std::make_unique<CsvSource>(path, spec.hierarchy));
    eng.start();
    const auto stats = eng.drain();
    EXPECT_EQ(stats.junkRowsSkipped, 2u);
    EXPECT_EQ(eng.streamSummary(0).junkRowsSkipped, 2u);
    EXPECT_EQ(stats.recordsProcessed, 2u);
  }
  std::remove(path.c_str());
}

/// The metrics layer rides along every engine run: stage spans must nest
/// (inner stage totals bounded by their enclosing stage, everything
/// bounded by wall time) and per-unit accounting must line up exactly
/// with the engine's own counters.
TEST(Engine, MetricsStageSpansNestAndAccountForUnits) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  EngineConfig cfg;
  cfg.workers = 1;  // single worker: run-slice totals are one thread's time
  cfg.ingestThreads = 1;
  cfg.metricsSampleMillis = 5;  // fast sampler so short runs collect gauges
  DetectionEngine eng(cfg, nullptr);
  eng.addStream("s0", borrowHierarchy(spec.hierarchy), testPipelineConfig(spec),
                std::make_unique<GeneratorSource>(spec, 0, 48, 7));
  eng.start();
  const auto stats = eng.drain();
  ASSERT_TRUE(stats.metrics.enabled);
  ASSERT_FALSE(stats.metrics.stages.empty());

  using obs::Stage;
  const auto* unitLatency = stats.metrics.stage(Stage::kUnitLatency);
  ASSERT_NE(unitLatency, nullptr);
  EXPECT_EQ(unitLatency->count, stats.unitsProcessed);

  const auto* fetch = stats.metrics.stage(Stage::kSourceFetch);
  const auto* flush = stats.metrics.stage(Stage::kBatchFlush);
  ASSERT_NE(fetch, nullptr);
  ASSERT_NE(flush, nullptr);
  // The source pull happens inside the batcher flush span, so its total
  // can never exceed the flush total (span nesting).
  EXPECT_LE(fetch->totalSeconds, flush->totalSeconds);

  const auto* observe = stats.metrics.stage(Stage::kAdaObserve);
  const auto* slice = stats.metrics.stage(Stage::kRunSlice);
  ASSERT_NE(observe, nullptr);
  ASSERT_NE(slice, nullptr);
  EXPECT_EQ(observe->count, stats.unitsProcessed);
  // Detector observe happens inside run slices; run slices happen on one
  // worker thread, so neither can exceed the engine's wall time.
  EXPECT_LE(observe->totalSeconds, slice->totalSeconds);
  EXPECT_LE(slice->totalSeconds, stats.elapsedSeconds);
  EXPECT_LE(flush->totalSeconds, stats.elapsedSeconds);

  // Every row must be internally consistent: ordered percentiles bounded
  // by the tracked max.
  for (const auto& st : stats.metrics.stages) {
    SCOPED_TRACE(st.name);
    EXPECT_GT(st.count, 0u);
    EXPECT_LE(st.p50, st.p90);
    EXPECT_LE(st.p90, st.p99);
    EXPECT_LE(st.p99, st.max);
  }
  // The sampler ran at least once (drain takes a parting sample).
  EXPECT_FALSE(stats.metrics.gauges.empty());
}

/// metrics=false must disable the whole layer: no registry, no snapshot
/// content, identical engine results otherwise.
TEST(Engine, MetricsDisabledLeavesSnapshotEmpty) {
  const auto spec = workload::ccdNetworkWorkload(Scale::kTest);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.metrics = false;
  DetectionEngine eng(cfg, nullptr);
  eng.addStream("s0", borrowHierarchy(spec.hierarchy), testPipelineConfig(spec),
                std::make_unique<GeneratorSource>(spec, 0, 24, 7));
  eng.start();
  const auto stats = eng.drain();
  EXPECT_GT(stats.unitsProcessed, 0u);
  EXPECT_FALSE(stats.metrics.enabled);
  EXPECT_TRUE(stats.metrics.stages.empty());
  EXPECT_TRUE(stats.metrics.gauges.empty());
}

/// A fleet registered against ONE shared spec must hold one engine-owned
/// hierarchy, and the engine must keep it alive even after the caller
/// drops every other reference — the lifetime footgun the shared-handle
/// addStream exists to close.
TEST(Engine, SharedHierarchyFleetKeepsOneCopyAlive) {
  auto spec = std::make_shared<const WorkloadSpec>(
      workload::ccdNetworkWorkload(Scale::kTest));
  EngineConfig cfg;
  cfg.workers = 2;
  DetectionEngine eng(cfg, nullptr);
  for (std::size_t i = 0; i < 16; ++i) {
    eng.addStream("s" + std::to_string(i), workload::sharedHierarchy(spec),
                  testPipelineConfig(*spec),
                  std::make_unique<GeneratorSource>(*spec, 0, 12, 50 + i));
  }
  // Sources borrow the spec by reference, so the spec object must stay
  // alive for ingest — but the *caller's handle* can go: the engine's
  // aliasing handles keep the control block (and thus the spec) pinned.
  std::weak_ptr<const WorkloadSpec> watch = spec;
  const WorkloadSpec* raw = spec.get();
  spec.reset();
  ASSERT_FALSE(watch.expired()) << "engine must pin the shared spec";
  EXPECT_EQ(watch.lock().get(), raw);

  eng.start();
  const auto stats = eng.drain();
  EXPECT_EQ(stats.streams, 16u);
  EXPECT_EQ(stats.distinctHierarchies, 1u)
      << "16 streams over one spec must register exactly one hierarchy";
  EXPECT_GT(stats.recordsProcessed, 0u);
}

/// Distinct hierarchies registered through distinct handles stay distinct:
/// the registry dedupes by object identity, not by handle.
TEST(Engine, DistinctHierarchiesCountedPerObject) {
  const auto net = workload::ccdNetworkWorkload(Scale::kTest);
  const auto scd = workload::scdNetworkWorkload(Scale::kTest);
  EngineConfig cfg;
  cfg.workers = 2;
  DetectionEngine eng(cfg, nullptr);
  // Two borrowed handles to the SAME object still count once.
  eng.addStream("a", borrowHierarchy(net.hierarchy), testPipelineConfig(net),
                std::make_unique<GeneratorSource>(net, 0, 8, 1));
  eng.addStream("b", borrowHierarchy(net.hierarchy), testPipelineConfig(net),
                std::make_unique<GeneratorSource>(net, 0, 8, 2));
  eng.addStream("c", borrowHierarchy(scd.hierarchy), testPipelineConfig(scd),
                std::make_unique<GeneratorSource>(scd, 0, 8, 3));
  eng.start();
  const auto stats = eng.drain();
  EXPECT_EQ(stats.distinctHierarchies, 2u);
}

/// Pooled workspaces + an aggressive resident cap must not change a single
/// result: every stream's summary and anomaly list stays bit-identical to
/// an uninterrupted unlimited-residency run, at sequential and contended
/// worker counts, while hibernation provably cycled streams in and out.
TEST(Engine, HibernationEquivalentToUnlimitedResidency) {
  const std::vector<WorkloadSpec> specs = {
      workload::ccdNetworkWorkload(Scale::kTest),
      workload::ccdTroubleWorkload(Scale::kTest),
      workload::scdNetworkWorkload(Scale::kTest),
  };
  const std::size_t streams = 12;
  const TimeUnit units = 32;

  auto run = [&](std::size_t workers, std::size_t maxResident) {
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.ingestThreads = 2;
    cfg.runBudget = 2;
    cfg.streamQueueCapacity = 2;  // interleave units across the fleet
    cfg.maxResidentStreams = maxResident;
    report::ConcurrentAnomalyStore store;
    DetectionEngine eng(cfg, store.sink());
    for (std::size_t i = 0; i < streams; ++i) {
      const auto& spec = specs[i % specs.size()];
      const std::string name = "s" + std::to_string(i);
      store.registerStream(name, spec.hierarchy);
      eng.addStream(name, borrowHierarchy(spec.hierarchy),
                    testPipelineConfig(spec),
                    std::make_unique<GeneratorSource>(spec, 0, units, 70 + i));
    }
    eng.start();
    auto stats = eng.drain();
    std::vector<std::vector<report::StoredAnomaly>> anomalies;
    for (std::size_t i = 0; i < streams; ++i) {
      anomalies.push_back(store.snapshot("s" + std::to_string(i)));
    }
    return std::make_pair(std::move(stats), std::move(anomalies));
  };

  const auto [baseStats, baseAnomalies] = run(1, 0);  // unlimited residency
  EXPECT_EQ(baseStats.hibernateEvictions, 0u);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto [stats, anomalies] = run(workers, 2);  // aggressive cap
    EXPECT_GT(stats.hibernateEvictions, 0u)
        << "cap 2 over 12 streams must actually hibernate";
    EXPECT_GT(stats.hibernateWakes, 0u);
    EXPECT_LE(stats.residentStreams, 2 + workers);
    EXPECT_EQ(stats.unitsProcessed, baseStats.unitsProcessed);
    EXPECT_EQ(stats.recordsProcessed, baseStats.recordsProcessed);
    ASSERT_EQ(stats.perStream.size(), baseStats.perStream.size());
    for (std::size_t i = 0; i < streams; ++i) {
      SCOPED_TRACE(baseStats.perStream[i].name);
      EXPECT_EQ(stats.perStream[i].unitsProcessed,
                baseStats.perStream[i].unitsProcessed);
      EXPECT_EQ(stats.perStream[i].anomaliesReported,
                baseStats.perStream[i].anomaliesReported);
      const auto& got = anomalies[i];
      const auto& want = baseAnomalies[i];
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].anomaly, want[j].anomaly);
        EXPECT_EQ(got[j].path, want[j].path);
        EXPECT_EQ(got[j].depth, want[j].depth);
      }
    }
  }
}

/// Resident memory follows the worker count, not the fleet size: a fleet
/// of 64 streams per worker over one shared hierarchy, advanced under a
/// resident cap, holds at most one full-size workspace per worker — at
/// least 50x less than one bound workspace per stream — while hibernation
/// cycles streams in and out within the best-effort cap.
TEST(Engine, FleetResidencyIsBoundedByWorkersNotStreams) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kStreams = 64 * kWorkers;
  constexpr std::size_t kCap = 16;
  WorkloadSpec base = workload::ccdNetworkWorkload(Scale::kTest);
  base.baseRatePerUnit = 4;  // thin per-stream traffic: fleet-shaped load
  const auto spec = std::make_shared<const WorkloadSpec>(std::move(base));
  const std::size_t nodes = spec->hierarchy.size();
  DetectWorkspace bound;
  bound.bind(nodes);
  // Use grows only the touched-node buffer; this fleet's thin units touch
  // far fewer nodes than the hierarchy holds, so one entry per node caps it.
  const std::size_t fullSize = bound.bytes() + nodes * sizeof(NodeId);

  EngineConfig cfg;
  cfg.workers = kWorkers;
  cfg.streamQueueCapacity = 2;  // several ingest visits per stream: wakes
  cfg.maxResidentStreams = kCap;
  DetectionEngine eng(cfg, nullptr);
  for (std::size_t i = 0; i < kStreams; ++i) {
    // Skewed: every 64th stream is 8x longer than the rest.
    const TimeUnit units = i % 64 == 0 ? 24 : 3;
    eng.addStream("r" + std::to_string(i), workload::sharedHierarchy(spec),
                  testPipelineConfig(*spec),
                  std::make_unique<GeneratorSource>(*spec, 0, units, 1 + i));
  }
  eng.start();
  const auto stats = eng.drain();

  EXPECT_EQ(stats.distinctHierarchies, 1u);
  ASSERT_GT(stats.workspaceBytes, 0u);
  EXPECT_LE(stats.workspaceBytes, kWorkers * fullSize);
  const double reduction = static_cast<double>(kStreams * bound.bytes()) /
                           static_cast<double>(stats.workspaceBytes);
  RecordProperty("reduction_x", std::to_string(reduction));
  EXPECT_GE(reduction, 50.0) << "vs one bound workspace per stream";
  EXPECT_GT(stats.hibernateEvictions, 0u);
  EXPECT_GT(stats.hibernateWakes, 0u);
  EXPECT_LE(stats.residentStreams, kCap + kWorkers);
}

/// A capped fleet must not thrash its LRU: with the default queue bounds a
/// whole fleet of streams can hold queued work at once, and cycling one
/// unit (or one run budget) at a time through more streams than the cap
/// wakes nearly every claim. Under a cap one ingest visit admits a
/// stream's buffered units and one claim may drain them, so a stream is
/// woken at most once per queueful of units — and the results stay
/// bit-identical to an uncapped run.
TEST(Engine, CappedFleetWakesAtMostOncePerQueueful) {
  const std::vector<WorkloadSpec> specs = {
      workload::ccdNetworkWorkload(Scale::kTest),
      workload::ccdTroubleWorkload(Scale::kTest),
      workload::scdNetworkWorkload(Scale::kTest),
  };
  const std::size_t streams = 48;
  const TimeUnit units = 32;

  auto run = [&](std::size_t maxResident) {
    EngineConfig cfg;  // default queue bounds and run budget
    cfg.workers = 2;
    cfg.maxResidentStreams = maxResident;
    report::ConcurrentAnomalyStore store;
    DetectionEngine eng(cfg, store.sink());
    for (std::size_t i = 0; i < streams; ++i) {
      const auto& spec = specs[i % specs.size()];
      const std::string name = "s" + std::to_string(i);
      store.registerStream(name, spec.hierarchy);
      eng.addStream(name, borrowHierarchy(spec.hierarchy),
                    testPipelineConfig(spec),
                    std::make_unique<GeneratorSource>(spec, 0, units, 300 + i));
    }
    eng.start();
    auto stats = eng.drain();
    std::vector<std::vector<report::StoredAnomaly>> anomalies;
    std::vector<RunSummary> summaries;
    for (std::size_t i = 0; i < streams; ++i) {
      anomalies.push_back(store.snapshot("s" + std::to_string(i)));
      summaries.push_back(eng.streamSummary(i));
    }
    return std::make_tuple(std::move(stats), std::move(anomalies),
                           std::move(summaries));
  };

  const auto [baseStats, baseAnomalies, baseSummaries] = run(0);
  const auto [stats, anomalies, summaries] = run(8);
  const std::size_t queueful = EngineConfig{}.streamQueueCapacity;
  const std::size_t visits =
      (static_cast<std::size_t>(units) + queueful - 1) / queueful;
  EXPECT_GT(stats.hibernateEvictions, 0u) << "cap 8 over 48 streams";
  EXPECT_LE(stats.hibernateWakes, streams * visits)
      << "evictions=" << stats.hibernateEvictions;
  EXPECT_EQ(stats.unitsProcessed, baseStats.unitsProcessed);
  EXPECT_EQ(stats.recordsProcessed, baseStats.recordsProcessed);
  for (std::size_t i = 0; i < streams; ++i) {
    SCOPED_TRACE("s" + std::to_string(i));
    EXPECT_EQ(summaries[i].unitsProcessed, baseSummaries[i].unitsProcessed);
    EXPECT_EQ(summaries[i].recordsProcessed,
              baseSummaries[i].recordsProcessed);
    EXPECT_EQ(summaries[i].instancesDetected,
              baseSummaries[i].instancesDetected);
    EXPECT_EQ(summaries[i].anomaliesReported,
              baseSummaries[i].anomaliesReported);
    const auto& got = anomalies[i];
    const auto& want = baseAnomalies[i];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].anomaly, want[j].anomaly);
      EXPECT_EQ(got[j].path, want[j].path);
      EXPECT_EQ(got[j].depth, want[j].depth);
    }
  }
}

}  // namespace
}  // namespace tiresias
