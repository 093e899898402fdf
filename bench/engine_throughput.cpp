// Engine scaling bench: the two engine throughput claims that need at
// least 4 hardware threads to resolve, over the CCD-network workload.
//
//  1. Worker grid: aggregate detection throughput of the task-scheduled
//     engine for 8 uniform generated streams at 1/2/4/8 workers. 4
//     workers must reach >= 2x the records/sec of 1 worker.
//
//  2. Metrics overhead: the uniform workers=1 scenario with the
//     obs::MetricsRegistry on vs off (best of 3 alternating runs per
//     side); the overhead must stay < 2%.
//
// Both CHECKs are skipped below 4 hardware threads. Prints its tables and
// writes nothing. Usage: bench_engine_throughput [units-per-stream]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "timeseries/ewma.h"
#include "workload/generator.h"

namespace {

using namespace tiresias;
using engine::DetectionEngine;
using engine::EngineConfig;
using engine::EngineStats;
using workload::GeneratorSource;
using workload::Scale;
using workload::WorkloadSpec;

PipelineConfig pipelineConfig(const WorkloadSpec& spec) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 64;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  return cfg;
}

/// `streams` uniform generated streams of `units` units each.
EngineStats runEngine(const WorkloadSpec& spec, std::size_t streams,
                      TimeUnit units, std::size_t workers, bool metrics) {
  EngineConfig cfg;
  cfg.workers = workers;
  cfg.ingestThreads = 2;
  cfg.streamQueueCapacity = 32;
  cfg.totalQueueCapacity = 256;
  cfg.metrics = metrics;
  // Null sink: measure pure scheduling + detection, not result-store
  // insertion.
  DetectionEngine eng(cfg, nullptr);
  for (std::size_t i = 0; i < streams; ++i) {
    eng.addStream("s" + std::to_string(i), borrowHierarchy(spec.hierarchy),
                  pipelineConfig(spec),
                  std::make_unique<GeneratorSource>(spec, 0, units, 1));
  }
  eng.start();
  return eng.drain();
}

}  // namespace

int main(int argc, char** argv) {
  const TimeUnit units = argc > 1 ? std::atoll(argv[1]) : 512;
  const std::size_t streams = 8;
  const std::size_t workerGrid[] = {1, 2, 4, 8};

  bench::banner("task-scheduled engine (src/engine)",
                "aggregate records/sec of 8 uniform streams at 1/2/4/8 "
                "workers; metrics-on overhead at 1 worker");
  const unsigned cores = std::thread::hardware_concurrency();
  bench::note("hardware threads: " + std::to_string(cores));
  bench::note("per-stream units: " + std::to_string(units));
  const WorkloadSpec spec = workload::ccdNetworkWorkload(Scale::kMedium);
  bool ok = true;

  // ---- Worker grid ----
  double perSecond[4] = {};
  std::printf("\nengine, %zu uniform generated streams:\n", streams);
  std::printf("%-8s %12s %12s %10s %10s %9s %14s\n", "workers", "records",
              "elapsed(s)", "claims", "requeues", "bp-waits", "records/sec");
  for (std::size_t i = 0; i < 4; ++i) {
    const EngineStats s = runEngine(spec, streams, units, workerGrid[i], true);
    perSecond[i] = s.recordsPerSecond;
    std::printf("%-8zu %12zu %12.3f %10zu %10zu %9zu %14.0f\n",
                workerGrid[i], s.recordsProcessed, s.elapsedSeconds,
                s.scheduler.claims, s.scheduler.requeues, s.backpressureWaits,
                s.recordsPerSecond);
  }
  const double scale4 = perSecond[2] / perSecond[0];
  std::printf("4-worker speedup over 1 worker: %.2fx\n", scale4);
  if (cores >= 4) {
    ok &= bench::check(scale4 >= 2.0,
                       "aggregate throughput at 4 workers >= 2x 1 worker");
  } else {
    bench::note("< 4 hardware threads: scaling CHECK skipped");
  }

  // ---- Metrics overhead: registry on vs off, uniform workers=1 ----
  // Alternating runs absorb thermal/cache drift; best of 3 per side.
  // workers=1 is the least forgiving scenario: every per-unit recording
  // cost lands on the one thread doing all the work.
  double metricsOffBest = 0.0, metricsOnBest = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    metricsOffBest =
        std::max(metricsOffBest,
                 runEngine(spec, streams, units, 1, false).recordsPerSecond);
    metricsOnBest =
        std::max(metricsOnBest,
                 runEngine(spec, streams, units, 1, true).recordsPerSecond);
  }
  const double overheadPct =
      metricsOffBest > 0.0
          ? (metricsOffBest - metricsOnBest) / metricsOffBest * 100.0
          : 0.0;
  std::printf("\nmetrics overhead (uniform, workers=1, best of 3 per side):\n");
  std::printf("  metrics off: %14.0f records/sec\n", metricsOffBest);
  std::printf("  metrics on:  %14.0f records/sec\n", metricsOnBest);
  std::printf("  overhead: %.2f%%\n", overheadPct);
  if (cores >= 4) {
    ok &= bench::check(overheadPct < 2.0,
                       "metrics overhead < 2% on the uniform workers=1 "
                       "scenario");
  } else {
    bench::note("< 4 hardware threads: metrics-overhead CHECK skipped "
                "(timing too noisy for a 2% bound)");
  }
  return ok ? 0 : 1;
}
