// fleet_hibernate: many small streams under a resident-stream cap.
//
// 3,000 CCD network streams at test scale, four records per unit, EWMA
// forecasts over a 16-unit window, two workers and a cap of 256 resident
// pipelines with in-memory hibernation. Detection per
// unit is tiny, so scheduling and the persist layer's hibernate (on
// eviction) and wake (on the next unit) dominate; memory is what the cap
// is for, which makes peak_rss_mb the metric to watch here.
#include <cstdio>

#include "bench.h"
#include "timeseries/ewma.h"
#include "workload/ccd.h"

namespace tiresias::bench {

namespace {

constexpr TimeUnit kUnits = 32;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kResidentCap = 256;
constexpr std::size_t kWorkers = 2;

std::size_t fleetStreams(const Options& opts) {
  return opts.smoke ? 600 : 3000;
}

std::shared_ptr<const workload::WorkloadSpec> fleetSpec() {
  workload::WorkloadSpec spec =
      workload::ccdNetworkWorkload(workload::Scale::kTest);
  spec.baseRatePerUnit = 4.0;
  return std::make_shared<const workload::WorkloadSpec>(std::move(spec));
}

PipelineConfig fleetConfig(const workload::WorkloadSpec& spec) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  // θ low enough that a four-record unit still has heavy hitters to track.
  cfg.detector.theta = 2;
  cfg.detector.windowLength = kWindow;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  return cfg;
}

std::string streamName(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "f%05zu", i);
  return buf;
}

/// The fleet's inputs: one generator spec, and per stream its own seed
/// and one incident after the warm-up window. Thousands of small
/// independent draws keep the total work nearly the same for every seed.
struct FleetInputs {
  std::shared_ptr<const workload::WorkloadSpec> spec = fleetSpec();
  std::vector<std::shared_ptr<const workload::AnomalyInjector>> injectors;
  std::vector<std::string> names;

  explicit FleetInputs(const Options& opts) {
    for (std::size_t i = 0; i < fleetStreams(opts); ++i) {
      names.push_back(streamName(i));
      injectors.push_back(makeInjector(spec->hierarchy,
                                       streamSeed(opts.seed, 1'000'000 + i),
                                       kWindow, kUnits, 1, 12.0));
    }
  }

  std::unique_ptr<RecordSource> open(const Options& opts,
                                     std::size_t i) const {
    return std::make_unique<workload::GeneratorSource>(
        *spec, 0, kUnits, streamSeed(opts.seed, i), injectors[i]);
  }
};

}  // namespace

std::string fleetShape(const Options& opts) {
  return std::to_string(fleetStreams(opts)) + "x" + std::to_string(kUnits);
}

void prepareFleet(const Options& opts) {
  const FleetInputs inputs(opts);
  DigestSet digests(inputs.names);
  Manifest manifest;
  std::vector<Record> chunk;
  for (std::size_t i = 0; i < inputs.names.size(); ++i) {
    const auto source = inputs.open(opts, i);
    while (source->nextBatch(chunk, 4096) > 0) {
      digests.addRecords(i, chunk.data(), chunk.size());
      manifest.records += chunk.size();
    }
  }
  manifest.inputDigest = digests.value();
  writeManifest(opts.inputDir, manifest);
}

void runFleet(const Options& opts, Report& report) {
  const FleetInputs inputs(opts);
  Manifest manifest;
  readManifest(opts.inputDir, manifest);  // runWorkload reports a miss

  Workload w;
  w.pageEvery = 10;
  w.round = [&]() {
    Round round;
    const double t0 = nowSeconds();
    auto spec = fleetSpec();
    const auto hierarchy = workload::sharedHierarchy(spec);
    const PipelineConfig cfg = fleetConfig(*spec);
    DigestSet outputs(inputs.names);
    report::ConcurrentAnomalyStore store;
    for (const std::string& name : inputs.names) {
      store.registerStream(name, spec->hierarchy);
    }
    UnitLatency latency(inputs.names.size(), kUnits, kWindow, kUnits - 1);
    engine::DetectionEngine eng(
        engineConfig(kWorkers, kResidentCap),
        makeSink(outputs, store, opts.corrupt, latency));
    for (std::size_t i = 0; i < inputs.names.size(); ++i) {
      eng.addStream(inputs.names[i], hierarchy, cfg,
                    std::make_unique<ArrivalSource>(inputs.open(opts, i),
                                                    latency, i, spec->unit));
    }
    eng.start();
    const double t1 = nowSeconds();
    const double cpu1 = processCpuSeconds();
    round.stats = eng.drain();
    const double t2 = nowSeconds();
    const double cpu2 = processCpuSeconds();

    const auto& st = round.stats;
    const double records =
        static_cast<double>(std::max<std::size_t>(st.recordsProcessed, 1));
    round.setupSeconds = t1 - t0;
    round.recordsPerSecond = records / (t2 - t1);
    round.cpuNsPerRecord = (cpu2 - cpu1) * 1e9 / records;
    latency.finish(round);
    round.digest = outputs.value();
    round.offered = manifest.records;
    round.failed = (manifest.records > st.recordsProcessed
                        ? manifest.records - st.recordsProcessed
                        : 0) +
                   st.unitsDiscarded;
    return round;
  };

  const auto hierarchy = workload::sharedHierarchy(inputs.spec);
  for (std::size_t i = 0; i < inputs.names.size(); ++i) {
    w.reference.push_back({inputs.names[i], hierarchy,
                           fleetConfig(*inputs.spec),
                           [&inputs, &opts, i] { return inputs.open(opts, i); }});
  }
  runWorkload(opts, w, report);
}

}  // namespace tiresias::bench
