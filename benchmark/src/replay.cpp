// tsrb_replay and csv_replay: closed-batch replays of trace files through
// DetectionEngine with one worker, configured like `tiresias_cli detect`
// (Holt-Winters from the Step-3 seasonality analysis, ℓ=288, θ=8,
// RT=2.8, DT=8).
//
//   tsrb_replay  CCD network-path hierarchy at paper scale (46,117 nodes)
//                from pre-converted `.tsrb` files. Detection-bound; the
//                source does almost nothing, so a core/timeseries change
//                shows here and an ingest change should not.
//   csv_replay   SCD hierarchy at medium scale (10,201 nodes, flat
//                120-wide top level) from CSV files. Same detector stack on
//                a different tree shape, with CSV parsing a real share of
//                the CPU: an ingest change shows here.
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "stream/binary_source.h"
#include "workload/ccd.h"
#include "workload/scd.h"

namespace tiresias::bench {

namespace {

constexpr std::size_t kStreams = 8;
constexpr std::size_t kWindow = 288;
/// Latency samples start this many units after the window fills: by then
/// every stream's warm-up burst (Step 3 plus ℓ buffered units stepped at
/// once) has drained from the queues.
constexpr TimeUnit kSettleUnits = 64;

struct ReplaySize {
  std::size_t streams;
  TimeUnit units;  // per stream
};

ReplaySize replaySize(const Options& opts, bool binary) {
  if (opts.smoke) return {2, 400};
  return binary ? ReplaySize{kStreams, 1024} : ReplaySize{kStreams, 768};
}

workload::WorkloadSpec replaySpec(bool binary) {
  return binary ? workload::ccdNetworkWorkload(workload::Scale::kPaper)
                : workload::scdNetworkWorkload(workload::Scale::kMedium);
}

PipelineConfig detectConfig(const workload::WorkloadSpec& spec) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8;
  cfg.detector.windowLength = kWindow;
  cfg.detector.ratioThreshold = 2.8;
  cfg.detector.diffThreshold = 8;
  cfg.candidatePeriods = {static_cast<std::size_t>(kDay / spec.unit),
                          static_cast<std::size_t>(kWeek / spec.unit)};
  return cfg;
}

std::string streamName(std::size_t i) { return "s" + std::to_string(i); }

std::string tracePath(const std::string& dir, std::size_t i, bool binary) {
  return dir + "/" + streamName(i) + (binary ? ".tsrb" : ".csv");
}

std::unique_ptr<RecordSource> openTrace(const std::string& path,
                                        const Hierarchy& h, bool binary) {
  if (binary) return std::make_unique<BinarySource>(path, h);
  return std::make_unique<CsvSource>(path, h);
}

}  // namespace

std::string replayShape(const Options& opts, bool binary) {
  const ReplaySize size = replaySize(opts, binary);
  return std::to_string(size.streams) + "x" + std::to_string(size.units);
}

void prepareReplay(const Options& opts, bool binary) {
  const ReplaySize size = replaySize(opts, binary);
  const workload::WorkloadSpec spec = replaySpec(binary);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < size.streams; ++i) names.push_back(streamName(i));
  DigestSet inputs(names);
  Manifest manifest;
  std::vector<Record> records;
  std::vector<Record> chunk;
  for (std::size_t i = 0; i < size.streams; ++i) {
    // Incidents land after the warm-up window, where they can be judged.
    const auto injector = makeInjector(
        spec.hierarchy, streamSeed(opts.seed, 1000 + i),
        static_cast<TimeUnit>(kWindow), size.units,
        static_cast<std::size_t>(size.units) / 32, 0.25 * spec.baseRatePerUnit);
    workload::GeneratorSource source(spec, 0, size.units,
                                     streamSeed(opts.seed, i), injector);
    records.clear();
    while (source.nextBatch(chunk, 1 << 16) > 0) {
      records.insert(records.end(), chunk.begin(), chunk.end());
    }
    inputs.addRecords(i, records.data(), records.size());
    manifest.records += records.size();
    const std::string csv = tracePath(opts.inputDir, i, false);
    writeRecordsCsv(csv, spec.hierarchy, records);
    if (binary) {
      convertCsvTraceToBinary(csv, tracePath(opts.inputDir, i, true));
      std::filesystem::remove(csv);
    }
  }
  manifest.inputDigest = inputs.value();
  writeManifest(opts.inputDir, manifest);
}

void runReplay(const Options& opts, bool binary, Report& report) {
  const ReplaySize size = replaySize(opts, binary);
  Manifest manifest;
  readManifest(opts.inputDir, manifest);  // runWorkload reports a miss
  std::vector<std::string> names;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < size.streams; ++i) {
    names.push_back(streamName(i));
    paths.push_back(tracePath(opts.inputDir, i, binary));
  }

  Workload w;
  w.ledgerCheck = true;
  w.round = [&]() {
    Round round;
    const double t0 = nowSeconds();
    // Set-up: hierarchy build, stream registration, source open (a .tsrb
    // resolves its whole path table here), pool start.
    auto spec = std::make_shared<const workload::WorkloadSpec>(
        replaySpec(binary));
    const auto hierarchy = workload::sharedHierarchy(spec);
    const PipelineConfig cfg = detectConfig(*spec);
    DigestSet outputs(names);
    report::ConcurrentAnomalyStore store;
    for (const std::string& name : names) {
      store.registerStream(name, spec->hierarchy);
    }
    UnitLatency latency(names.size(), size.units, kWindow + kSettleUnits,
                        size.units - 1);
    engine::DetectionEngine eng(
        engineConfig(1, 0), makeSink(outputs, store, opts.corrupt, latency));
    for (std::size_t i = 0; i < names.size(); ++i) {
      eng.addStream(names[i], hierarchy, cfg,
                    std::make_unique<ArrivalSource>(
                        openTrace(paths[i], *hierarchy, binary), latency, i,
                        spec->unit));
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
                   st.junkRowsSkipped + st.unitsDiscarded;
    return round;
  };

  auto spec = std::make_shared<const workload::WorkloadSpec>(replaySpec(binary));
  const auto hierarchy = workload::sharedHierarchy(spec);
  for (std::size_t i = 0; i < names.size(); ++i) {
    w.reference.push_back(
        {names[i], hierarchy, detectConfig(*spec),
         [path = paths[i], hierarchy, binary] {
           return openTrace(path, *hierarchy, binary);
         }});
  }
  runWorkload(opts, w, report);
}

}  // namespace tiresias::bench
