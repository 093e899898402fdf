// The sequential oracle and the traced ledger.
//
// The oracle is TiresiasPipeline::run over a fresh source per stream, one
// stream after another: the reference every engine round must match. The
// traced pass re-expresses run() as its own TimeUnitBatcher +
// processUnit loop so the benchmark can put a span around each layer
// boundary (source pull, batching, unit processing, result sink) and read
// the detector's Table III stage totals underneath. Its digest must match
// the oracle too, so the spans provably observe the same computation.
#include <cstdio>

#include "bench.h"
#include "common/timer.h"
#include "core/detector.h"

namespace tiresias::bench {

namespace {

/// Fingerprints every record the pipeline pulls (the input digest).
class HashingSource final : public RecordSource {
 public:
  HashingSource(RecordSource& inner, DigestSet& digests, std::size_t stream)
      : inner_(inner), digests_(digests), stream_(stream) {}

  std::optional<Record> next() override {
    auto r = inner_.next();
    if (r) digests_.addRecords(stream_, &*r, 1);
    return r;
  }
  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override {
    const std::size_t n = inner_.nextBatch(out, max);
    digests_.addRecords(stream_, out.data(), n);
    return n;
  }
  std::size_t skippedRecords() const override {
    return inner_.skippedRecords();
  }

 private:
  RecordSource& inner_;
  DigestSet& digests_;
  std::size_t stream_;
};

/// Adds a detector's cumulative Table III stage totals to the ledger.
void bankStages(const Detector* detector, Ledger& ledger) {
  if (detector == nullptr) return;
  const StageTimer& t = detector->stages();
  ledger.updateNs += t.totalSeconds(kStageUpdateHierarchies) * 1e9;
  ledger.createNs += t.totalSeconds(kStageCreateSeries) * 1e9;
  ledger.judgeNs += t.totalSeconds(kStageDetect) * 1e9;
}

void tracedStream(const StreamSpec& spec, std::size_t id, bool paged,
                  DigestSet& outputs, report::ConcurrentAnomalyStore& store,
                  SequentialPass& pass) {
  Ledger& ledger = pass.ledger;
  const std::int64_t open0 = monotonicNanos();
  TimingSource source(spec.open());
  TiresiasPipeline pipeline(spec.hierarchy, spec.config);
  TimeUnitBatcher batcher(source, spec.config.delta, pipeline.resumeTime());
  ledger.openNs += static_cast<double>(monotonicNanos() - open0);

  std::int64_t sinkNs = 0;
  const TiresiasPipeline::ResultCallback sink = [&](const InstanceResult& r) {
    const std::int64_t s0 = monotonicNanos();
    outputs.addResult(id, r);
    store.add(spec.name, r);
    ++ledger.results;
    ledger.shhhTotal += r.shhh.size();
    sinkNs += monotonicNanos() - s0;
  };
  // Paging mirrors the engine's: the workspace is lent before the wake.
  const auto workspace = paged ? std::make_shared<DetectWorkspace>() : nullptr;
  RunSummary summary;
  TimeUnitBatch batch;
  for (;;) {
    const std::int64_t b0 = monotonicNanos();
    const bool more = batcher.next(batch);
    ledger.batchNs += static_cast<double>(monotonicNanos() - b0);
    if (!more) break;
    const std::int64_t p0 = monotonicNanos();
    pipeline.processUnit(batch, sink, summary);
    ledger.processNs += static_cast<double>(monotonicNanos() - p0);
    if (paged && pipeline.holdsState()) {
      bankStages(pipeline.detector(), ledger);  // a wake starts them at 0
      persist::Serializer state;
      const std::int64_t h0 = monotonicNanos();
      pipeline.hibernate(state);
      const std::int64_t w0 = monotonicNanos();
      pipeline.attachWorkspace(workspace);
      persist::Deserializer in(state.data());
      pipeline.wake(in);
      const std::int64_t w1 = monotonicNanos();
      ledger.hibernateNs += static_cast<double>(w0 - h0);
      ledger.wakeNs += static_cast<double>(w1 - w0);
      ledger.stateBytes += state.size();
      ++ledger.pagings;
    }
  }
  bankStages(pipeline.detector(), ledger);
  if (const Detector* d = pipeline.detector()) {
    ledger.seriesTotal += d->memoryStats().seriesCount;
  }
  ledger.fetchNs += static_cast<double>(source.fetchNs());
  ledger.sinkNs += static_cast<double>(sinkNs);
  pass.records += summary.recordsProcessed;
}

}  // namespace

std::size_t TimingSource::nextBatch(std::vector<Record>& out,
                                    std::size_t max) {
  const std::int64_t t0 = monotonicNanos();
  const std::size_t n = inner_->nextBatch(out, max);
  fetchNs_.fetch_add(monotonicNanos() - t0, std::memory_order_relaxed);
  return n;
}

SequentialPass runSequential(const std::vector<StreamSpec>& streams,
                             PassMode mode, std::size_t pageEvery) {
  std::vector<std::string> names;
  names.reserve(streams.size());
  for (const StreamSpec& s : streams) names.push_back(s.name);
  DigestSet outputs(names);
  DigestSet inputs(names);
  // The sink does what the engine rounds' sink does: fingerprint + store.
  report::ConcurrentAnomalyStore store;
  for (const StreamSpec& s : streams) store.registerStream(s.name, *s.hierarchy);
  SequentialPass pass;
  const std::int64_t t0 = monotonicNanos();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamSpec& spec = streams[i];
    if (mode == PassMode::kTraced) {
      tracedStream(spec, i, pageEvery > 0 && i % pageEvery == 0, outputs,
                   store, pass);
      continue;
    }
    const auto source = spec.open();
    TiresiasPipeline pipeline(spec.hierarchy, spec.config);
    const auto sink = [&](const InstanceResult& r) {
      outputs.addResult(i, r);
      store.add(spec.name, r);
    };
    RunSummary summary;
    if (mode == PassMode::kOracle) {
      HashingSource hashing(*source, inputs, i);
      summary = pipeline.run(hashing, sink);
    } else {
      summary = pipeline.run(*source, sink);
    }
    pass.records += summary.recordsProcessed;
  }
  pass.ledger.wallNs = static_cast<double>(monotonicNanos() - t0);
  pass.outputDigest = outputs.value();
  pass.inputDigest = inputs.value();
  return pass;
}

void sequentialLayers(const std::vector<StreamSpec>& streams,
                      std::size_t pageEvery, double seconds,
                      double cpuNsPerRecord, std::uint64_t reference,
                      Report& report, Layers& out) {
  std::vector<double> untracedWall;
  std::vector<double> tracedWall;
  SequentialPass traced;
  repeatRounds(seconds, 1, [&](std::size_t) {
    const SequentialPass u = runSequential(streams, PassMode::kUntraced);
    traced = runSequential(streams, PassMode::kTraced, pageEvery);
    if (u.outputDigest != reference || traced.outputDigest != reference) {
      report.fail("a sequential timing pass disagrees with the oracle");
    }
    untracedWall.push_back(u.ledger.wallNs);
    tracedWall.push_back(traced.ledger.pipelineWallNs());
  });
  const Ledger& l = traced.ledger;
  const double records =
      static_cast<double>(std::max<std::size_t>(traced.records, 1));
  const double stagesNs = l.updateNs + l.createNs + l.judgeNs;
  out.openNsPerRecord = l.openNs / records;
  out.fetchNsPerRecord = l.fetchNs / records;
  out.batchNsPerRecord = (l.batchNs - l.fetchNs) / records;
  out.processUnitNsPerRecord = (l.processNs - stagesNs - l.sinkNs) / records;
  out.updateHierarchiesNsPerRecord = l.updateNs / records;
  out.createSeriesNsPerRecord = l.createNs / records;
  out.judgeNsPerRecord = l.judgeNs / records;
  if (l.results > 0) {
    const double results = static_cast<double>(l.results);
    out.shhhMean = static_cast<double>(l.shhhTotal) / results;
    out.sinkNsPerResult = l.sinkNs / results;
  }
  out.seriesCount = static_cast<double>(l.seriesTotal) /
                    static_cast<double>(std::max<std::size_t>(streams.size(), 1));
  if (l.pagings > 0) {
    const double pagings = static_cast<double>(l.pagings);
    out.hibernateUs = l.hibernateNs / pagings * 1e-3;
    out.wakeUs = l.wakeNs / pagings * 1e-3;
    out.stateBytes = static_cast<double>(l.stateBytes) / pagings;
  }
  out.ledgerNsPerRecord = l.explainedNs() / records;
  out.explainedFraction = l.explainedNs() / l.pipelineWallNs();
  out.traceOverheadPct =
      (median(tracedWall) / median(untracedWall) - 1.0) * 100.0;
  // The engine's CPU is measured from start() on, after every source is
  // open, so the comparison leaves the ledger's open spans out.
  out.overheadNsPerRecord =
      cpuNsPerRecord - (out.ledgerNsPerRecord - out.openNsPerRecord);
  std::fprintf(stderr,
               "ledger: %.1f%% of the traced sequential wall time is inside "
               "spans; unexplained (loop and clock reads) %.1f ns/record; "
               "engine overhead over the ledger %.1f ns/record\n",
               out.explainedFraction * 100.0,
               (l.pipelineWallNs() - l.explainedNs()) / records,
               out.overheadNsPerRecord);
}

}  // namespace tiresias::bench
