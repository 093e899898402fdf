// Shared pieces of the repository benchmark.
//
// Every workload runs the same way: a measured section of repeated
// engine rounds (each round builds its system from scratch, runs it to
// completion and is timed on its own), then the sequential
// TiresiasPipeline oracle over the identical inputs, whose output digest
// every round must reproduce. With --trace 1 the process instead reports
// per-layer numbers: engine counters from untraced rounds plus a ledger
// from sequential passes timed by the benchmark's own spans.
//
// The program under test is only ever called through its public API; the
// spans, digests and probes below live entirely in the benchmark.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "engine/engine.h"
#include "report/concurrent_store.h"
#include "stream/source.h"
#include "workload/generator.h"
#include "workload/injector.h"

namespace tiresias::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured section; rounds repeat until it is spent.
  double seconds = 10.0;
  bool trace = false;
  /// Cut sizes so all four workloads finish in seconds (same code paths).
  bool smoke = false;
  /// Self-test: the engine sink corrupts one result, so the oracle must
  /// report a mismatch.
  bool corrupt = false;
  /// Directory holding this workload's prepared inputs and manifest.
  std::string inputDir;
};

// ---------------------------------------------------------------- digests

/// Order-sensitive 64-bit fingerprint (SplitMix64 finalizer chain).
class Fingerprint {
 public:
  void add(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

/// Fingerprints of several named streams, combined in stream-name order
/// so the digest does not depend on registration or completion order.
/// Each stream's fingerprint must be fed by one thread at a time (the
/// engine guarantees this: a stream is owned by at most one worker).
class DigestSet {
 public:
  explicit DigestSet(std::vector<std::string> names);

  std::size_t index(const std::string& name) const;

  /// Fold one detection result: unit, SHHH set and anomalies.
  void addResult(std::size_t stream, const InstanceResult& result);
  void addRecords(std::size_t stream, const Record* records, std::size_t n);

  std::uint64_t value() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::size_t> byName_;
  std::vector<Fingerprint> prints_;
};

std::string hex(std::uint64_t v);

// ---------------------------------------------------------------- report

/// Metrics a user of the system sees, measured with tracing off.
struct EndToEnd {
  double setupSeconds = 0;
  double recordsPerSecond = 0;
  double cpuNsPerRecord = 0;
  double peakRssMb = 0;
  double latencyP50Ms = 0;
  double latencyP99Ms = 0;
  std::size_t latencySamples = 0;
};

/// Per-layer numbers (--trace 1). A field that does not apply to a
/// workload stays 0, so every workload reports the same list.
struct Layers {
  // stream: source pulls and timeunit batching, per record
  double fetchNsPerRecord = 0;
  double batchNsPerRecord = 0;
  double openNsPerRecord = 0;
  // net: the socket generator's view of the wire
  double bytesPerRecord = 0;
  double sendBlockedMs = 0;
  double genLateP99Ms = 0;
  // engine: scheduling and residency, from the untraced rounds
  double claimsPerUnit = 0;
  double requeues = 0;
  double backpressureWaits = 0;
  double maxQueueDepth = 0;
  double dispatchWaitP50Us = 0;
  double workspaceBytes = 0;
  double evictionsPerUnit = 0;
  double wakesPerUnit = 0;
  double overheadNsPerRecord = 0;
  double latencySamples = 0;
  // core/timeseries: detection stages, per record
  double processUnitNsPerRecord = 0;
  double updateHierarchiesNsPerRecord = 0;
  double createSeriesNsPerRecord = 0;
  double judgeNsPerRecord = 0;
  double shhhMean = 0;
  double seriesCount = 0;
  // persist: hibernate/wake of a paged pipeline
  double hibernateUs = 0;
  double wakeUs = 0;
  double stateBytes = 0;
  // report: the result sink
  double sinkNsPerResult = 0;
  // ledger reconciliation
  double ledgerNsPerRecord = 0;
  double explainedFraction = 0;
  double traceOverheadPct = 0;
};

/// The JSON result line printed last on stdout, plus a readable line per
/// metric on stderr.
class Report {
 public:
  void fail(const std::string& why);
  bool correct() const { return correct_; }

  void countRecords(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void setEndToEnd(const EndToEnd& e);
  void setLayers(const Layers& l);

  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
  std::string json() const;

 private:
  void metric(const char* name, double value, const char* unit);

  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> entries_;
};

// ---------------------------------------------------------------- probes

double processCpuSeconds();  // user + sys, all threads
double threadCpuSeconds();   // calling thread only
double peakRssMb();
double nowSeconds();  // steady clock

double median(std::vector<double> v);
/// Nearest-rank q-quantile (0 for an empty sample).
double quantile(std::vector<double> v, double q);

/// Calls round(i) until `seconds` have passed, at least `minRounds` times.
void repeatRounds(double seconds, std::size_t minRounds,
                  const std::function<void(std::size_t)>& round);

// ---------------------------------------------------------------- inputs

/// Deterministic per-stream seed.
std::uint64_t streamSeed(std::uint64_t seed, std::size_t stream);

/// Seeded incident spikes under random interior nodes, starting in
/// [firstUnit, lastUnit): the anomalies the detectors must find.
std::shared_ptr<const workload::AnomalyInjector> makeInjector(
    const Hierarchy& hierarchy, std::uint64_t seed, TimeUnit firstUnit,
    TimeUnit lastUnit, std::size_t spikes, double extraPerUnit);

/// What `prepare` recorded about the inputs it generated.
struct Manifest {
  std::uint64_t inputDigest = 0;
  std::uint64_t records = 0;
};
void writeManifest(const std::string& dir, const Manifest& m);
/// False when the directory holds no complete manifest.
bool readManifest(const std::string& dir, Manifest& m);

// ---------------------------------------------------------------- engine

/// What one engine round measured.
struct Round {
  double setupSeconds = 0;
  double recordsPerSecond = 0;
  double cpuNsPerRecord = 0;
  double latencyP50Ms = 0;
  double latencyP99Ms = 0;
  std::size_t latencySamples = 0;
  std::uint64_t digest = 0;  // engine output digest
  std::uint64_t offered = 0;  // records offered to the system
  std::uint64_t failed = 0;   // offered but not processed, plus errors
  engine::EngineStats stats;
  /// socket_live's generator-side numbers (net.* fields).
  Layers net;
};

/// Unit latency: from the moment the input that closes unit u reached the
/// system (the record of a later unit was read by the source, or its
/// frame was due to be sent) to the ResultSink call for u. Only units in
/// [firstSampled, lastSampled) count, which leaves out the warm-up burst
/// (the first window is buffered, then stepped at once) and the last unit
/// (closed by end of stream, not by input).
class UnitLatency {
 public:
  UnitLatency(std::size_t streams, TimeUnit units, TimeUnit firstSampled,
              TimeUnit lastSampled);

  /// Every unit of `stream` before `unit` is closed as of `ns`. Called by
  /// the stream's single producer (ingest thread or client).
  void closeBefore(std::size_t stream, TimeUnit unit, std::int64_t ns);
  /// A result for `unit` reached the sink at `ns` (the stream's worker).
  void onResult(std::size_t stream, TimeUnit unit, std::int64_t ns);

  /// p50/p99 and sample count into the round, after the engine joined.
  /// False when latency grew over the run (the median of the last quarter
  /// of each stream's samples above twice the first quarter's and more
  /// than 5 ms above it): a growing backlog means the load was not
  /// sustainable.
  bool finish(Round& round);

 private:
  TimeUnit units_;
  TimeUnit first_;
  TimeUnit last_;
  std::vector<std::vector<std::atomic<std::int64_t>>> closed_;
  std::vector<TimeUnit> closedUpTo_;  // producer-owned, per stream
  std::vector<std::vector<double>> samples_;  // ms, worker-owned per stream
};

/// Stamps UnitLatency when a pulled chunk closes units: every unit before
/// the chunk's last record is complete once the chunk is read. O(1) per
/// pull plus one store per closed unit.
class ArrivalSource final : public RecordSource {
 public:
  ArrivalSource(std::unique_ptr<RecordSource> inner, UnitLatency& latency,
                std::size_t stream, Duration delta)
      : inner_(std::move(inner)),
        latency_(latency),
        stream_(stream),
        delta_(delta) {}

  std::optional<Record> next() override { return inner_->next(); }
  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;
  std::size_t skippedRecords() const override {
    return inner_->skippedRecords();
  }

 private:
  std::unique_ptr<RecordSource> inner_;
  UnitLatency& latency_;
  std::size_t stream_;
  Duration delta_;
};

/// The engine result sink shared by every workload: fingerprints each
/// result (after corrupting the first one in a self-test), stores it in a
/// ConcurrentAnomalyStore as `serve` does, and feeds the unit latency.
engine::DetectionEngine::ResultSink makeSink(
    DigestSet& digests, report::ConcurrentAnomalyStore& store, bool corrupt,
    UnitLatency& latency);

engine::EngineConfig engineConfig(std::size_t workers,
                                  std::size_t maxResidentStreams);

// ---------------------------------------------------------------- oracle

/// One stream as the sequential reference sees it.
struct StreamSpec {
  std::string name;
  std::shared_ptr<const Hierarchy> hierarchy;
  PipelineConfig config;
  /// A fresh source over the stream's input (called once per pass).
  std::function<std::unique_ptr<RecordSource>()> open;
};

/// Span totals of a traced sequential pass, in ns summed over streams.
/// Nested spans: batch includes fetch; process includes the detector's
/// Table III stages and the sink.
struct Ledger {
  double wallNs = 0;
  double openNs = 0;
  double fetchNs = 0;
  double batchNs = 0;
  double processNs = 0;
  double updateNs = 0;
  double createNs = 0;
  double judgeNs = 0;
  double sinkNs = 0;
  double hibernateNs = 0;
  double wakeNs = 0;
  std::size_t pagings = 0;
  std::size_t stateBytes = 0;
  std::size_t results = 0;
  std::size_t shhhTotal = 0;
  std::size_t seriesTotal = 0;

  /// Sum of the pipeline's self times (everything inside a span). Paging
  /// is a separate probe and stays out of the ledger.
  double explainedNs() const { return openNs + batchNs + processNs; }
  double pipelineWallNs() const { return wallNs - hibernateNs - wakeNs; }
};

enum class PassMode {
  kOracle,    // pipeline.run, input fingerprinted (never timed)
  kUntraced,  // pipeline.run, timed as a whole
  kTraced,    // batcher + processUnit loop inside benchmark spans
};

struct SequentialPass {
  std::uint64_t outputDigest = 0;
  std::uint64_t inputDigest = 0;
  std::size_t records = 0;
  Ledger ledger;  // wallNs is set by every pass, the spans by traced ones
};

/// Runs every stream through its own TiresiasPipeline, one after another.
/// With `pageEvery` > 0 the traced pass hibernates and wakes every
/// pageEvery-th stream after each unit (the engine's paging, timed).
SequentialPass runSequential(const std::vector<StreamSpec>& streams,
                             PassMode mode, std::size_t pageEvery = 0);

/// Untraced/traced pass pairs until `seconds` are spent (at least one),
/// folded into the ledger, core, persist and report fields of `out`.
/// Fails the report if a traced pass disagrees with `reference`.
void sequentialLayers(const std::vector<StreamSpec>& streams,
                      std::size_t pageEvery, double seconds,
                      double cpuNsPerRecord, std::uint64_t reference,
                      Report& report, Layers& out);

/// Times every nextBatch call (the stream.fetch span). Forwards idle()
/// and noteResumePoint() so a live source still idles and resumes.
class TimingSource final : public RecordSource {
 public:
  explicit TimingSource(std::unique_ptr<RecordSource> inner)
      : inner_(std::move(inner)) {}

  std::optional<Record> next() override { return inner_->next(); }
  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;
  std::size_t skippedRecords() const override {
    return inner_->skippedRecords();
  }
  bool idle() const override { return inner_->idle(); }
  void noteResumePoint(Timestamp time) override {
    inner_->noteResumePoint(time);
  }

  /// Read after the pulling thread is done (the engine joined).
  std::int64_t fetchNs() const {
    return fetchNs_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<RecordSource> inner_;
  std::atomic<std::int64_t> fetchNs_{0};
};

// ---------------------------------------------------------------- runner

struct Workload {
  /// One engine round: set up, run to completion, tear down.
  std::function<Round()> round;
  /// The same inputs as the sequential reference sees them.
  std::vector<StreamSpec> reference;
  /// Traced pass: page every n-th stream (0 = no paging probe).
  std::size_t pageEvery = 0;
  /// Enforce ledger.explained_fraction >= 0.90 (the replays).
  bool ledgerCheck = false;
  /// Latency limit on unit_latency_p99_ms, checked and printed (0 = none).
  double p99LimitMs = 0;
  /// Trace-only extra pass that overrides layer numbers (socket_live
  /// re-runs its closed loop with timing sources around the sockets). It
  /// checks its own output against the oracle's digest.
  std::function<void(Layers&, std::uint64_t reference, Report&)> traceExtra;
};

/// Runs the rounds for the measured section, checks every round against
/// the oracle and fills the report: end-to-end metrics with trace off,
/// per-layer metrics with trace on.
void runWorkload(const Options& opts, const Workload& w, Report& report);

// ---------------------------------------------------------------- workloads

// Each workload: its input shape (part of the cache key, so inputs of
// another size are never reused), input generation, and the measured run.
std::string replayShape(const Options& opts, bool binary);
void prepareReplay(const Options& opts, bool binary);
void runReplay(const Options& opts, bool binary, Report& report);
std::string socketLiveShape(const Options& opts);
void prepareSocketLive(const Options& opts);
void runSocketLive(const Options& opts, Report& report);
std::string fleetShape(const Options& opts);
void prepareFleet(const Options& opts);
void runFleet(const Options& opts, Report& report);

}  // namespace tiresias::bench
