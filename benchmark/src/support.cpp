#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "bench.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace tiresias::bench {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Latency may drift this much over a run before the backlog counts as
/// growing (jitter moves the quarter medians by a millisecond or two).
constexpr double kGrowthMs = 5.0;

std::uint64_t nameHash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

}  // namespace

void Fingerprint::add(std::uint64_t v) { h_ = mix(h_ ^ mix(v)); }

DigestSet::DigestSet(std::vector<std::string> names)
    : names_(std::move(names)), prints_(names_.size()) {
  byName_.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) byName_.emplace(names_[i], i);
}

std::size_t DigestSet::index(const std::string& name) const {
  return byName_.at(name);
}

void DigestSet::addResult(std::size_t stream, const InstanceResult& r) {
  Fingerprint& f = prints_[stream];
  f.add(static_cast<std::uint64_t>(r.unit));
  f.add(r.shhh.size());
  for (NodeId n : r.shhh) f.add(n);
  f.add(r.anomalies.size());
  for (const Anomaly& a : r.anomalies) {
    f.add(a.node);
    f.add(static_cast<std::uint64_t>(a.unit));
    f.add(bits(a.actual));
    f.add(bits(a.forecast));
    f.add(bits(a.ratio));
  }
}

void DigestSet::addRecords(std::size_t stream, const Record* records,
                           std::size_t n) {
  Fingerprint& f = prints_[stream];
  for (std::size_t i = 0; i < n; ++i) {
    f.add(records[i].category);
    f.add(static_cast<std::uint64_t>(records[i].time));
  }
}

std::uint64_t DigestSet::value() const {
  std::vector<std::size_t> order(names_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return names_[a] < names_[b];
  });
  Fingerprint all;
  for (std::size_t i : order) {
    all.add(nameHash(names_[i]));
    all.add(prints_[i].value());
  }
  return all.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------- report

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "OUTPUT CHECK FAILED: %s\n", why.c_str());
}

void Report::metric(const char* name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    fail(std::string("metric ") + name + " is not finite");
    value = 0;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                name, value, unit);
  entries_.emplace_back(buf);
  std::fprintf(stderr, "  %-40s %14.6g %s\n", name, value, unit);
}

void Report::setEndToEnd(const EndToEnd& e) {
  metric("setup_s", e.setupSeconds, "s");
  metric("records_per_s", e.recordsPerSecond, "rec/s");
  metric("cpu_ns_per_record", e.cpuNsPerRecord, "ns");
  metric("peak_rss_mb", e.peakRssMb, "MB");
  metric("unit_latency_p50_ms", e.latencyP50Ms, "ms");
  metric("unit_latency_p99_ms", e.latencyP99Ms, "ms");
  std::fprintf(stderr, "  (unit latency over %zu samples)\n",
               e.latencySamples);
}

void Report::setLayers(const Layers& l) {
  metric("stream.fetch_ns_per_record", l.fetchNsPerRecord, "ns");
  metric("stream.batch_ns_per_record", l.batchNsPerRecord, "ns");
  metric("stream.open_ns_per_record", l.openNsPerRecord, "ns");
  metric("net.bytes_per_record", l.bytesPerRecord, "B");
  metric("net.send_blocked_ms", l.sendBlockedMs, "ms");
  metric("net.gen_late_p99_ms", l.genLateP99Ms, "ms");
  metric("engine.claims_per_unit", l.claimsPerUnit, "ratio");
  metric("engine.requeues", l.requeues, "count");
  metric("engine.backpressure_waits", l.backpressureWaits, "count");
  metric("engine.max_queue_depth", l.maxQueueDepth, "units");
  metric("engine.dispatch_wait_p50_us", l.dispatchWaitP50Us, "us");
  metric("engine.workspace_bytes", l.workspaceBytes, "B");
  metric("engine.evictions_per_unit", l.evictionsPerUnit, "ratio");
  metric("engine.wakes_per_unit", l.wakesPerUnit, "ratio");
  metric("engine.overhead_ns_per_record", l.overheadNsPerRecord, "ns");
  metric("e2e.unit_latency_samples", l.latencySamples, "count");
  metric("core.process_unit_ns_per_record", l.processUnitNsPerRecord, "ns");
  metric("core.update_hierarchies_ns_per_record",
         l.updateHierarchiesNsPerRecord, "ns");
  metric("core.create_series_ns_per_record", l.createSeriesNsPerRecord, "ns");
  metric("core.judge_ns_per_record", l.judgeNsPerRecord, "ns");
  metric("core.shhh_mean", l.shhhMean, "nodes");
  metric("core.series_count", l.seriesCount, "count");
  metric("persist.hibernate_us", l.hibernateUs, "us");
  metric("persist.wake_us", l.wakeUs, "us");
  metric("persist.state_bytes", l.stateBytes, "B");
  metric("report.sink_ns_per_result", l.sinkNsPerResult, "ns");
  metric("ledger.total_ns_per_record", l.ledgerNsPerRecord, "ns");
  metric("ledger.explained_fraction", l.explainedFraction, "ratio");
  metric("trace.overhead_pct", l.traceOverheadPct, "%");
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                   attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += entries_[i];
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------- probes

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

void repeatRounds(double seconds, std::size_t minRounds,
                  const std::function<void(std::size_t)>& round) {
  const double start = nowSeconds();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = nowSeconds() - start;
    // Stop when another round would end closer past the budget than
    // short of it, so the section lasts about `seconds` either way.
    const double perRound = i > 0 ? elapsed / static_cast<double>(i) : 0;
    if (i >= minRounds && elapsed + 0.5 * perRound >= seconds) break;
    round(i);
  }
}

// ---------------------------------------------------------------- inputs

std::uint64_t streamSeed(std::uint64_t seed, std::size_t stream) {
  SplitMix64 sm(seed * 0x100000001b3ULL + stream);
  return sm.next();
}

std::shared_ptr<const workload::AnomalyInjector> makeInjector(
    const Hierarchy& hierarchy, std::uint64_t seed, TimeUnit firstUnit,
    TimeUnit lastUnit, std::size_t spikes, double extraPerUnit) {
  Rng rng(seed ^ 0x5bd1e995ULL);
  workload::GroundTruthLedger ledger;
  const int deepest = std::max(2, hierarchy.height() - 1);
  for (std::size_t i = 0; i < spikes && lastUnit > firstUnit; ++i) {
    const int depth = 2 + static_cast<int>(rng.below(deepest - 1));
    const NodeIdRange range = hierarchy.nodesAtDepth(depth);
    workload::SpikeSpec spike;
    spike.node = range.first + static_cast<NodeId>(rng.below(range.size()));
    spike.startUnit =
        firstUnit +
        static_cast<TimeUnit>(rng.below(static_cast<std::uint64_t>(
            lastUnit - firstUnit)));
    spike.durationUnits = 1 + rng.below(4);
    spike.extraPerUnit = extraPerUnit * rng.uniform(0.5, 1.5);
    ledger.add(spike);
  }
  return std::make_shared<const workload::AnomalyInjector>(hierarchy, ledger);
}

void writeManifest(const std::string& dir, const Manifest& m) {
  const std::string tmp = dir + "/manifest.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "input_digest " << hex(m.inputDigest) << "\n"
        << "records " << m.records << "\n";
  }
  std::filesystem::rename(tmp, dir + "/manifest");
}

bool readManifest(const std::string& dir, Manifest& m) {
  std::ifstream in(dir + "/manifest");
  std::string key, digest;
  if (!(in >> key >> digest) || key != "input_digest") return false;
  if (!(in >> key >> m.records) || key != "records") return false;
  m.inputDigest = std::stoull(digest, nullptr, 16);
  return true;
}

// ---------------------------------------------------------------- engine

engine::DetectionEngine::ResultSink makeSink(
    DigestSet& digests, report::ConcurrentAnomalyStore& store, bool corrupt,
    UnitLatency& latency) {
  auto armed = std::make_shared<std::atomic<bool>>(corrupt);
  return [&digests, &store, &latency, armed](const std::string& name,
                                             const InstanceResult& r) {
    const std::int64_t now = monotonicNanos();
    const std::size_t id = digests.index(name);
    latency.onResult(id, r.unit, now);
    if (armed->load(std::memory_order_relaxed) && armed->exchange(false)) {
      InstanceResult bad = r;
      bad.shhh.push_back(kInvalidNode);
      digests.addResult(id, bad);
    } else {
      digests.addResult(id, r);
    }
    store.add(name, r);
  };
}

engine::EngineConfig engineConfig(std::size_t workers,
                                  std::size_t maxResidentStreams) {
  engine::EngineConfig cfg;  // shipped defaults (metrics on) otherwise
  cfg.workers = workers;
  cfg.ingestThreads = 1;
  cfg.maxResidentStreams = maxResidentStreams;
  return cfg;
}

UnitLatency::UnitLatency(std::size_t streams, TimeUnit units,
                         TimeUnit firstSampled, TimeUnit lastSampled)
    : units_(units),
      first_(firstSampled),
      last_(lastSampled),
      closed_(streams),
      closedUpTo_(streams, 0),
      samples_(streams) {
  for (auto& c : closed_) {
    c = std::vector<std::atomic<std::int64_t>>(static_cast<std::size_t>(units));
  }
  const auto expected = static_cast<std::size_t>(
      std::max<TimeUnit>(lastSampled - firstSampled, 0));
  for (auto& s : samples_) s.reserve(expected);
}

void UnitLatency::closeBefore(std::size_t stream, TimeUnit unit,
                              std::int64_t ns) {
  TimeUnit& upTo = closedUpTo_[stream];
  for (const TimeUnit end = std::min(unit, units_); upTo < end; ++upTo) {
    closed_[stream][static_cast<std::size_t>(upTo)].store(
        ns, std::memory_order_relaxed);
  }
}

void UnitLatency::onResult(std::size_t stream, TimeUnit unit,
                           std::int64_t ns) {
  if (unit < first_ || unit >= last_) return;
  const std::int64_t closed =
      closed_[stream][static_cast<std::size_t>(unit)].load(
          std::memory_order_relaxed);
  if (closed > 0) {
    samples_[stream].push_back(static_cast<double>(ns - closed) * 1e-6);
  }
}

bool UnitLatency::finish(Round& round) {
  std::vector<double> all;
  std::vector<double> early;
  std::vector<double> late;
  for (const auto& v : samples_) {
    const std::size_t quarter = v.size() / 4;
    all.insert(all.end(), v.begin(), v.end());
    early.insert(early.end(), v.begin(), v.begin() + quarter);
    late.insert(late.end(), v.end() - quarter, v.end());
  }
  round.latencySamples = all.size();
  round.latencyP50Ms = quantile(all, 0.50);
  round.latencyP99Ms = quantile(std::move(all), 0.99);
  const double before = quantile(std::move(early), 0.5);
  const double after = quantile(std::move(late), 0.5);
  return after <= 2 * before || after - before <= kGrowthMs;
}

std::size_t ArrivalSource::nextBatch(std::vector<Record>& out,
                                     std::size_t max) {
  const std::size_t n = inner_->nextBatch(out, max);
  if (n > 0) {
    latency_.closeBefore(stream_, timeUnitOf(out[n - 1].time, delta_),
                         monotonicNanos());
  }
  return n;
}

// ---------------------------------------------------------------- runner

namespace {

/// Rounds of the untraced measured section: a warm-up plus enough to
/// pick from.
constexpr std::size_t kMinRounds = 4;

template <class F>
double medianOf(const std::vector<Round>& rounds, F field) {
  std::vector<double> v;
  v.reserve(rounds.size());
  for (const Round& r : rounds) v.push_back(static_cast<double>(field(r)));
  return median(std::move(v));
}

/// Engine counters the per-layer report takes from an untraced round.
void engineLayers(const engine::EngineStats& st, Layers& out) {
  const double units = static_cast<double>(std::max<std::size_t>(
      st.unitsProcessed, 1));
  out.claimsPerUnit = static_cast<double>(st.scheduler.claims) / units;
  out.requeues = static_cast<double>(st.scheduler.requeues);
  out.backpressureWaits = static_cast<double>(st.backpressureWaits);
  out.maxQueueDepth = static_cast<double>(st.maxQueueDepth);
  if (const auto* wait = st.metrics.stage(obs::Stage::kDispatchWait)) {
    out.dispatchWaitP50Us = wait->p50 * 1e6;
  }
  out.workspaceBytes = static_cast<double>(st.workspaceBytes);
  out.evictionsPerUnit = static_cast<double>(st.hibernateEvictions) / units;
  out.wakesPerUnit = static_cast<double>(st.hibernateWakes) / units;
}

template <class Better, class F>
double bestOf(const std::vector<Round>& rounds, Better better, F field) {
  double best = field(rounds.front());
  for (const Round& r : rounds) {
    if (better(field(r), best)) best = field(r);
  }
  return best;
}

}  // namespace

void runWorkload(const Options& opts, const Workload& w, Report& report) {
  Manifest manifest;
  if (!readManifest(opts.inputDir, manifest)) {
    report.fail("no prepared inputs in " + opts.inputDir);
    return;
  }
  // With trace on, half the section goes to engine rounds (the engine.*
  // counters) and half to the sequential timing passes.
  const double roundSeconds = opts.trace ? 0.5 * opts.seconds : opts.seconds;
  std::vector<Round> rounds;
  engine::EngineStats lastStats;
  try {
    repeatRounds(roundSeconds, opts.trace ? 1 : kMinRounds,
                 [&](std::size_t) {
                   rounds.push_back(w.round());
                   Round& r = rounds.back();
                   lastStats = std::move(r.stats);
                   r.stats = {};
                   std::fprintf(stderr,
                                "round %zu: setup %.4f s, %.0f rec/s, %.0f "
                                "ns/rec cpu, latency p50 %.3f p99 %.3f ms\n",
                                rounds.size(), r.setupSeconds,
                                r.recordsPerSecond, r.cpuNsPerRecord,
                                r.latencyP50Ms, r.latencyP99Ms);
                 });
  } catch (const std::exception& e) {
    report.fail(std::string("engine round threw: ") + e.what());
    return;
  }
  const double peakMb = peakRssMb();

  const SequentialPass oracle = runSequential(w.reference, PassMode::kOracle);
  std::fprintf(stderr, "input digest %s, output digest %s (sequential)\n",
               hex(oracle.inputDigest).c_str(),
               hex(oracle.outputDigest).c_str());
  if (oracle.inputDigest != manifest.inputDigest ||
      oracle.records != manifest.records) {
    report.fail("inputs differ from the prepared manifest (" +
                hex(manifest.inputDigest) + ", " +
                std::to_string(manifest.records) + " records)");
  }
  std::size_t mismatched = 0;
  for (const Round& r : rounds) {
    report.countRecords(r.offered, r.failed);
    if (r.digest != oracle.outputDigest) ++mismatched;
  }
  if (mismatched > 0) {
    report.fail(std::to_string(mismatched) + " of " +
                std::to_string(rounds.size()) +
                " engine rounds produced a different output digest");
  } else {
    std::fprintf(stderr, "engine output digest matches in all %zu rounds\n",
                 rounds.size());
  }

  // The first round warms the heap, page cache and allocator; with more
  // rounds it is checked but not timed.
  const std::vector<Round> timed(rounds.begin() + (rounds.size() > 1 ? 1 : 0),
                                 rounds.end());
  const double cpuNs = bestOf(timed, std::less<>(),
                             [](const Round& r) { return r.cpuNsPerRecord; });
  if (!opts.trace) {
    // Set-up time is the median round's. Every other timing is the best
    // round's: on a shared machine, interference only ever slows a round
    // down, so the best round estimates the program's own speed and moves
    // with it, while the median also moves with the neighbours' load.
    EndToEnd e;
    e.setupSeconds =
        medianOf(timed, [](const Round& r) { return r.setupSeconds; });
    e.recordsPerSecond =
        bestOf(timed, std::greater<>(),
               [](const Round& r) { return r.recordsPerSecond; });
    e.cpuNsPerRecord = cpuNs;
    e.peakRssMb = peakMb;
    e.latencyP50Ms = bestOf(timed, std::less<>(),
                            [](const Round& r) { return r.latencyP50Ms; });
    e.latencyP99Ms = bestOf(timed, std::less<>(),
                            [](const Round& r) { return r.latencyP99Ms; });
    e.latencySamples = timed.front().latencySamples;
    std::fprintf(stderr, "%zu rounds\n", rounds.size());
    if (w.p99LimitMs > 0) {
      std::fprintf(stderr, "CHECK unit_latency_p99_ms %.3f <= %.0f: %s\n",
                   e.latencyP99Ms, w.p99LimitMs,
                   e.latencyP99Ms <= w.p99LimitMs ? "ok" : "FAILED");
    }
    report.setEndToEnd(e);
    return;
  }

  Layers layers = rounds.back().net;
  engineLayers(lastStats, layers);
  layers.latencySamples = static_cast<double>(rounds.back().latencySamples);
  sequentialLayers(w.reference, w.pageEvery, 0.5 * opts.seconds, cpuNs,
                   oracle.outputDigest, report, layers);
  if (w.traceExtra) w.traceExtra(layers, oracle.outputDigest, report);
  if (w.ledgerCheck) {
    std::fprintf(stderr, "CHECK ledger.explained_fraction %.3f >= 0.90: %s\n",
                 layers.explainedFraction,
                 layers.explainedFraction >= 0.90 ? "ok" : "FAILED");
  }
  report.setLayers(layers);
}

}  // namespace tiresias::bench
