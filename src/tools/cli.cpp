#include "tools/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "hierarchy/builder.h"

#include "analysis/seasonality.h"
#include "common/faultinject.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "net/tcp.h"
#include "persist/snapshot.h"
#include "report/store.h"
#include "serve/server.h"
#include "stream/binary_source.h"
#include "stream/socket_source.h"
#include "workload/ccd.h"
#include "workload/scd.h"

namespace tiresias::tools {
namespace {

using workload::AnomalyInjector;
using workload::GroundTruthLedger;
using workload::Scale;
using workload::SpikeSpec;
using workload::WorkloadSpec;

using Kind = CliOption::Kind;
using Mode = CliOption::Mode;

constexpr double kUnbounded = CliOption::kUnbounded;
/// Lower bound of a strictly positive real (bounds are inclusive).
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
constexpr double kMaxPort = 65535;
constexpr double kMaxMs = std::numeric_limits<int>::max();
/// Ceiling of a thread-pool size: far above any useful pool, low enough
/// that a typo cannot ask the host for a million threads.
constexpr double kMaxThreads = 1024;
/// Ceilings of the stream counts: the engine's residency layer makes a
/// million generated streams cheap, while every socket-fed stream holds a
/// 64 KiB read buffer from the start.
constexpr double kMaxStreams = 1'000'000;
constexpr double kMaxNetStreams = 4096;
/// Ceiling of the queue bounds: every queued unit holds its records, so a
/// bound past a million units no longer bounds what a host can hold.
constexpr double kMaxQueueUnits = 1'000'000;
/// Ceiling of the resident cap: a cap above the most streams a run can
/// register caps nothing.
constexpr double kMaxResident = kMaxStreams;
constexpr const char* kTreeCommands =
    "generate detect analyze hierarchy serve send";

/// Every option of every command, in usage order.
constexpr CliOption kOptions[] = {
    // Hierarchy selection.
    {.name = "dataset", .commands = kTreeCommands, .kind = Kind::kEnum,
     .value = "ccd-net|ccd-trouble|scd", .def = "ccd-net",
     .mode = Mode::kListenOnly, .help = "preset workload and hierarchy"},
    {.name = "scale", .commands = kTreeCommands, .kind = Kind::kEnum,
     .value = "test|medium|paper", .def = "test", .help = "preset size"},
    {.name = "hierarchy", .commands = kTreeCommands, .kind = Kind::kString,
     .value = "file", .mode = Mode::kListenOnly,
     .help = "custom tree, one leaf path per line (overrides --dataset)"},
    {.name = "root-name", .commands = kTreeCommands, .kind = Kind::kString,
     .value = "name", .def = "root", .mode = Mode::kListenOnly,
     .help = "root label of a --hierarchy tree"},
    // Files.
    {.name = "in", .commands = "convert", .kind = Kind::kString,
     .value = "file", .help = "CSV trace to convert"},
    {.name = "trace", .commands = "detect analyze send", .kind = Kind::kString,
     .value = "file", .help = "CSV or binary trace (the format is sniffed)"},
    {.name = "out", .commands = "generate convert detect",
     .kind = Kind::kString, .value = "file",
     .help = "trace / binary trace / anomaly report to write"},
    // generate
    {.name = "days", .commands = "generate", .kind = Kind::kInt, .def = "7",
     .lo = 1, .help = "days of traffic"},
    {.name = "seed", .commands = "generate serve", .kind = Kind::kInt,
     .def = "1", .mode = Mode::kGeneratedOnly, .help = "generator seed"},
    {.name = "spike", .commands = "generate", .kind = Kind::kRepeated,
     .value = "path:unit:dur:magnitude", .help = "inject a burst of records"},
    // Detector.
    {.name = "theta", .commands = "detect serve", .kind = Kind::kReal,
     .def = "8", .lo = kPositive, .help = "anomaly threshold"},
    {.name = "window", .commands = "detect", .kind = Kind::kInt,
     .value = "units", .def = "288", .lo = 2, .help = "detection window"},
    {.name = "window", .commands = "serve", .kind = Kind::kInt,
     .value = "units", .def = "32", .lo = 2, .help = "detection window"},
    {.name = "rt", .commands = "detect", .kind = Kind::kReal, .def = "2.8",
     .help = "ratio threshold of the split rule"},
    {.name = "dt", .commands = "detect", .kind = Kind::kReal, .def = "8",
     .help = "difference threshold of the split rule"},
    {.name = "algo", .commands = "detect", .kind = Kind::kEnum,
     .value = "ada|sta", .def = "ada", .help = "adaptive or strawman detector"},
    // analyze
    {.name = "unit-minutes", .commands = "analyze", .kind = Kind::kInt,
     .def = "15", .lo = 1, .help = "timeunit length in minutes"},
    // serve: generated streams and the engine.
    {.name = "streams", .commands = "serve", .kind = Kind::kInt, .def = "4",
     .lo = 1, .hi = kMaxStreams, .mode = Mode::kGeneratedOnly,
     .help = "streams, cycling presets"},
    {.name = "units", .commands = "serve", .kind = Kind::kInt, .def = "96",
     .lo = 1, .mode = Mode::kGeneratedOnly, .help = "timeunits per stream"},
    {.name = "workers", .commands = "serve", .kind = Kind::kInt, .def = "0",
     .lo = 0, .hi = kMaxThreads,
     .help = "shared workers; 0 = one per hardware thread"},
    {.name = "ingest-threads", .commands = "serve", .kind = Kind::kInt,
     .def = "1", .lo = 1, .hi = kMaxThreads, .help = "ingest pool size"},
    {.name = "queue", .commands = "serve", .kind = Kind::kInt,
     .value = "units", .def = "16", .lo = 1, .hi = kMaxQueueUnits,
     .help = "per-stream queue bound"},
    {.name = "total-queue", .commands = "serve", .kind = Kind::kInt,
     .value = "units", .def = "1024", .lo = 1, .hi = kMaxQueueUnits,
     .help = "global queue bound"},
    {.name = "budget", .commands = "serve", .kind = Kind::kInt,
     .value = "units", .def = "8", .lo = 1, .help = "units per worker claim"},
    {.name = "max-resident", .commands = "serve", .kind = Kind::kInt,
     .value = "streams", .def = "0", .lo = 0, .hi = kMaxResident,
     .help = "streams with live state, colder ones hibernate; 0 = all"},
    {.name = "hibernate-dir", .commands = "serve", .kind = Kind::kString,
     .value = "dir", .needs = "max-resident",
     .help = "hibernate to files here instead of memory"},
    {.name = "checkpoint-dir", .commands = "serve", .kind = Kind::kString,
     .value = "dir", .help = "checkpoint to DIR/checkpoint.tsnap at the end"},
    {.name = "checkpoint-every", .commands = "serve", .kind = Kind::kInt,
     .value = "units", .def = "0", .lo = 0, .needs = "checkpoint-dir",
     .help = "also checkpoint every N processed units; 0 = never"},
    {.name = "restore", .commands = "serve", .kind = Kind::kFlag,
     .needs = "checkpoint-dir", .help = "resume from the checkpoint"},
    {.name = "metrics-out", .commands = "serve", .kind = Kind::kString,
     .value = "file", .help = "write tiresias_metrics/v1 JSON lines"},
    {.name = "metrics-every", .commands = "serve", .kind = Kind::kInt,
     .value = "ms", .def = "1000", .lo = 1, .needs = "metrics-out",
     .help = "metrics line period (plus one after drain)"},
    // serve: network ingest and output ports.
    {.name = "listen", .commands = "serve", .kind = Kind::kInt,
     .value = "port", .lo = 0, .hi = kMaxPort,
     .help = "ingest over TCP instead of generating (0 = ephemeral)"},
    {.name = "ingest-format", .commands = "serve", .kind = Kind::kEnum,
     .value = "auto|csv|binary", .def = "auto", .mode = Mode::kListenOnly,
     .help = "wire format (auto: sniffed per connection)"},
    {.name = "net-streams", .commands = "serve", .kind = Kind::kInt,
     .def = "1", .lo = 0, .hi = kMaxNetStreams, .mode = Mode::kListenOnly,
     .help = "anonymous streams; 0 if only --stream-names"},
    {.name = "stream-names", .commands = "serve", .kind = Kind::kString,
     .value = "a,b,...", .mode = Mode::kListenOnly,
     .help = "named streams a client can reconnect to and resume"},
    {.name = "read-timeout-ms", .commands = "serve", .kind = Kind::kInt,
     .value = "ms", .def = "30000", .lo = 1, .hi = kMaxMs,
     .mode = Mode::kListenOnly, .help = "end a stream after this silence"},
    {.name = "error-budget", .commands = "serve", .kind = Kind::kInt,
     .def = "16", .lo = 0, .mode = Mode::kListenOnly,
     .help = "dropped connections a named stream survives"},
    {.name = "junk-budget", .commands = "serve", .kind = Kind::kInt,
     .def = "0", .lo = 0, .mode = Mode::kListenOnly,
     .help = "drop a connection after N skipped records; 0 = never"},
    {.name = "shed-watermark", .commands = "serve", .kind = Kind::kInt,
     .value = "units", .def = "0", .lo = 0, .mode = Mode::kListenOnly,
     .help = "refuse connections at this queue lag; 0 = never"},
    {.name = "fault-plan", .commands = "serve", .kind = Kind::kString,
     .value = "plan", .mode = Mode::kListenOnly,
     .help = "chaos testing: seed=N,short-read=P,short-write=P,eintr=P,"
             "disconnect=P,accept-fail=P,stall=P[:MS], P in [0,1]"},
    {.name = "anomaly-port", .commands = "serve", .kind = Kind::kInt,
     .value = "port", .lo = 0, .hi = kMaxPort,
     .help = "stream anomalies to subscribers as JSON lines"},
    {.name = "stats-port", .commands = "serve", .kind = Kind::kInt,
     .value = "port", .lo = 0, .hi = kMaxPort,
     .help = "answer each poll with one tiresias_metrics/v1 document"},
    {.name = "loopback", .commands = "serve", .kind = Kind::kFlag,
     .help = "bind every listener to 127.0.0.1"},
    // send
    {.name = "to", .commands = "send", .kind = Kind::kString,
     .value = "host:port", .help = "address of a serve --listen"},
    {.name = "format", .commands = "send", .kind = Kind::kEnum,
     .value = "binary|csv", .def = "binary",
     .help = "framed records, or the file's bytes verbatim"},
    {.name = "frame", .commands = "send", .kind = Kind::kInt,
     .value = "records", .def = "8192", .lo = 1,
     .hi = kSocketMaxFrameRecords, .help = "records per frame"},
    {.name = "timeout-ms", .commands = "send", .kind = Kind::kInt,
     .value = "ms", .def = "30000", .lo = 1, .hi = kMaxMs,
     .help = "connect and write timeout"},
    {.name = "stream-name", .commands = "send", .kind = Kind::kString,
     .value = "name", .lo = 1, .hi = kSocketMaxStreamNameBytes,
     .mode = Mode::kBinaryOnly, .help = "resume a named stream"},
    {.name = "retries", .commands = "send", .kind = Kind::kInt, .def = "0",
     .lo = 0, .mode = Mode::kBinaryOnly, .help = "reconnects after a loss"},
    {.name = "backoff-ms", .commands = "send", .kind = Kind::kInt,
     .value = "ms", .def = "200", .lo = 1, .hi = 10'000,
     .mode = Mode::kBinaryOnly,
     .help = "first retry delay (jittered, doubling, capped at 10 s)"},
};

/// One command's option values as parseOptions checked them: the
/// command-line value where given, the table default otherwise.
struct Options {
  struct Value {
    const CliOption* row = nullptr;
    bool given = false;
    std::string text;
    std::vector<std::string> all;  // every occurrence (kRepeated)
    long long num = 0;
    double real = 0;
  };
  std::map<std::string, Value> values;

  // An undeclared name is a programming error: map::at throws.
  const Value& at(const std::string& name) const { return values.at(name); }
  bool has(const std::string& name) const { return at(name).given; }
  long long num(const std::string& name) const { return at(name).num; }
  double real(const std::string& name) const { return at(name).real; }
  const std::string& str(const std::string& name) const {
    return at(name).text;
  }
  const std::vector<std::string>& all(const std::string& name) const {
    return at(name).all;
  }
};

/// The --scale choices, already checked against the table.
Scale scaleOf(const std::string& name) {
  if (name == "medium") return Scale::kMedium;
  return name == "paper" ? Scale::kPaper : Scale::kTest;
}

bool parseDataset(const Options& opt, std::ostream& err, WorkloadSpec& spec) {
  // A custom domain can be supplied as a file of leaf paths; detection and
  // analysis then run against that hierarchy (generation still needs a
  // preset's rate model, so --hierarchy is accepted for detect/analyze).
  if (opt.has("hierarchy")) {
    const std::string& file = opt.str("hierarchy");
    if (!std::ifstream(file)) {
      err << "cannot open --hierarchy file '" << file << "'\n";
      return false;
    }
    spec.hierarchy =
        HierarchyBuilder::fromPathsFile(file, opt.str("root-name"));
    spec.unit = 15 * kMinute;
    return true;
  }
  const std::string& dataset = opt.str("dataset");
  const Scale scale = scaleOf(opt.str("scale"));
  if (dataset == "ccd-trouble") {
    spec = workload::ccdTroubleWorkload(scale);
  } else if (dataset == "scd") {
    spec = workload::scdNetworkWorkload(scale);
  } else {
    spec = workload::ccdNetworkWorkload(scale);
  }
  return true;
}

/// Opens --trace for `command`, or prints why not and returns null: a file
/// that cannot be opened, or a binary trace whose header is malformed.
std::unique_ptr<RecordSource> openTrace(const char* command,
                                        const std::string& trace,
                                        const Hierarchy& h, std::ostream& err) {
  if (!std::ifstream(trace)) {
    err << command << ": cannot open --trace '" << trace << "'\n";
    return nullptr;
  }
  try {
    return openTraceSource(trace, h);
  } catch (const persist::SnapshotError& e) {
    err << command << ": bad binary trace: " << e.what() << "\n";
    return nullptr;
  }
}

/// "path:unit:duration:magnitude" -> SpikeSpec.
bool parseSpike(const std::string& text, const Hierarchy& h, std::ostream& err,
                SpikeSpec& spike) {
  std::vector<std::string> parts;
  std::string cur;
  // The category path itself contains '/'; fields are ':'-separated and
  // the path is the first field.
  std::stringstream ss(text);
  while (std::getline(ss, cur, ':')) parts.push_back(cur);
  if (parts.size() != 4) {
    err << "bad --spike '" << text << "' (want path:unit:dur:magnitude)\n";
    return false;
  }
  spike.node = h.find(parts[0]);
  if (spike.node == kInvalidNode) {
    err << "unknown spike path '" << parts[0] << "'\n";
    return false;
  }
  // Full-field, sign-aware parses. The old stoul here silently wrapped a
  // negative duration ("0:-1:5" became a ~2^64-unit spike), and bare
  // sto* calls accept trailing garbage — every such typo must land in
  // the same usage error instead.
  bool ok = true;
  long long durationIn = 0;
  try {
    std::size_t pos = 0;
    spike.startUnit = std::stoll(parts[1], &pos);
    ok = !parts[1].empty() && pos == parts[1].size();
    if (ok) {
      durationIn = std::stoll(parts[2], &pos);
      ok = !parts[2].empty() && pos == parts[2].size() && durationIn >= 0;
    }
    if (ok) {
      spike.extraPerUnit = std::stod(parts[3], &pos);
      ok = !parts[3].empty() && pos == parts[3].size();
    }
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    err << "bad --spike '" << text << "' (want path:unit:dur:magnitude)\n";
    return false;
  }
  spike.durationUnits = static_cast<std::size_t>(durationIn);
  return true;
}

int cmdGenerate(const Options& opt, std::ostream& out, std::ostream& err) {
  WorkloadSpec spec;
  if (!parseDataset(opt, err, spec)) return 2;
  const std::string& outPath = opt.str("out");
  if (outPath.empty()) {
    err << "generate: --out is required\n";
    return 2;
  }
  const long long days = opt.num("days");
  const auto seed = static_cast<std::uint64_t>(opt.num("seed"));
  const auto unitsPerDay = static_cast<TimeUnit>(kDay / spec.unit);

  GroundTruthLedger ledger;
  for (const std::string& text : opt.all("spike")) {
    SpikeSpec spike;
    if (!parseSpike(text, spec.hierarchy, err, spike)) return 2;
    ledger.add(spike);
  }
  std::shared_ptr<AnomalyInjector> injector;
  if (!ledger.specs().empty()) {
    injector = std::make_shared<AnomalyInjector>(spec.hierarchy, ledger);
  }

  workload::GeneratorSource src(spec, 0, days * unitsPerDay, seed, injector);
  std::vector<Record> records, chunk;
  while (src.nextBatch(chunk, 4096) > 0) {
    records.insert(records.end(), chunk.begin(), chunk.end());
  }
  writeRecordsCsv(outPath, spec.hierarchy, records);
  out << "wrote " << records.size() << " records (" << days << " days, "
      << ledger.specs().size() << " injected spikes) to " << outPath << "\n";
  return 0;
}

int cmdConvert(const Options& opt, std::ostream& out, std::ostream& err) {
  const std::string& inPath = opt.str("in");
  const std::string& outPath = opt.str("out");
  if (inPath.empty() || outPath.empty()) {
    err << "convert: --in and --out are required\n";
    return 2;
  }
  try {
    const auto stats = convertCsvTraceToBinary(inPath, outPath);
    out << "wrote " << stats.records << " records (" << stats.paths
        << " distinct paths, " << stats.skippedRows
        << " junk rows dropped), " << stats.bytesWritten << " bytes to "
        << outPath << "\n";
    return 0;
  } catch (const persist::SnapshotError& e) {
    err << e.what() << "\n";  // already prefixed "convert: "
    return 1;
  }
}

int cmdDetect(const Options& opt, std::ostream& out, std::ostream& err) {
  WorkloadSpec spec;
  if (!parseDataset(opt, err, spec)) return 2;
  const std::string& trace = opt.str("trace");
  if (trace.empty()) {
    err << "detect: --trace is required\n";
    return 2;
  }
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = opt.real("theta");
  cfg.detector.windowLength = static_cast<std::size_t>(opt.num("window"));
  cfg.detector.ratioThreshold = opt.real("rt");
  cfg.detector.diffThreshold = opt.real("dt");
  cfg.useAda = opt.str("algo") == "ada";
  cfg.candidatePeriods = {static_cast<std::size_t>(kDay / spec.unit),
                          static_cast<std::size_t>(kWeek / spec.unit)};

  const auto source = openTrace("detect", trace, spec.hierarchy, err);
  if (!source) return 1;
  TiresiasPipeline pipeline(borrowHierarchy(spec.hierarchy), cfg);
  report::AnomalyStore store(spec.hierarchy);
  RunSummary summary;
  try {
    summary =
        pipeline.run(*source, [&](const InstanceResult& r) { store.add(r); });
  } catch (const persist::SnapshotError& e) {
    err << "detect: bad binary trace: " << e.what() << "\n";
    return 1;
  }

  out << "processed " << summary.unitsProcessed << " timeunits, "
      << summary.recordsProcessed << " records ("
      << summary.junkRowsSkipped << " junk rows skipped)\n";
  out << summary.instancesDetected << " detection instances, "
      << store.size() << " anomalies\n";
  if (summary.warmupUnitsBuffered > 0) {
    err << "warning: trace ended during warm-up ("
        << summary.warmupUnitsBuffered << " of "
        << cfg.detector.windowLength
        << " window units buffered); no detection was performed — use a "
           "longer trace or a smaller --window\n";
  }
  if (!summary.seasons.empty()) {
    out << "seasonality:";
    for (const auto& s : summary.seasons) {
      out << " period=" << s.period << " (w=" << fmtF(s.weight, 2) << ")";
    }
    out << "\n";
  }
  for (const auto& e : store.all()) {
    out << "anomaly unit=" << e.anomaly.unit << " " << e.path
        << " actual=" << fmtF(e.anomaly.actual, 0)
        << " forecast=" << fmtF(e.anomaly.forecast, 1) << "\n";
  }
  const std::string& outPath = opt.str("out");
  if (!outPath.empty()) {
    store.exportCsv(outPath);
    out << "anomaly report written to " << outPath << "\n";
  }
  return 0;
}

int cmdAnalyze(const Options& opt, std::ostream& out, std::ostream& err) {
  WorkloadSpec spec;
  if (!parseDataset(opt, err, spec)) return 2;
  const std::string& trace = opt.str("trace");
  if (trace.empty()) {
    err << "analyze: --trace is required\n";
    return 2;
  }
  const long long unitMinutes = opt.num("unit-minutes");
  const Duration delta = unitMinutes * kMinute;

  const auto source = openTrace("analyze", trace, spec.hierarchy, err);
  if (!source) return 1;
  std::vector<double> counts;
  try {
    TimeUnitBatcher batcher(*source, delta, 0);
    while (auto b = batcher.next()) {
      counts.push_back(static_cast<double>(b->records.size()));
    }
  } catch (const persist::SnapshotError& e) {
    err << "analyze: bad binary trace: " << e.what() << "\n";
    return 1;
  }
  if (counts.size() < 64) {
    err << "analyze: trace too short (" << counts.size() << " units)\n";
    return 1;
  }
  SeasonalityOptions opts;
  opts.candidatePeriods = {static_cast<std::size_t>(kDay / delta),
                           static_cast<std::size_t>(kWeek / delta)};
  const auto result = analyzeSeasonality(counts, opts);
  out << counts.size() << " timeunits of " << unitMinutes << " minutes\n";
  for (std::size_t i = 0; i < result.seasons.size(); ++i) {
    out << "season " << i + 1 << ": period=" << result.seasons[i].period
        << " units (" << fmtF(static_cast<double>(result.seasons[i].period) *
                                  static_cast<double>(unitMinutes) / 60.0,
                              1)
        << " hours), weight=" << fmtF(result.seasons[i].weight, 2) << "\n";
  }
  if (result.seasons.empty()) out << "no significant seasonality found\n";
  return 0;
}

int cmdHierarchy(const Options& opt, std::ostream& out, std::ostream& err) {
  WorkloadSpec spec;
  if (!parseDataset(opt, err, spec)) return 2;
  const auto& h = spec.hierarchy;
  out << "nodes=" << h.size() << " leaves=" << h.leafCount()
      << " height=" << h.height() << "\n";
  for (int d = 1; d <= h.height(); ++d) {
    const auto range = h.nodesAtDepth(d);
    out << "depth " << d << ": " << range.size() << " nodes";
    if (!range.empty()) {
      out << " (e.g. " << h.path(range.first) << ")";
    }
    out << "\n";
  }
  return 0;
}

/// Maps `serve`'s options to a ServerConfig, or explains the usage error
/// on `err` and returns nullopt. Arms --fault-plan; `faultArmed` tells
/// the caller to disarm it.
std::optional<serve::ServerConfig> serveConfig(const Options& opt,
                                               std::ostream& err,
                                               bool& faultArmed) {
  // Counts and sizes: the table already checked they are not negative.
  const auto size = [&opt](const char* name) {
    return static_cast<std::size_t>(opt.num(name));
  };
  serve::ServerConfig cfg;
  cfg.engine.workers = size("workers");
  cfg.engine.ingestThreads = size("ingest-threads");
  cfg.engine.runBudget = size("budget");
  cfg.engine.streamQueueCapacity = size("queue");
  cfg.engine.totalQueueCapacity = size("total-queue");
  cfg.engine.maxResidentStreams = size("max-resident");
  cfg.engine.hibernateDir = opt.str("hibernate-dir");
  cfg.theta = opt.real("theta");
  cfg.window = size("window");
  cfg.streams = size("streams");
  cfg.units = opt.num("units");
  cfg.seed = static_cast<std::uint64_t>(opt.num("seed"));
  cfg.scale = scaleOf(opt.str("scale"));
  cfg.loopback = opt.has("loopback");
  cfg.checkpointDir = opt.str("checkpoint-dir");
  cfg.checkpointEvery = size("checkpoint-every");
  cfg.restore = opt.has("restore");
  cfg.metricsOut = opt.str("metrics-out");
  cfg.metricsEveryMs = size("metrics-every");
  const auto port = [&opt](const char* name) {
    return opt.has(name) ? std::optional(static_cast<std::uint16_t>(
                               opt.num(name)))
                         : std::nullopt;
  };
  cfg.anomalyPort = port("anomaly-port");
  cfg.statsPort = port("stats-port");
  cfg.listenPort = port("listen");
  // All serving-surface ports are unauthenticated, so offer the obvious
  // containment: one flag restricting every listener to 127.0.0.1.
  if (cfg.loopback && !cfg.listenPort && !cfg.anomalyPort && !cfg.statsPort) {
    err << "serve: --loopback requires --listen, --anomaly-port, or "
           "--stats-port\n";
    return std::nullopt;
  }
  if (!cfg.listenPort) return cfg;

  // Named resumable streams (--stream-names a,b,c). Parsed before the
  // --net-streams default, which depends on it: with names given,
  // anonymous slots default to none.
  if (opt.has("stream-names")) {
    std::stringstream names(opt.str("stream-names") + ",");
    std::string name;
    while (std::getline(names, name, ',')) {
      if (name.empty() || name.size() > kSocketMaxStreamNameBytes) {
        err << "serve: --stream-names wants comma-separated names of 1.."
            << kSocketMaxStreamNameBytes << " bytes\n";
        return std::nullopt;
      }
      if (std::find(cfg.streamNames.begin(), cfg.streamNames.end(), name) !=
          cfg.streamNames.end()) {
        err << "serve: --stream-names lists '" << name << "' twice\n";
        return std::nullopt;
      }
      cfg.streamNames.push_back(name);
    }
  }
  // Anonymous (positional) slots: default 1, or 0 once named streams are
  // declared — but explicit --net-streams always wins.
  cfg.netStreams = size("net-streams");
  if (!opt.has("net-streams") && !cfg.streamNames.empty()) cfg.netStreams = 0;
  if (cfg.netStreams == 0 && cfg.streamNames.empty()) {
    err << "serve: --net-streams must be positive (0 allowed only with "
           "--stream-names)\n";
    return std::nullopt;
  }
  // Every socket stream holds a 64 KiB read buffer from the start, named
  // or not, so both kinds count against one ceiling.
  if (cfg.netStreams + cfg.streamNames.size() > kMaxNetStreams) {
    err << "serve: --net-streams plus --stream-names must be at most "
        << static_cast<long long>(kMaxNetStreams) << " streams (got "
        << cfg.netStreams + cfg.streamNames.size() << ")\n";
    return std::nullopt;
  }
  WorkloadSpec spec;
  if (!parseDataset(opt, err, spec)) return std::nullopt;
  cfg.spec = std::make_shared<const WorkloadSpec>(std::move(spec));
  const std::string& format = opt.str("ingest-format");
  if (format == "csv") {
    cfg.format = SocketSourceOptions::Format::kCsv;
  } else if (format == "binary") {
    cfg.format = SocketSourceOptions::Format::kBinary;
  }
  cfg.readTimeoutMs = static_cast<int>(opt.num("read-timeout-ms"));
  cfg.errorBudget = size("error-budget");
  cfg.junkBudget = size("junk-budget");
  cfg.shedWatermark = size("shed-watermark");
  if (opt.has("fault-plan")) {
    std::string planError;
    if (!faultinject::arm(opt.str("fault-plan"), &planError)) {
      err << "serve: bad --fault-plan: " << planError << "\n";
      return std::nullopt;
    }
    faultArmed = true;
  }
  return cfg;
}

/// The end-of-run report of a drained server.
void printServeReport(const serve::Server& server,
                      const engine::EngineStats& stats, std::ostream& out,
                      std::ostream& err) {
  const serve::ServerConfig& cfg = server.config();
  const engine::DetectionEngine& eng = server.engine();
  out << "engine: " << eng.streamCount() << " streams, "
      << stats.scheduler.workers << " workers, " << stats.ingestThreads
      << " ingest threads (stream queue " << cfg.engine.streamQueueCapacity
      << ", total queue " << cfg.engine.totalQueueCapacity << ", budget "
      << stats.scheduler.runBudget << ")\n";
  for (std::size_t i = 0; i < eng.streamCount(); ++i) {
    const auto sum = eng.streamSummary(i);
    const auto& ss = stats.perStream[i];
    out << "stream " << eng.streamName(i) << ": units="
        << sum.unitsProcessed << " records=" << sum.recordsProcessed
        << " instances=" << sum.instancesDetected
        << " anomalies=" << sum.anomaliesReported
        << " junk=" << sum.junkRowsSkipped << " runs=" << ss.runs
        << " requeues=" << ss.requeues << "\n";
    if (sum.warmupUnitsBuffered > 0) {
      err << "warning: stream " << eng.streamName(i)
          << " ended during warm-up (" << sum.warmupUnitsBuffered
          << " units buffered, no detection performed) — run more --units "
             "or shrink --window\n";
    }
  }
  out << "scheduler: claims=" << stats.scheduler.claims
      << " requeues=" << stats.scheduler.requeues
      << " max-ready=" << stats.scheduler.maxReadyStreams
      << " max-queued=" << stats.scheduler.maxQueuedUnits
      << " backpressure-waits=" << stats.scheduler.backpressureWaits
      << " busiest-share=" << fmtF(stats.busiestStreamShare, 2) << "\n";
  out << "residency: hierarchies=" << stats.distinctHierarchies
      << " workspace-bytes=" << stats.workspaceBytes
      << " resident=" << stats.residentStreams
      << " hibernated=" << stats.hibernatedStreams
      << " evictions=" << stats.hibernateEvictions
      << " wakes=" << stats.hibernateWakes << "\n";
  out << "aggregate: ingested=" << stats.unitsIngested
      << " units=" << stats.unitsProcessed
      << " discarded=" << stats.unitsDiscarded
      << " lag=" << stats.queueLagUnits()
      << " records=" << stats.recordsProcessed
      << " instances=" << stats.instancesDetected
      << " anomalies=" << stats.anomaliesReported
      << " junk=" << stats.junkRowsSkipped
      << " warmup=" << stats.warmupUnitsBuffered << "\n";
  if (stats.metrics.enabled && !stats.metrics.stages.empty()) {
    out << "stages (latency percentiles):\n";
    AsciiTable table({"stage", "count", "p50 us", "p90 us", "p99 us",
                      "max us", "total s"});
    for (const auto& s : stats.metrics.stages) {
      table.addRow({s.name, std::to_string(s.count), fmtF(s.p50 * 1e6, 1),
                    fmtF(s.p90 * 1e6, 1), fmtF(s.p99 * 1e6, 1),
                    fmtF(s.max * 1e6, 1), fmtF(s.totalSeconds, 3)});
    }
    table.print(out);
  }
  if (!cfg.checkpointDir.empty()) {
    // Read after drain() wrote the final checkpoint.
    const engine::CheckpointStats ckpt = eng.stats().checkpoint;
    out << "checkpoints: " << ckpt.checkpoints << " taken (last "
        << ckpt.lastBytes << " bytes, " << fmtF(ckpt.lastSeconds * 1e3, 1)
        << " ms; total " << fmtF(ckpt.totalSeconds * 1e3, 1) << " ms), "
        << ckpt.restores << " restores -> " << server.checkpointPath()
        << "\n";
  }
  if (cfg.listenPort) {
    const serve::NetTotals net = server.netTotals();
    out << "net: protocol-errors=" << net.protocolErrors
        << " unresolved-paths=" << net.unresolvedPaths
        << " reconnects=" << net.reconnects << " resumes=" << net.resumes
        << " shed=" << net.shed << " rejected=" << net.rejected;
    if (faultinject::armed()) {
      out << " injected-faults=" << faultinject::injectedCount();
    }
    if (cfg.anomalyPort) {
      out << " anomaly-subscribers=" << net.anomalySubscribers;
    }
    if (cfg.statsPort) out << " stats-polls=" << net.statsPolls;
    out << "\n";
  }
  out << "elapsed " << fmtF(stats.elapsedSeconds, 3) << "s, "
      << fmtF(stats.recordsPerSecond, 0) << " records/sec\n";
}

int cmdServe(const Options& opt, std::ostream& out, std::ostream& err) {
  // A --fault-plan armed by this run is disarmed on every exit path, so
  // in-process callers (tests) never leak chaos into the next command.
  struct FaultInjectGuard {
    bool armed = false;
    ~FaultInjectGuard() {
      if (armed) faultinject::disarm();
    }
  } faultGuard;
  std::optional<serve::ServerConfig> cfg =
      serveConfig(opt, err, faultGuard.armed);
  if (!cfg) return 2;
  serve::Server server(std::move(*cfg), out, err);
  if (!server.start()) {
    err << "serve: " << server.error() << "\n";
    return 1;
  }
  const engine::EngineStats stats = server.drain();
  printServeReport(server, stats, out, err);
  return 0;
}

int cmdSend(const Options& opt, std::ostream& out, std::ostream& err) {
  const std::string& to = opt.str("to");
  const std::string& trace = opt.str("trace");
  if (to.empty() || trace.empty()) {
    err << "send: --to HOST:PORT and --trace FILE are required\n";
    return 2;
  }
  const std::size_t colon = to.rfind(':');
  long long portIn = -1;
  if (colon != std::string::npos && colon + 1 < to.size()) {
    try {
      std::size_t pos = 0;
      portIn = std::stoll(to.substr(colon + 1), &pos);
      if (pos != to.size() - colon - 1) portIn = -1;
    } catch (const std::exception&) {
      portIn = -1;
    }
  }
  if (colon == std::string::npos || colon == 0 || portIn < 1 ||
      portIn > 65535) {
    err << "send: bad --to '" << to << "' (want HOST:PORT)\n";
    return 2;
  }
  const std::string host = to.substr(0, colon);
  const std::string& format = opt.str("format");
  const long long frameIn = opt.num("frame");
  const long long timeoutMs = opt.num("timeout-ms");
  const long long retries = opt.num("retries");
  const long long backoffMs = opt.num("backoff-ms");
  const std::string& streamName = opt.str("stream-name");

  net::ignoreSigpipe();
  const auto port = static_cast<std::uint16_t>(portIn);

  if (format == "csv") {
    // CSV is forwarded verbatim; the server applies CsvSource semantics.
    std::ifstream in(trace, std::ios::binary);
    if (!in) {
      err << "send: cannot open --trace '" << trace << "'\n";
      return 1;
    }
    net::TcpConn conn =
        net::connectTo(host, port, static_cast<int>(timeoutMs));
    if (!conn.valid()) {
      err << "send: cannot connect to " << to << "\n";
      return 1;
    }
    std::vector<char> chunk(256 * 1024);
    std::uint64_t bytes = 0;
    while (in) {
      in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      const auto got = static_cast<std::size_t>(in.gcount());
      if (got == 0) break;
      if (!conn.writeAll(chunk.data(), got)) {
        err << "send: connection lost after " << bytes << " bytes\n";
        return 1;
      }
      bytes += got;
    }
    conn.shutdownWrite();
    out << "sent " << bytes << " csv bytes to " << to << "\n";
    return 0;
  }

  // Binary: resolve the trace against the dataset hierarchy, then frame
  // its records with the hierarchy's own paths as the handshake table
  // (file-id == NodeId, so records pass through unmapped).
  WorkloadSpec spec;
  if (!parseDataset(opt, err, spec)) return 2;
  const Hierarchy& h = spec.hierarchy;
  std::vector<std::string> paths;
  paths.reserve(h.size());
  for (std::size_t n = 0; n < h.size(); ++n) {
    paths.push_back(h.path(static_cast<NodeId>(n)));
  }
  // Client-chosen session token (informational — the name is the
  // identity) which doubles as the backoff-jitter seed, so concurrent
  // retrying clients spread out instead of reconnecting in lockstep.
  std::random_device rd;
  const std::uint64_t token =
      (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  std::mt19937_64 jitterRng(token);
  const int ioTimeout = static_cast<int>(timeoutMs);

  std::uint64_t sent = 0, resumeSkipped = 0, skipped = 0;
  std::string lastError;
  for (long long attempt = 0;; ++attempt) {
    if (attempt > 0) {
      if (attempt > retries) {
        err << "send: " << lastError << " (gave up after " << retries
            << " retries)\n";
        return 1;
      }
      // Jittered exponential backoff, capped at 10s: delay in
      // [base/2, base] with base = backoffMs * 2^(attempt-1).
      const long long shift = attempt - 1 < 10 ? attempt - 1 : 10;
      const long long base = std::min(backoffMs << shift, 10'000LL);
      std::uniform_int_distribution<long long> jitter(base / 2, base);
      std::this_thread::sleep_for(std::chrono::milliseconds(jitter(jitterRng)));
      err << "send: " << lastError << "; retrying (" << attempt << "/"
          << retries << ")\n";
    }
    sent = 0;
    resumeSkipped = 0;
    // The trace reopens on every attempt, before connecting: a trace that
    // cannot be read must not cost the server a connection.
    const auto source = openTrace("send", trace, h, err);
    if (!source) return 1;
    net::TcpConn conn = net::connectTo(host, port, ioTimeout);
    if (!conn.valid()) {
      lastError = "cannot connect to " + to;
      continue;
    }
    // An empty --stream-name opens an anonymous stream.
    std::vector<std::uint8_t> wire =
        encodeSocketHandshakeV2(paths, streamName, token);
    if (!conn.writeAll(wire.data(), wire.size(), ioTimeout)) {
      lastError = "connection lost during handshake";
      continue;
    }
    // The server answers with the position it has already committed
    // (named streams only); everything before it is skipped, not re-sent.
    SocketResumeReply reply;
    if (!readSocketResumeReply(conn, ioTimeout, reply)) {
      lastError = "no resume reply from server";
      continue;
    }
    if (reply.status == kSocketResumeUnknownStream) {
      err << "send: server does not serve a stream named '" << streamName
          << "'\n";
      return 1;
    }
    if (reply.status == kSocketResumeStreamEnded) {
      err << "send: stream '" << streamName
          << "' has already ended on the server\n";
      return 1;
    }
    if (reply.status != kSocketResumeOk) {
      lastError = "unexpected resume reply status " +
                  std::to_string(reply.status);
      continue;
    }
    const Timestamp committed = reply.committedTime;
    if (committed != kSocketNoCommit && attempt > 0) {
      err << "send: resuming '" << streamName << "' from t=" << committed
          << "\n";
    }
    // The committed prefix is dropped record by record and the rest
    // re-framed.
    bool lost = false;
    try {
      std::vector<Record> batch, keep;
      while (source->nextBatch(batch, static_cast<std::size_t>(frameIn)) >
             0) {
        keep.clear();
        for (const Record& r : batch) {
          if (r.time < committed) {
            ++resumeSkipped;
          } else {
            keep.push_back(r);
          }
        }
        if (keep.empty()) continue;
        wire.clear();
        appendSocketFrame(wire, keep.data(), keep.size());
        if (!conn.writeAll(wire.data(), wire.size(), ioTimeout)) {
          lastError =
              "connection lost after " + std::to_string(sent) + " records";
          lost = true;
          break;
        }
        sent += keep.size();
      }
      if (!lost) {
        skipped = source->skippedRecords();
        wire.clear();
        appendSocketEndOfStream(wire);
        if (!conn.writeAll(wire.data(), wire.size(), ioTimeout)) {
          lastError = "connection lost at end of stream";
          lost = true;
        }
      }
    } catch (const persist::SnapshotError& e) {
      err << "send: cannot read --trace '" << trace << "': " << e.what()
          << "\n";
      return 1;
    }
    if (lost) continue;
    conn.shutdownWrite();
    break;
  }
  // resumeSkipped counts records the server had already committed — they
  // were delivered (by an earlier attempt or an earlier process), so the
  // logical total stays the full trace.
  out << "sent " << (sent + resumeSkipped) << " records to " << to << " ("
      << skipped << " skipped)\n";
  return 0;
}

struct Command {
  const char* name;
  int (*run)(const Options&, std::ostream&, std::ostream&);
  const char* about;  // usage prose above the generated option lines
};

constexpr Command kCommands[] = {
    {"generate", cmdGenerate, "synthesize a CSV trace of a preset workload."},
    {"convert", cmdConvert,
     "re-encode a CSV trace as parse-free (path id, timestamp) records;\n"
     "  junk rows are dropped and counted exactly as the CSV reader does."},
    {"detect", cmdDetect, "run the detection pipeline over a trace."},
    {"analyze", cmdAnalyze,
     "FFT/wavelet seasonality report of a trace's root counts."},
    {"hierarchy", cmdHierarchy, "print a hierarchy summary."},
    {"serve", cmdServe,
     "run generated streams, or TCP-fed ones (--listen: CSV rows or the\n"
     "  framed protocol of `send`), through the detection engine and print\n"
     "  per-stream and engine stats. Bound ports are printed on one\n"
     "  'serving:' line; none is authenticated."},
    {"send", cmdSend,
     "stream a trace into a `serve --listen`. binary: records resolve\n"
     "  against the --dataset/--hierarchy tree (which must match the\n"
     "  server's) and go out framed; csv: the file's bytes go out verbatim."},
};

/// Whether `word` is one of the `sep`-separated entries of `list`.
bool listed(std::string_view list, char sep, std::string_view word) {
  const std::string padded = sep + std::string(list) + sep;
  return word.find(sep) == std::string_view::npos &&
         padded.find(sep + std::string(word) + sep) != std::string::npos;
}

std::string boundText(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << v;  // 65535, not 65535.0 or 6.5535e+04
  return os.str();
}

/// A number's bounds in words: "positive", ">= 0", "in [0, 65535]", or
/// "" when unbounded.
std::string boundsPhrase(const CliOption& o) {
  if (o.hi != kUnbounded) {
    return "in [" + boundText(o.lo) + ", " + boundText(o.hi) + "]";
  }
  if (o.lo == (o.kind == Kind::kInt ? 1 : kPositive)) return "positive";
  return o.lo == -kUnbounded ? "" : ">= " + boundText(o.lo);
}

/// Whether a row's mode restriction binds under `command`: the listen
/// modes are `serve`'s, and every binary-only row is a `send` option.
bool modeApplies(const CliOption& o, std::string_view command) {
  return o.mode == Mode::kBinaryOnly || command == "serve";
}

/// One usage line: "  --listen port in [0, 65535]  <help> ...".
std::string usageLine(const CliOption& o, std::string_view command) {
  std::string line = "  --" + std::string(o.name);
  if (o.kind == Kind::kInt || o.kind == Kind::kReal) {
    const std::string noun =
        *o.value ? o.value : o.kind == Kind::kInt ? "int" : "real";
    const std::string bounds = boundsPhrase(o);
    line += bounds.empty()           ? " " + noun
            : bounds == "positive" ? " positive " + noun
                                   : " " + noun + " " + bounds;
  } else if (o.kind == Kind::kString && o.lo > 0) {
    line += " " + std::string(o.value) + " of " + boundText(o.lo) + ".." +
            boundText(o.hi) + " bytes";
  } else if (*o.value) {
    line += " " + std::string(o.value);
  }
  line.resize(std::max<std::size_t>(line.size() + 2, 38), ' ');
  line += o.help;
  if (*o.def) line += " (default " + std::string(o.def) + ")";
  if (o.kind == Kind::kRepeated) line += " [repeatable]";
  if (o.needs) line += " [needs --" + std::string(o.needs) + "]";
  constexpr const char* kModeNote[] = {"", " [needs --listen]",
                                       " [not with --listen]",
                                       " [not with --format csv]"};
  if (modeApplies(o, command)) line += kModeNote[static_cast<int>(o.mode)];
  return line;
}

/// Usage of one command, or of all of them when `only` is empty.
void printUsage(std::ostream& os, std::string_view only) {
  os << "usage: tiresias_cli " << (only.empty() ? "<command>" : only)
     << " [options]\n";
  for (const Command& c : kCommands) {
    if (!only.empty() && only != c.name) continue;
    os << "\n" << c.name << ": " << c.about << "\n";
    for (const CliOption& o : kOptions) {
      if (listed(o.commands, ' ', c.name)) os << usageLine(o, c.name) << "\n";
    }
  }
  if (only.empty()) {
    os << "\nUnknown, repeated or out-of-range options are usage errors "
          "(exit 2).\n";
  }
}

/// Checks one value (the command-line text, else the default) against its
/// row and stores it typed. Returns the problem, or "" if there is none.
std::string checkValue(const CliOption& o, Options::Value& v) {
  const std::string name = "--" + std::string(o.name);
  const std::string& text = v.text;
  switch (o.kind) {
    case Kind::kFlag:
      return text.empty() ? "" : name + " takes no value";
    case Kind::kEnum:
      if (listed(o.value, '|', text)) return "";
      return "unknown " + name + " '" + text + "' (want " + o.value + ")";
    case Kind::kString: {
      const auto bytes = static_cast<double>(text.size());
      if (bytes >= o.lo && bytes <= o.hi) return "";
      return name + " wants " + boundText(o.lo) + ".." + boundText(o.hi) +
             " bytes";
    }
    case Kind::kRepeated:
      return "";
    case Kind::kInt:
    case Kind::kReal:
      break;
  }
  // Full-field parse: empty text, trailing garbage and overflow are usage
  // errors, never an uncaught std::sto* exception.
  double x = 0;
  bool parsed = false;
  try {
    std::size_t pos = 0;
    if (o.kind == Kind::kInt) {
      v.num = std::stoll(text, &pos);
      x = static_cast<double>(v.num);
    } else {
      x = v.real = std::stod(text, &pos);
    }
    parsed = pos == text.size();
  } catch (const std::exception&) {
  }
  if (!parsed) return "bad numeric value '" + text + "' for " + name;
  if (!std::isfinite(x)) return name + " must be finite (got '" + text + "')";
  if (x < o.lo || x > o.hi) {
    return name + " must be " + boundsPhrase(o) + " (got '" + text + "')";
  }
  return "";
}

/// Checks `args` against the table rows `command` accepts and returns
/// their typed values; on a usage error, explains it on `err` and returns
/// nullopt. Only rules spanning two values stay in the commands.
std::optional<Options> parseOptions(std::string_view command,
                                    const CliArgs& args, std::ostream& err) {
  if (!args.positional.empty()) {
    err << command << ": unexpected argument '" << args.positional[0]
        << "'\n";
    printUsage(err, command);
    return std::nullopt;
  }
  Options opt;
  for (const CliOption& o : kOptions) {
    if (listed(o.commands, ' ', command)) opt.values[o.name].row = &o;
  }
  for (const auto& [key, text] : args.options) {
    const auto it = opt.values.find(key);
    if (it == opt.values.end()) {
      err << command << ": unknown option '--" << key << "'\n";
      printUsage(err, command);
      return std::nullopt;
    }
    Options::Value& v = it->second;
    if (v.given && v.row->kind != Kind::kRepeated) {
      const auto times = std::count_if(
          args.options.begin(), args.options.end(),
          [&key = key](const auto& kv) { return kv.first == key; });
      err << command << ": option '--" << key << "' given " << times
          << " times\n";
      return std::nullopt;
    }
    v.given = true;
    v.text = text;
    v.all.push_back(text);
  }
  for (auto& [name, v] : opt.values) {
    if (!v.given) v.text = v.row->def;
    if (!v.given && v.text.empty()) continue;
    if (const std::string problem = checkValue(*v.row, v); !problem.empty()) {
      err << command << ": " << problem << "\n"
          << usageLine(*v.row, command) << "\n";
      return std::nullopt;
    }
  }
  for (const auto& [name, v] : opt.values) {
    if (!v.given) continue;
    const CliOption& o = *v.row;
    const bool bound = modeApplies(o, command);
    std::string problem;
    if (o.needs && !opt.has(o.needs)) {
      problem = "requires --" + std::string(o.needs);
    } else if (bound && o.mode == Mode::kListenOnly && !opt.has("listen")) {
      problem = "requires --listen";
    } else if (bound && o.mode == Mode::kGeneratedOnly && opt.has("listen")) {
      problem = "cannot be combined with --listen";
    } else if (bound && o.mode == Mode::kBinaryOnly &&
               opt.str("format") == "csv") {
      problem =
          "cannot be used with --format csv (resume options require the "
          "binary format: csv bytes are forwarded verbatim, with no "
          "handshake to resume from)";
    }
    if (!problem.empty()) {
      err << command << ": --" << name << " " << problem << "\n";
      return std::nullopt;
    }
  }
  return opt;
}

}  // namespace

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  std::string value = fallback;
  for (const auto& [key, v] : options) {
    if (key == name) value = v;
  }
  return value;
}

bool CliArgs::has(const std::string& name) const {
  for (const auto& [key, v] : options) {
    (void)v;
    if (key == name) return true;
  }
  return false;
}

CliArgs parseArgs(const std::vector<std::string>& argv) {
  CliArgs args;
  std::size_t i = 0;
  if (!argv.empty() && argv[0].rfind("--", 0) != 0) {
    args.command = argv[i++];
  }
  for (; i < argv.size(); ++i) {
    if (argv[i].rfind("--", 0) == 0) {
      const std::string key = argv[i].substr(2);
      if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0) {
        args.options.emplace_back(key, argv[++i]);
      } else {
        args.options.emplace_back(key, "");
      }
    } else {
      args.positional.push_back(argv[i]);
    }
  }
  return args;
}

std::span<const CliOption> cliOptions() { return kOptions; }

int runCli(const std::vector<std::string>& argv, std::ostream& out,
           std::ostream& err) {
  const CliArgs args = parseArgs(argv);
  if (args.command.empty() || args.command == "help") {
    printUsage(out, "");
    return args.command.empty() ? 2 : 0;
  }
  for (const Command& c : kCommands) {
    if (args.command != c.name) continue;
    const std::optional<Options> opt = parseOptions(c.name, args, err);
    return opt ? c.run(*opt, out, err) : 2;
  }
  err << "unknown command '" << args.command << "'\n";
  printUsage(err, "");
  return 2;
}

}  // namespace tiresias::tools
