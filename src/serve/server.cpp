#include "serve/server.h"

#include <chrono>
#include <filesystem>
#include <iterator>
#include <new>
#include <ostream>
#include <system_error>

#include "common/faultinject.h"
#include "timeseries/ewma.h"
#include "workload/scd.h"

namespace tiresias::serve {

namespace {

/// How often the ticker looks at the clock and the processed-unit count.
constexpr auto kTick = std::chrono::milliseconds(20);

/// Generated streams cycle through the dataset presets (the paper's two
/// CCD hierarchies plus SCD), each with its own seed.
struct Preset {
  const char* name;
  workload::WorkloadSpec (*make)(workload::Scale);
};
constexpr Preset kPresets[] = {
    {"ccd-net", workload::ccdNetworkWorkload},
    {"ccd-trouble", workload::ccdTroubleWorkload},
    {"scd", workload::scdNetworkWorkload},
};

/// --ingest-format names, indexed by SocketSourceOptions::Format.
constexpr const char* kFormatNames[] = {"auto", "csv", "binary"};

/// Reconnects and resumes over every socket stream. Both are atomics in
/// the source, so the gauge sampler may read them while ingest runs.
NetTotals resumeTotals(const std::vector<const SocketSource*>& sources) {
  NetTotals t;
  for (const SocketSource* s : sources) {
    t.reconnects += s->reconnects();
    t.resumes += s->resumes();
  }
  return t;
}

}  // namespace

PipelineConfig streamPipelineConfig(const ServerConfig& config,
                                    const workload::WorkloadSpec& spec) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = config.theta;
  cfg.detector.windowLength = config.window;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  return cfg;
}

Server::Server(ServerConfig config, std::ostream& out, std::ostream& err)
    : config_(std::move(config)),
      out_(out),
      err_(err),
      checkpointPath_(config_.checkpointDir.empty()
                          ? ""
                          : config_.checkpointDir + "/checkpoint.tsnap"),
      engine_(config_.engine,
              [this](const std::string& name, const InstanceResult& res) {
                store_.add(name, res);
                if (!config_.anomalyPort) return;
                const Hierarchy& h = *streamTree_.at(name);
                for (const Anomaly& a : res.anomalies) {
                  broadcaster_.publish(anomalyJsonLine(
                      name, h.path(a.node), h.depth(a.node), a));
                }
              }) {}

Server::~Server() { stop(); }

std::uint16_t Server::ingestPort() const {
  return ingestListener_ ? ingestListener_->port() : 0;
}

bool Server::start() {
  net::ignoreSigpipe();
  if (config_.listenPort) {
    ingestListener_ = std::make_shared<net::TcpListener>();
    if (!ingestListener_->listen(*config_.listenPort, config_.loopback)) {
      error_ = "cannot listen on port " + std::to_string(*config_.listenPort) +
               ": " + ingestListener_->lastError();
      return false;
    }
  }
  if (!registerStreams()) return false;

  if (!config_.checkpointDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpointDir, ec);
    if (ec) {
      error_ = "cannot create --checkpoint-dir '" + config_.checkpointDir +
               "': " + ec.message();
      return false;
    }
  }
  if (config_.restore) {
    try {
      const std::size_t restored = engine_.restoreFrom(
          checkpointPath_,
          [this](persist::Deserializer& d) { store_.loadState(d); });
      out_ << "restored " << restored << " streams from " << checkpointPath_
           << "\n";
    } catch (const persist::SnapshotError& e) {
      error_ = std::string("restore failed: ") + e.what();
      return false;
    }
  }

  // Output-side servers come up before the engine so a script can parse
  // the flushed "serving:" line, subscribe, and only then feed records.
  if (config_.anomalyPort &&
      !broadcaster_.start(*config_.anomalyPort, config_.loopback)) {
    error_ = "cannot listen on --anomaly-port " +
             std::to_string(*config_.anomalyPort) + ": " + broadcaster_.error();
    return false;
  }
  if (config_.statsPort &&
      !statsServer_.start(
          *config_.statsPort,
          [this] { return engineStatsJson(engine_.stats()); },
          config_.loopback)) {
    error_ = "cannot listen on --stats-port " +
             std::to_string(*config_.statsPort) + ": " + statsServer_.error();
    return false;
  }
  if (config_.listenPort || config_.anomalyPort || config_.statsPort) {
    out_ << "serving:";
    if (config_.listenPort) {
      out_ << " ingest=" << ingestPort()
           << " format=" << kFormatNames[static_cast<int>(config_.format)]
           << " net-streams=" << engine_.streamCount();
      if (!config_.streamNames.empty()) {
        out_ << " named=" << config_.streamNames.size();
      }
    }
    if (config_.anomalyPort) out_ << " anomaly=" << broadcaster_.port();
    if (config_.statsPort) out_ << " stats=" << statsServer_.port();
    out_ << std::endl;  // flushed: scripts block on this line
  }

  // A host that cannot honour the thread counts (RLIMIT_AS, RLIMIT_NPROC)
  // is an error, not an abort; stop() joins whatever threads did start.
  try {
    engine_.start();
    if (router_) router_->start();
  } catch (const std::system_error& e) {
    const engine::EngineStats stats = engine_.stats();
    error_ = "cannot start " +
             std::to_string(stats.scheduler.workers + stats.ingestThreads) +
             " threads: " + e.what();
    return false;
  }

  if (!config_.metricsOut.empty()) {
    metricsFile_.open(config_.metricsOut, std::ios::trunc);
    if (!metricsFile_) {
      error_ = "cannot open --metrics-out '" + config_.metricsOut + "'";
      return false;
    }
  }
  if (metricsFile_.is_open() || config_.checkpointEvery > 0) {
    try {
      ticker_ = std::thread([this] { tickLoop(); });
    } catch (const std::system_error& e) {
      error_ = std::string("cannot start the ticker thread: ") + e.what();
      return false;
    }
  }
  return true;
}

bool Server::registerStreams() {
  // Registration allocates per stream (the engine stream, a socket
  // source's read buffer); a count the host cannot hold is an error.
  const std::size_t streams =
      config_.listenPort ? config_.netStreams + config_.streamNames.size()
                         : config_.streams;
  // Built up front: the heap may be exhausted when it is needed.
  std::string failure =
      "cannot allocate " + std::to_string(streams) + " streams";
  try {
    if (config_.listenPort) {
      // One router thread accepts every ingest connection: v2 handshakes
      // carrying a name land on that name's slot (every reconnect
      // included), everything else fills the anonymous slots first-come.
      StreamRouter::Options ropt;
      ropt.format = config_.format;
      ropt.handshakeTimeoutMs = config_.readTimeoutMs;
      if (config_.shedWatermark > 0) {
        // Accept-time load shedding: refuse new connections while the
        // engine is this many units behind (stats() is thread-safe).
        ropt.shedPredicate = [this] {
          return engine_.stats().queueLagUnits() >= config_.shedWatermark;
        };
      }
      router_ = std::make_shared<StreamRouter>(ingestListener_, ropt);
      SocketSourceOptions sopt;
      sopt.format = config_.format;
      sopt.readTimeoutMs = config_.readTimeoutMs;
      sopt.protocolErrorBudget = config_.errorBudget;
      sopt.junkBudgetPerConn = config_.junkBudget;
      // Named resumable streams first. The engine stream name is the wire
      // name, so a checkpoint restore matches a reconnecting client's
      // stream by the same identity.
      for (const std::string& name : config_.streamNames) {
        SocketSourceOptions named = sopt;
        named.streamName = name;
        named.unitDelta = config_.spec->unit;
        addSocketStream(name, std::move(named), router_->addNamedSlot(name));
      }
      for (std::size_t i = 0; i < config_.netStreams; ++i) {
        addSocketStream("net-" + std::to_string(i), sopt,
                        router_->addAnonymousSlot());
      }
      // Fold the serving-surface counters into the sampled gauges the
      // stats endpoint serves. The sampler stops inside the engine's own
      // teardown, before the sources (engine owned) or the router die.
      engine_.setGaugeSampler([this](obs::MetricsRegistry& reg) {
        const NetTotals live = resumeTotals(netSources_);
        reg.recordValue(obs::Gauge::kNetReconnects, live.reconnects);
        reg.recordValue(obs::Gauge::kNetResumes, live.resumes);
        reg.recordValue(obs::Gauge::kNetShedConnections,
                        router_->shedConnections());
        reg.recordValue(obs::Gauge::kNetInjectedFaults,
                        faultinject::injectedCount());
      });
      return true;
    }
    // One spec per preset, not per stream: every stream of a preset
    // registers an aliasing handle into the same shared spec, so a
    // 100k-stream fleet holds three hierarchies, not 100k.
    specs_.reserve(std::size(kPresets));
    for (const Preset& preset : kPresets) {
      specs_.push_back(std::make_shared<const workload::WorkloadSpec>(
          preset.make(config_.scale)));
    }
    for (std::size_t i = 0; i < streams; ++i) {
      const std::shared_ptr<const workload::WorkloadSpec>& spec =
          specs_[i % std::size(kPresets)];
      const std::string name =
          std::string(kPresets[i % std::size(kPresets)].name) + "-" +
          std::to_string(i);
      store_.registerStream(name, spec->hierarchy);
      streamTree_.emplace(name, &spec->hierarchy);
      engine_.addStream(name, workload::sharedHierarchy(spec),
                        streamPipelineConfig(config_, *spec),
                        std::make_unique<workload::GeneratorSource>(
                            *spec, 0, config_.units, config_.seed + i));
    }
    return true;
  } catch (const std::bad_alloc&) {
    error_ = std::move(failure);
    return false;
  }
}

void Server::addSocketStream(const std::string& name,
                             SocketSourceOptions options, std::size_t slot) {
  const workload::WorkloadSpec& spec = *config_.spec;
  store_.registerStream(name, spec.hierarchy);
  streamTree_.emplace(name, &spec.hierarchy);
  auto src = std::make_unique<SocketSource>(router_, slot, spec.hierarchy,
                                            std::move(options));
  netSources_.push_back(src.get());
  engine_.addStream(name, workload::sharedHierarchy(config_.spec),
                    streamPipelineConfig(config_, spec), std::move(src));
}

void Server::checkpoint() {
  engine_.checkpoint(checkpointPath_,
                     [this](persist::Serializer& s) { store_.saveState(s); });
}

void Server::tickLoop() {
  using Clock = std::chrono::steady_clock;
  auto lastLine = Clock::now();
  std::size_t lastCheckpointUnits = engine_.stats().checkpoint.lastUnits;
  bool checkpointing = config_.checkpointEvery > 0;
  std::unique_lock lk(tickerMu_);
  while (!tickerCv_.wait_for(lk, kTick, [this] { return tickerStop_; })) {
    lk.unlock();
    const auto now = Clock::now();
    const bool lineDue =
        metricsFile_.is_open() &&
        now - lastLine >= std::chrono::milliseconds(config_.metricsEveryMs);
    // stats() copies every stream's counters: take it only when used.
    const engine::EngineStats stats =
        lineDue || checkpointing ? engine_.stats() : engine::EngineStats{};
    if (lineDue) {
      lastLine = now;
      metricsFile_ << engineStatsJson(stats) << "\n";
      metricsFile_.flush();
    }
    // The engine quiesces to a unit boundary around each snapshot and
    // resumes by itself, so this runs beside drain().
    if (checkpointing &&
        stats.unitsProcessed - lastCheckpointUnits >= config_.checkpointEvery) {
      try {
        checkpoint();
        lastCheckpointUnits = stats.unitsProcessed;
      } catch (const persist::SnapshotError& e) {
        err_ << "warning: checkpoint failed: " << e.what() << "\n";
        checkpointing = false;
      }
    }
    lk.lock();
  }
}

void Server::stopTicker() {
  {
    std::lock_guard lk(tickerMu_);
    tickerStop_ = true;
  }
  tickerCv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

engine::EngineStats Server::drain() {
  const engine::EngineStats stats = engine_.drain();
  std::lock_guard lk(lifecycleMu_);
  if (stopped_) return stats;  // stop() ended the run early
  stopped_ = true;
  if (router_) router_->stop();
  broadcaster_.stop();
  statsServer_.stop();
  stopTicker();
  if (metricsFile_.is_open()) {
    metricsFile_ << engineStatsJson(stats) << "\n";
    metricsFile_.close();
  }
  if (!config_.checkpointDir.empty()) {
    // Final checkpoint of the drained state, so a later --restore resumes
    // (or re-reports) from the end of this run.
    try {
      checkpoint();
    } catch (const persist::SnapshotError& e) {
      err_ << "warning: final checkpoint failed: " << e.what() << "\n";
    }
  }
  return stats;
}

void Server::stop() {
  std::lock_guard lk(lifecycleMu_);
  if (stopped_) return;
  stopped_ = true;
  // A stopped router wakes the sources waiting for a connection and ends
  // those idling on one within a pull, so a concurrent drain() finishes
  // and engine_.stop(), which waits for it, returns.
  if (router_) router_->stop();
  engine_.stop();
  broadcaster_.stop();
  statsServer_.stop();
  stopTicker();
}

NetTotals Server::netTotals() const {
  NetTotals t = resumeTotals(netSources_);
  for (const SocketSource* s : netSources_) {
    t.protocolErrors += s->protocolErrors();
    t.unresolvedPaths += s->unresolvedPaths();
  }
  if (router_) {
    t.shed = router_->shedConnections();
    t.rejected = router_->rejected();
  }
  t.anomalySubscribers = broadcaster_.accepted();
  t.statsPolls = statsServer_.served();
  return t;
}

}  // namespace tiresias::serve
