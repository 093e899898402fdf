// serve::Server — the one composition behind `tiresias_cli serve`.
//
// A Server owns every part of a serving run and wires them in one place:
//
//   streams      the generated preset streams (GeneratorSource), or, with
//                a listen port, socket-fed ones: one ingest TcpListener, a
//                StreamRouter, and a SocketSource per named slot
//                (resumable) and per anonymous slot (`net-0`, `net-1`, ...);
//   detection    one DetectionEngine over all streams, every stream with
//                the same detector setup (streamPipelineConfig);
//   results      a ConcurrentAnomalyStore that collects every anomaly and,
//                with an anomaly port, a JsonLineBroadcaster that fans each
//                one out as a JSON line;
//   stats        a StatsPollServer answering each poll with one
//                tiresias_metrics/v1 document, and the --metrics-out file
//                of the same documents, one line per period;
//   persistence  checkpoints to checkpointDir/checkpoint.tsnap (the store
//                rides in the snapshot's user section, so restored reports
//                continue the checkpointed ones with nothing lost or
//                doubled), every checkpointEvery processed units and once
//                after drain, and restore from it before start.
//
// One background ticker does all periodic work: it writes a metrics line
// every metricsEveryMs and takes a checkpoint every checkpointEvery
// processed units.
//
// Lifecycle:
//   start()  binds the ingest port, registers the streams, restores,
//            binds the anomaly and stats ports, announces the bound ports
//            on one flushed "serving:" line, then starts the engine, the
//            router and the ticker. Every failure (a port that cannot be
//            bound, a stream count the host cannot allocate, a thread
//            pool that cannot start, an unreadable checkpoint) returns
//            false with error() set; nothing aborts.
//   drain()  waits until every stream has ended and every unit is
//            processed, then stops the rest in this order:
//              1. the router: its shed predicate polls the engine, so its
//                 accept thread goes first;
//              2. the broadcaster: closing the subscribers is their
//                 end-of-run EOF;
//              3. the stats server: its renderer reads the engine, so it
//                 must not outlive it;
//              4. the ticker;
//            and writes the final metrics line (the fully drained state)
//            and the final checkpoint.
//   stop()   early shutdown: stops the router first (a stopped router
//            ends every source waiting for a connection or idling on a
//            silent one, so ingest never waits out --read-timeout-ms),
//            then the engine, which discards queued units, then the rest
//            in drain()'s order. No final metrics line and no final
//            checkpoint. The destructor calls it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "net/tcp.h"
#include "report/concurrent_store.h"
#include "serve/serving.h"
#include "stream/socket_source.h"
#include "stream/stream_router.h"
#include "workload/ccd.h"
#include "workload/generator.h"

namespace tiresias::serve {

/// One `serve` run. Each field is one `serve` flag (or the tree the
/// hierarchy flags select).
struct ServerConfig {
  /// --workers, --ingest-threads, --budget, --queue, --total-queue,
  /// --max-resident, --hibernate-dir.
  engine::EngineConfig engine;
  double theta = 8.0;         // --theta
  std::size_t window = 32;    // --window

  // Generated streams (no listenPort).
  std::size_t streams = 4;    // --streams, cycling the three presets
  TimeUnit units = 96;        // --units per stream
  std::uint64_t seed = 1;     // --seed; stream i uses seed + i
  workload::Scale scale = workload::Scale::kTest;  // --scale

  // Socket-fed streams.
  std::optional<std::uint16_t> listenPort;  // --listen (0 = ephemeral)
  /// The tree every socket stream resolves against (--dataset, --scale,
  /// --hierarchy, --root-name). Required with listenPort.
  std::shared_ptr<const workload::WorkloadSpec> spec;
  SocketSourceOptions::Format format =
      SocketSourceOptions::Format::kAuto;    // --ingest-format
  std::size_t netStreams = 1;                // --net-streams (anonymous)
  std::vector<std::string> streamNames;      // --stream-names
  int readTimeoutMs = 30'000;                // --read-timeout-ms
  std::size_t errorBudget = 16;              // --error-budget
  std::size_t junkBudget = 0;                // --junk-budget
  std::size_t shedWatermark = 0;             // --shed-watermark

  std::optional<std::uint16_t> anomalyPort;  // --anomaly-port
  std::optional<std::uint16_t> statsPort;    // --stats-port
  bool loopback = false;                     // --loopback

  std::string checkpointDir;                 // --checkpoint-dir
  std::size_t checkpointEvery = 0;           // --checkpoint-every
  bool restore = false;                      // --restore
  std::string metricsOut;                    // --metrics-out
  std::size_t metricsEveryMs = 1000;         // --metrics-every
};

/// The detector setup of every served stream: EWMA(0.5) forecasts, the
/// configured threshold and window, the spec's timeunit.
PipelineConfig streamPipelineConfig(const ServerConfig& config,
                                    const workload::WorkloadSpec& spec);

/// Counters of the socket-fed streams and the serving ports.
struct NetTotals {
  std::size_t protocolErrors = 0;
  std::size_t unresolvedPaths = 0;
  std::size_t reconnects = 0;
  std::size_t resumes = 0;
  std::size_t shed = 0;      // connections refused by the shed watermark
  std::size_t rejected = 0;  // connections the router could not route
  std::size_t anomalySubscribers = 0;
  std::size_t statsPolls = 0;
};

class Server {
 public:
  /// `out` receives the "restored" and "serving:" lines, `err` warnings
  /// (a failed periodic or final checkpoint). Both must outlive the
  /// Server.
  Server(ServerConfig config, std::ostream& out, std::ostream& err);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// See the lifecycle above. Call once; on false, error() says why and
  /// the Server can only be destroyed.
  bool start();
  /// Why start() failed.
  const std::string& error() const { return error_; }

  /// Block until the run ends; returns the final engine stats. Only after
  /// a successful start().
  engine::EngineStats drain();
  /// Early shutdown. Idempotent, safe after drain() and from another
  /// thread while drain() blocks; drain() then returns without the final
  /// metrics line and checkpoint. An engine drain cannot be interrupted,
  /// so stop() ends socket streams at once but waits for generated
  /// streams already draining to run out.
  void stop();

  /// Stats, stream names and, after drain()/stop(), stream summaries.
  const engine::DetectionEngine& engine() const { return engine_; }
  /// Every anomaly reported so far, per stream.
  const report::ConcurrentAnomalyStore& store() const { return store_; }
  /// The configuration this server runs.
  const ServerConfig& config() const { return config_; }
  /// Where checkpoints go ("" without a checkpoint dir).
  const std::string& checkpointPath() const { return checkpointPath_; }

  /// The bound ingest port, after a successful start() with a listen
  /// port (0 otherwise).
  std::uint16_t ingestPort() const;

  /// Net counters. Call after drain()/stop(): the protocol-error and
  /// unresolved-path counts belong to the ingest threads while they run.
  NetTotals netTotals() const;

 private:
  bool registerStreams();
  void addSocketStream(const std::string& name, SocketSourceOptions options,
                       std::size_t slot);
  /// The periodic metrics line and checkpoint, until tickerStop_.
  void tickLoop();
  void stopTicker();
  /// Writes a checkpoint with the store in its user section.
  void checkpoint();

  ServerConfig config_;
  std::ostream& out_;
  std::ostream& err_;
  std::string error_;
  std::string checkpointPath_;

  // Declared before the engine, so they outlive it: GeneratorSource
  // borrows its spec, and the sink reads the store, the broadcaster and
  // the hierarchy index from worker threads.
  std::vector<std::shared_ptr<const workload::WorkloadSpec>> specs_;
  report::ConcurrentAnomalyStore store_;
  JsonLineBroadcaster broadcaster_;
  /// Stream name -> its tree, for the anomaly lines' paths. Filled before
  /// start, read-only after.
  std::unordered_map<std::string, const Hierarchy*> streamTree_;
  StatsPollServer statsServer_;
  std::shared_ptr<net::TcpListener> ingestListener_;
  std::shared_ptr<StreamRouter> router_;
  engine::DetectionEngine engine_;
  /// Borrowed views of the engine-owned socket sources.
  std::vector<const SocketSource*> netSources_;

  /// Serializes drain()'s teardown against stop(); stopped_ is set by
  /// whichever runs it.
  std::mutex lifecycleMu_;
  bool stopped_ = false;

  std::ofstream metricsFile_;
  std::thread ticker_;
  std::mutex tickerMu_;
  std::condition_variable tickerCv_;
  bool tickerStop_ = false;
};

}  // namespace tiresias::serve
