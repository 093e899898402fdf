// socket_live: the `serve --listen` ingest path, wired in-process.
//
// A StreamRouter on a loopback listener feeds two named (resumable, v2
// handshake) SocketSources registered with a one-worker engine, configured
// like `serve` (CCD network at medium scale, EWMA(0.5), ℓ=64, θ=8). One
// generator thread plays both clients over two TCP connections, one frame
// per timeunit:
//
//   phase A  open loop: a time-compressed replay. Unit u of every stream
//            is due at t0 + u·P whatever the server does, with the unit
//            period P chosen so the input's mean record rate equals the
//            offered rate (as a live deployment sees it, all streams close
//            their units together). A unit's latency runs from the time the
//            frame of unit u+1 (the one that closes u) was due to the
//            ResultSink call for u, so a stall counts against every frame
//            it delays. Named streams stage each unit until the next one
//            opens, so this includes one unit period.
//   phase B  closed loop: the remaining frames as fast as TCP takes them;
//            records_per_s is phase B's records over the time from its
//            first send to drain().
//
// The generator only measures; its own CPU time is subtracted from the
// process's. A phase A whose generator ran late (p99 > 5 ms) or whose
// latency grew over the phase (a growing backlog) is reported invalid.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/timer.h"
#include "net/tcp.h"
#include "stream/socket_source.h"
#include "stream/stream_router.h"
#include "timeseries/ewma.h"
#include "workload/ccd.h"

namespace tiresias::bench {

namespace {

constexpr std::size_t kStreams = 2;
constexpr std::size_t kWindow = 64;
/// Units before this carry the warm-up burst (the first window is
/// buffered, then stepped at once), so they are not latency samples.
constexpr TimeUnit kFirstSampledUnit = 2 * kWindow;
constexpr double kMaxGenLateMs = 5.0;

struct Plan {
  TimeUnit unitsA;     // open-loop units per stream
  TimeUnit unitsB;     // closed-loop units per stream
  double offeredRate;  // phase A mean records/s, both streams together
};

Plan socketPlan(const Options& opts) {
  if (opts.smoke) return {300, 300, 1.5e6};
  return {640, 1200, 1.5e6};
}

/// CCD network at medium scale, at eight times the preset's call volume,
/// so a unit holds ~1200 records and the open loop's unit period is long
/// enough (~1.6 ms) that scheduler jitter does not dominate latency.
std::shared_ptr<const workload::WorkloadSpec> liveSpec() {
  workload::WorkloadSpec spec =
      workload::ccdNetworkWorkload(workload::Scale::kMedium);
  spec.baseRatePerUnit *= 8;
  return std::make_shared<const workload::WorkloadSpec>(std::move(spec));
}

PipelineConfig serveConfig(const workload::WorkloadSpec& spec) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8;
  cfg.detector.windowLength = kWindow;
  cfg.detector.forecasterFactory = std::make_shared<EwmaFactory>(0.5);
  return cfg;
}

/// The clients' inputs: per stream a generator plus an incident plan, and
/// the handshake path table (file-id == NodeId).
struct SocketInputs {
  std::shared_ptr<const workload::WorkloadSpec> spec = liveSpec();
  Plan plan;
  /// Phase-A unit period P, from the prepared record count.
  std::int64_t unitPeriodNs = 1'000'000;
  std::vector<std::string> names{"live0", "live1"};
  std::vector<std::shared_ptr<const workload::AnomalyInjector>> injectors;
  std::vector<std::string> paths;

  explicit SocketInputs(const Options& opts) : plan(socketPlan(opts)) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      injectors.push_back(makeInjector(
          spec->hierarchy, streamSeed(opts.seed, 1000 + s), kWindow, units(),
          static_cast<std::size_t>(units()) / 64, 0.25 * spec->baseRatePerUnit));
    }
    for (NodeId n = 0; n < spec->hierarchy.size(); ++n) {
      paths.push_back(spec->hierarchy.path(n));
    }
  }

  TimeUnit units() const { return plan.unitsA + plan.unitsB; }

  std::unique_ptr<RecordSource> open(const Options& opts,
                                     std::size_t s) const {
    return std::make_unique<workload::GeneratorSource>(
        *spec, 0, units(), streamSeed(opts.seed, s), injectors[s]);
  }
};

/// Both clients, driven from one thread. In open loop each frame's due
/// time closes the units before it in `latency`.
class Generator {
 public:
  Generator(const SocketInputs& in, const Options& opts, bool openLoop,
            std::uint16_t port, UnitLatency& latency)
      : in_(in),
        opts_(opts),
        openLoop_(openLoop),
        port_(port),
        latency_(latency) {}

  void run() {
    const double cpu0 = threadCpuSeconds();
    try {
      connect();
      if (error.empty()) send();
    } catch (const std::exception& e) {
      error = e.what();
    }
    cpuSeconds = threadCpuSeconds() - cpu0;
  }

  std::string error;
  std::int64_t phaseBStartNs = 0;
  std::uint64_t recordsA = 0;
  std::uint64_t recordsB = 0;
  std::uint64_t bytes = 0;
  double sendBlockedMs = 0;  // phase A time inside writeAll
  std::vector<double> lateMs;
  double cpuSeconds = 0;

 private:
  struct Client {
    net::TcpConn conn;
    std::unique_ptr<RecordSource> source;
    std::unique_ptr<TimeUnitBatcher> batcher;
    TimeUnitBatch batch;
    bool more = false;
  };

  void connect() {
    for (std::size_t s = 0; s < kStreams; ++s) {
      Client& c = clients_[s];
      c.conn = net::connectLoopback(port_, 5'000);
      // A client streaming small frames on a schedule turns Nagle off;
      // otherwise frames would wait on the server's delayed ACKs and the
      // client's TCP buffering would be billed as server latency.
      const int one = 1;
      if (c.conn.valid()) {
        ::setsockopt(c.conn.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      const auto hello = encodeSocketHandshakeV2(in_.paths, in_.names[s], 0);
      SocketResumeReply reply;
      if (!c.conn.valid() || !c.conn.writeAll(hello.data(), hello.size()) ||
          !readSocketResumeReply(c.conn, 10'000, reply) ||
          reply.status != kSocketResumeOk) {
        error = "client " + in_.names[s] + " could not open its stream";
        return;
      }
      bytes += hello.size() + 12;
      c.source = in_.open(opts_, s);
      c.batcher = std::make_unique<TimeUnitBatcher>(*c.source,
                                                    in_.spec->unit, 0);
      c.more = c.batcher->next(c.batch);
    }
  }

  /// Sends the client's current unit (nothing for an empty unit: a
  /// zero-count frame would end the stream) and batches the next one.
  void sendUnit(Client& c) {
    const std::size_t n = c.batch.records.size();
    if (n > 0) {
      frame_.clear();
      appendSocketFrame(frame_, c.batch.records.data(), n);
      const std::int64_t w0 = monotonicNanos();
      if (!c.conn.writeAll(frame_.data(), frame_.size())) {
        throw std::runtime_error("send failed");
      }
      writeNs_ += monotonicNanos() - w0;
      bytes += frame_.size();
    }
    (c.batch.unit < in_.plan.unitsA && openLoop_ ? recordsA : recordsB) += n;
    c.more = c.batcher->next(c.batch);
  }

  void send() {
    if (openLoop_) {
      const std::int64_t t0 = monotonicNanos() + 2'000'000;
      for (TimeUnit u = 0; u < in_.plan.unitsA; ++u) {
        const std::int64_t due = t0 + u * in_.unitPeriodNs;
        const std::int64_t wait = due - monotonicNanos();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        const std::int64_t start = monotonicNanos();
        lateMs.push_back(static_cast<double>(start - due) * 1e-6);
        for (std::size_t s = 0; s < kStreams; ++s) {
          latency_.closeBefore(s, u, due);
          if (clients_[s].more) sendUnit(clients_[s]);
        }
      }
      sendBlockedMs = static_cast<double>(writeNs_) * 1e-6;
    }
    phaseBStartNs = monotonicNanos();
    for (bool any = true; any;) {
      any = false;
      for (Client& c : clients_) {
        if (!c.more) continue;
        sendUnit(c);
        any = true;
      }
    }
    for (Client& c : clients_) {
      frame_.clear();
      appendSocketEndOfStream(frame_);
      if (!c.conn.writeAll(frame_.data(), frame_.size())) {
        throw std::runtime_error("end-of-stream send failed");
      }
      bytes += frame_.size();
    }
  }

  const SocketInputs& in_;
  const Options& opts_;
  bool openLoop_;
  std::uint16_t port_;
  UnitLatency& latency_;
  Client clients_[kStreams];
  std::vector<std::uint8_t> frame_;
  std::int64_t writeNs_ = 0;  // time inside writeAll
};

/// One serving session: set up, phase A (when open loop), phase B, drain.
/// With `timingLayers` each SocketSource is wrapped in a TimingSource and
/// the fetch/batch layer numbers are written there.
Round socketRound(const SocketInputs& in, const Options& opts, bool openLoop,
                  Layers* timingLayers) {
  Round round;
  const double t0 = nowSeconds();
  // Set-up: hierarchy build, listener and router, stream registration,
  // pool and router start.
  auto spec = std::make_shared<const workload::WorkloadSpec>(
      workload::ccdNetworkWorkload(workload::Scale::kMedium));
  const auto hierarchy = workload::sharedHierarchy(spec);
  net::ignoreSigpipe();
  auto listener = std::make_shared<net::TcpListener>();
  if (!listener->listen(0, /*loopbackOnly=*/true)) {
    throw std::runtime_error("cannot listen: " + listener->lastError());
  }
  auto router =
      std::make_shared<StreamRouter>(listener, StreamRouter::Options{});

  // Phase-A units only: the frame of unit u+1 closes u, and phase B's
  // frames carry no schedule.
  UnitLatency latency(kStreams, in.units(), kFirstSampledUnit,
                      in.plan.unitsA - 1);
  DigestSet outputs(in.names);
  report::ConcurrentAnomalyStore store;
  for (const std::string& name : in.names) {
    store.registerStream(name, spec->hierarchy);
  }
  engine::DetectionEngine eng(engineConfig(1, 0),
                              makeSink(outputs, store, opts.corrupt, latency));
  std::vector<const SocketSource*> sockets;
  std::vector<const TimingSource*> timers;
  for (std::size_t s = 0; s < kStreams; ++s) {
    SocketSourceOptions sopt;
    sopt.streamName = in.names[s];
    sopt.unitDelta = spec->unit;
    sopt.readTimeoutMs = 5'000;  // bounds a failed client, not the run
    auto socket = std::make_unique<SocketSource>(
        router, router->addNamedSlot(in.names[s]), spec->hierarchy, sopt);
    sockets.push_back(socket.get());
    std::unique_ptr<RecordSource> source = std::move(socket);
    if (timingLayers != nullptr) {
      auto timed = std::make_unique<TimingSource>(std::move(source));
      timers.push_back(timed.get());
      source = std::move(timed);
    }
    eng.addStream(in.names[s], hierarchy, serveConfig(*spec),
                  std::move(source));
  }
  eng.start();
  router->start();
  const double t1 = nowSeconds();
  const double cpu1 = processCpuSeconds();

  Generator gen(in, opts, openLoop, listener->port(), latency);
  std::jthread client([&gen] { gen.run(); });
  round.stats = eng.drain();
  const std::int64_t endNs = monotonicNanos();
  const double cpu2 = processCpuSeconds();
  client.join();
  router->stop();
  if (!gen.error.empty()) throw std::runtime_error(gen.error);

  const auto& st = round.stats;
  const std::uint64_t offered = gen.recordsA + gen.recordsB;
  std::size_t protocolErrors = router->rejected();
  for (const SocketSource* s : sockets) protocolErrors += s->protocolErrors();
  round.setupSeconds = t1 - t0;
  round.recordsPerSecond = static_cast<double>(gen.recordsB) /
                           (static_cast<double>(endNs - gen.phaseBStartNs) * 1e-9);
  round.cpuNsPerRecord = (cpu2 - cpu1 - gen.cpuSeconds) * 1e9 /
                         static_cast<double>(std::max<std::uint64_t>(offered, 1));
  round.digest = outputs.value();
  round.offered = offered;
  round.failed = (offered > st.recordsProcessed ? offered - st.recordsProcessed
                                                : 0) +
                 st.junkRowsSkipped + st.unitsDiscarded + protocolErrors;

  const bool steady = latency.finish(round);
  round.net.bytesPerRecord =
      static_cast<double>(gen.bytes) /
      static_cast<double>(std::max<std::uint64_t>(offered, 1));
  round.net.sendBlockedMs = gen.sendBlockedMs;
  round.net.genLateP99Ms = quantile(std::move(gen.lateMs), 0.99);
  if (openLoop && (round.net.genLateP99Ms > kMaxGenLateMs || !steady)) {
    std::fprintf(stderr,
                 "phase A INVALID: generator late p99 %.2f ms (limit %.0f), "
                 "latency %s over the phase\n",
                 round.net.genLateP99Ms, kMaxGenLateMs,
                 steady ? "steady" : "growing");
  }

  if (timingLayers != nullptr) {
    double fetchNs = 0;
    for (const TimingSource* t : timers) {
      fetchNs += static_cast<double>(t->fetchNs());
    }
    double batchNs = 0;
    if (const auto* flush = st.metrics.stage(obs::Stage::kBatchFlush)) {
      batchNs = flush->totalSeconds * 1e9;
    }
    const double records =
        static_cast<double>(std::max<std::size_t>(st.recordsProcessed, 1));
    timingLayers->fetchNsPerRecord = fetchNs / records;
    timingLayers->batchNsPerRecord = (batchNs - fetchNs) / records;
  }
  return round;
}

}  // namespace

std::string socketLiveShape(const Options& opts) {
  const Plan plan = socketPlan(opts);
  return std::to_string(kStreams) + "x" + std::to_string(plan.unitsA) + "+" +
         std::to_string(plan.unitsB);
}

void prepareSocketLive(const Options& opts) {
  const SocketInputs inputs(opts);
  DigestSet digests(inputs.names);
  Manifest manifest;
  std::vector<Record> chunk;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto source = inputs.open(opts, s);
    while (source->nextBatch(chunk, 4096) > 0) {
      digests.addRecords(s, chunk.data(), chunk.size());
      manifest.records += chunk.size();
    }
  }
  manifest.inputDigest = digests.value();
  writeManifest(opts.inputDir, manifest);
}

void runSocketLive(const Options& opts, Report& report) {
  SocketInputs inputs(opts);
  Manifest manifest;
  if (readManifest(opts.inputDir, manifest) && manifest.records > 0) {
    inputs.unitPeriodNs = static_cast<std::int64_t>(
        static_cast<double>(manifest.records) /
        static_cast<double>(inputs.units()) / inputs.plan.offeredRate * 1e9);
  }
  Workload w;
  w.p99LimitMs = 50;
  w.round = [&] { return socketRound(inputs, opts, /*openLoop=*/true, nullptr); };
  // The ingest layer seen from inside the engine: phase B's closed loop
  // again, with a timing source around each socket.
  w.traceExtra = [&](Layers& layers, std::uint64_t reference, Report& r) {
    const Round closed =
        socketRound(inputs, opts, /*openLoop=*/false, &layers);
    if (closed.digest != reference) {
      r.fail("the timed closed-loop session disagrees with the oracle");
    }
  };
  const auto hierarchy = workload::sharedHierarchy(inputs.spec);
  for (std::size_t s = 0; s < kStreams; ++s) {
    w.reference.push_back({inputs.names[s], hierarchy,
                           serveConfig(*inputs.spec),
                           [&inputs, &opts, s] { return inputs.open(opts, s); }});
  }
  runWorkload(opts, w, report);
}

}  // namespace tiresias::bench
