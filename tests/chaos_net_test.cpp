// The fault-tolerance contract, end to end and in process: a named
// client streaming into a serve::Server (the composition `tiresias_cli
// serve --listen` runs) under an armed fault plan (injected disconnects,
// short reads, EINTR) while the server checkpoints, is stopped mid-stream
// and destroyed (everything in memory lost — the in-process "kill -9"),
// rebuilt on the same port and restored, must end with anomaly reports
// and stream summaries *bit-identical* to a clean, fault-free run over
// the same records. The unit-granular commit protocol is what makes that
// true: no record is delivered twice, none is lost, no matter where the
// connections tear. The client is the StreamClient that `send` runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/faultinject.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "report/concurrent_store.h"
#include "serve/server.h"
#include "stream/source.h"
#include "stream/stream_client.h"
#include "workload/ccd.h"

namespace tiresias {
namespace {

using engine::DetectionEngine;
using serve::Server;
using serve::ServerConfig;
using workload::GeneratorSource;
using workload::Scale;
using workload::WorkloadSpec;

constexpr int kTestTimeoutMs = 10'000;
constexpr char kStream[] = "s0";

/// One server leg: the named stream kStream on `port` (0 = ephemeral),
/// checkpointing into `dir`.
ServerConfig serverConfig(std::shared_ptr<const WorkloadSpec> spec,
                          std::uint16_t port, const std::string& dir) {
  ServerConfig cfg;
  cfg.engine.workers = 2;
  cfg.engine.ingestThreads = 1;
  cfg.engine.runBudget = 4;
  cfg.engine.streamQueueCapacity = 8;
  cfg.engine.totalQueueCapacity = 64;
  cfg.theta = 8.0;
  cfg.window = 16;
  cfg.listenPort = port;
  cfg.loopback = true;
  cfg.spec = std::move(spec);
  cfg.streamNames = {kStream};
  cfg.netStreams = 0;
  cfg.readTimeoutMs = kTestTimeoutMs;
  cfg.errorBudget = 100'000;  // chaos burns many connections
  cfg.checkpointDir = dir;
  return cfg;
}

TEST(ChaosNet, KillRestoreReconnectIsBitIdenticalToFaultFreeRun) {
  const auto spec = std::make_shared<const WorkloadSpec>(
      workload::ccdNetworkWorkload(Scale::kTest));
  const TimeUnit kUnits = 120;
  std::vector<Record> records;
  {
    GeneratorSource gen(*spec, 0, kUnits, 17);
    while (auto r = gen.next()) records.push_back(*r);
  }
  ASSERT_GT(records.size(), 500u);
  const std::string dir = std::string(::testing::TempDir()) + "chaos_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  ServerConfig cfg1 = serverConfig(spec, 0, dir);
  cfg1.checkpointEvery = 5;

  // Fault-free reference: same records and detector setup, no network, no
  // interruptions.
  report::ConcurrentAnomalyStore refStore;
  RunSummary refSummary;
  {
    DetectionEngine eng(cfg1.engine, refStore.sink());
    refStore.registerStream(kStream, spec->hierarchy);
    eng.addStream(kStream, workload::sharedHierarchy(spec),
                  serve::streamPipelineConfig(cfg1, *spec),
                  std::make_unique<VectorSource>(records));
    eng.start();
    eng.drain();
    refSummary = eng.streamSummary(0);
  }
  ASSERT_GT(refSummary.recordsProcessed, 0u);

  // Chaos leg 1: faults armed, a checkpoint every few units.
  std::ostringstream out1, err1;
  ASSERT_TRUE(faultinject::arm("seed=5,disconnect=0.05,short-read=0.1,"
                               "eintr=0.1"));
  auto server1 = std::make_unique<Server>(cfg1, out1, err1);
  ASSERT_TRUE(server1->start()) << server1->error();
  // The port is fixed from here on, so the restarted server can rebind it
  // and the client never has to re-discover it.
  const std::uint16_t port = server1->ingestPort();

  // The client: phase 1 keeps opening the stream, pushing everything
  // uncommitted and dropping the client without finish() — a deliberate
  // mid-stream disconnect — until the restarted server is up; phase 2
  // sends the stream for real, retrying like `send --retries`.
  const StreamClientOptions copt{.port = port, .streamName = kStream,
                                 .token = 99, .timeoutMs = 5'000,
                                 .frameRecords = 32, .retries = 30,
                                 .backoffMs = 20};
  std::atomic<bool> restartReady{false};
  std::atomic<bool> delivered{false};
  std::thread client([&] {
    while (!restartReady.load(std::memory_order_acquire)) {
      StreamClient attempt(spec->hierarchy, copt);
      if (attempt.open() == SendStatus::kOk) {
        VectorSource trace(records);
        attempt.push(trace);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    StreamClient finisher(spec->hierarchy, copt);
    delivered.store(finisher.send(replayRecords(records)) == SendStatus::kOk,
                    std::memory_order_release);
  });

  // Let real progress reach a checkpoint (best effort — the equivalence
  // holds wherever the checkpoint falls), then lose everything in memory.
  const auto progressDeadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(60);
  while (server1->engine().stats().checkpoint.lastUnits < 20 &&
         std::chrono::steady_clock::now() < progressDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server1->stop();
  EXPECT_GE(server1->engine().stats().checkpoint.lastUnits, 20u);
  server1.reset();
  faultinject::disarm();  // the restored leg runs clean

  // Restart: rebind the same port, restore, let the client reconnect and
  // finish. SO_REUSEADDR makes the rebind race-free against TIME_WAIT,
  // but give the kernel a few tries anyway.
  ServerConfig cfg2 = serverConfig(spec, port, dir);
  cfg2.restore = true;
  std::ostringstream out2, err2;
  std::unique_ptr<Server> server;
  for (int i = 0; i < 50; ++i) {
    server = std::make_unique<Server>(cfg2, out2, err2);
    if (server->start()) break;
    ASSERT_NE(server->error().find("cannot listen"), std::string::npos)
        << server->error();
    server.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_NE(server, nullptr) << "could not rebind port " << port;
  EXPECT_NE(out2.str().find("restored 1 streams"), std::string::npos)
      << out2.str();
  restartReady.store(true, std::memory_order_release);
  const auto stats = server->drain();
  client.join();
  EXPECT_TRUE(delivered.load());
  EXPECT_EQ(stats.checkpoint.restores, 1u);

  // Bit-identical to the uninterrupted run: summary and every report.
  const RunSummary got = server->engine().streamSummary(0);
  EXPECT_EQ(got.unitsProcessed, refSummary.unitsProcessed);
  EXPECT_EQ(got.recordsProcessed, refSummary.recordsProcessed);
  EXPECT_EQ(got.instancesDetected, refSummary.instancesDetected);
  EXPECT_EQ(got.anomaliesReported, refSummary.anomaliesReported);
  EXPECT_EQ(got.warmupUnitsBuffered, refSummary.warmupUnitsBuffered);
  const auto gotReports = server->store().snapshot(kStream);
  const auto wantReports = refStore.snapshot(kStream);
  ASSERT_EQ(gotReports.size(), wantReports.size());
  for (std::size_t k = 0; k < gotReports.size(); ++k) {
    EXPECT_EQ(gotReports[k].anomaly, wantReports[k].anomaly);
    EXPECT_EQ(gotReports[k].path, wantReports[k].path);
  }
  server.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tiresias
