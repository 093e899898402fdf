// serve::Server in process: start() reports a port it cannot bind as an
// error (and the half-built server still tears down), stop() ends a
// listen-mode run promptly even with clients connected and silent, and
// a client reconnecting to a named stream that has ended is turned away
// at once instead of waiting out its timeout.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.h"
#include "serve/server.h"
#include "stream/socket_source.h"
#include "tools/cli.h"
#include "workload/ccd.h"

namespace tiresias::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTestTimeoutMs = 10'000;

std::shared_ptr<const workload::WorkloadSpec> testSpec() {
  return std::make_shared<const workload::WorkloadSpec>(
      workload::ccdNetworkWorkload(workload::Scale::kTest));
}

/// A loopback listen-mode server on an ephemeral port.
ServerConfig listenConfig(std::vector<std::string> names,
                          std::size_t anonymous) {
  ServerConfig cfg;
  cfg.engine.workers = 1;
  cfg.window = 16;
  cfg.listenPort = 0;
  cfg.loopback = true;
  cfg.spec = testSpec();
  cfg.streamNames = std::move(names);
  cfg.netStreams = anonymous;
  return cfg;
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

TEST(Server, StartOnABoundPortFailsAndDestructsCleanly) {
  net::TcpListener taken;
  ASSERT_TRUE(taken.listen(0, /*loopbackOnly=*/true)) << taken.lastError();
  std::ostringstream out, err;
  {
    ServerConfig cfg = listenConfig({}, 1);
    cfg.listenPort = taken.port();
    Server server(cfg, out, err);
    EXPECT_FALSE(server.start());
    EXPECT_EQ(server.error().rfind("cannot listen on port", 0), 0u)
        << server.error();
  }
  {
    // A later port: the streams are registered by then, the engine is not
    // started, and the destructor still has everything to unwind.
    ServerConfig cfg = listenConfig({"s0"}, 1);
    cfg.anomalyPort = taken.port();
    Server server(cfg, out, err);
    EXPECT_FALSE(server.start());
    EXPECT_EQ(server.error().rfind("cannot listen on --anomaly-port", 0), 0u)
        << server.error();
  }
  EXPECT_EQ(out.str(), "");  // no "serving:" line for a failed start
}

TEST(Server, StopWithIdleClientsReturnsPromptly) {
  // The read timeout is far longer than the bound below: only a stop that
  // does not wait out the clients' silence passes.
  ServerConfig cfg = listenConfig({"s0"}, 1);
  cfg.readTimeoutMs = 60'000;
  std::ostringstream out, err;
  Server server(cfg, out, err);
  ASSERT_TRUE(server.start()) << server.error();

  // A named client that completed its handshake, and an anonymous one
  // that connected and never sent a byte. Both stay silent.
  std::vector<std::string> paths;
  for (std::size_t n = 0; n < cfg.spec->hierarchy.size(); ++n) {
    paths.push_back(cfg.spec->hierarchy.path(static_cast<NodeId>(n)));
  }
  net::TcpConn named = net::connectLoopback(server.ingestPort(),
                                            kTestTimeoutMs);
  ASSERT_TRUE(named.valid());
  const auto hs = encodeSocketHandshakeV2(paths, "s0", 1);
  ASSERT_TRUE(named.writeAll(hs.data(), hs.size(), kTestTimeoutMs));
  SocketResumeReply reply;
  ASSERT_TRUE(readSocketResumeReply(named, kTestTimeoutMs, reply));
  EXPECT_EQ(reply.status, kSocketResumeOk);
  net::TcpConn quiet = net::connectLoopback(server.ingestPort(),
                                            kTestTimeoutMs);
  ASSERT_TRUE(quiet.valid());

  auto drained = std::async(std::launch::async, [&] { return server.drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto t0 = Clock::now();
  server.stop();
  EXPECT_LT(secondsSince(t0), 5.0);
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(drained.get().unitsProcessed, 0u);
}

TEST(Server, SendToAnEndedNamedStreamFailsAtOnce) {
  std::ostringstream out, err;
  Server server(listenConfig({"s0", "s1"}, 0), out, err);
  ASSERT_TRUE(server.start()) << server.error();
  const std::string empty = ::testing::TempDir() + "server_test_empty_" +
                            std::to_string(::getpid()) + ".csv";
  std::ofstream(empty).close();
  const auto send = [&](const std::string& name, std::string* errText) {
    std::ostringstream sendOut, sendErr;
    const int rc = tools::runCli(
        {"send", "--to", "127.0.0.1:" + std::to_string(server.ingestPort()),
         "--trace", empty, "--dataset", "ccd-net", "--scale", "test",
         "--stream-name", name, "--retries", "3"},
        sendOut, sendErr);
    if (errText) *errText = sendErr.str();
    return rc;
  };

  // An empty trace ends s0 cleanly.
  ASSERT_EQ(send("s0", nullptr), 0);
  // Reconnecting to it is fatal, reported, and not retried: it comes back
  // well inside --timeout-ms (30 s by default) and before any backoff.
  std::string sendErr;
  const auto t0 = Clock::now();
  EXPECT_EQ(send("s0", &sendErr), 1);
  EXPECT_LT(secondsSince(t0), 5.0);
  EXPECT_NE(sendErr.find("'s0' has already ended"), std::string::npos)
      << sendErr;
  EXPECT_EQ(sendErr.find("retrying"), std::string::npos) << sendErr;

  // Ending s1 as well ends the run.
  ASSERT_EQ(send("s1", nullptr), 0);
  const engine::EngineStats stats = server.drain();
  EXPECT_EQ(stats.unitsProcessed, 0u);
  EXPECT_GE(server.netTotals().rejected, 1u);
  EXPECT_EQ(server.netTotals().protocolErrors, 0u);
  std::remove(empty.c_str());
}

}  // namespace
}  // namespace tiresias::serve
