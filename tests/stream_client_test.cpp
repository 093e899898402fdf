// StreamClient, the one TSRS client: its backoff stays in [base/2, base]
// and caps at 10 s, a fatal reply or an unreadable trace costs exactly one
// attempt, transient failures are retried with the trace reopened each
// time, and a resumed attempt skips exactly the prefix the server has
// committed. No test sleeps through a real backoff: the delay is checked
// as a pure function, and the one retrying test uses a 1 ms first delay.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hierarchy/builder.h"
#include "persist/snapshot.h"
#include "stream/stream_client.h"
#include "stream/stream_router.h"
#include "socket_test_util.h"

namespace tiresias {
namespace {

TEST(StreamClient, BackoffStaysWithinHalfToFullBaseAndCapsAtTenSeconds) {
  std::mt19937_64 rng(7);
  for (const long long first : {1LL, 20LL, 200LL, 10'000LL}) {
    for (long long attempt = 1; attempt <= 40; ++attempt) {
      const long long base = std::min(first << std::min(attempt - 1, 10LL),
                                      StreamClient::kMaxBackoffMs);
      for (int draw = 0; draw < 20; ++draw) {
        const long long d = StreamClient::backoffDelayMs(first, attempt, rng);
        EXPECT_GE(d, base / 2) << first << " attempt " << attempt;
        EXPECT_LE(d, base) << first << " attempt " << attempt;
      }
    }
  }
  // Far past the doubling, from an out-of-range first delay: capped, and
  // the doubling never overflows.
  for (const long long attempt : {64LL, 1'000'000LL, 1LL << 62}) {
    const long long d = StreamClient::backoffDelayMs(1LL << 60, attempt, rng);
    EXPECT_GE(d, StreamClient::kMaxBackoffMs / 2);
    EXPECT_LE(d, StreamClient::kMaxBackoffMs);
  }
}

/// A trace whose second read fails, as a corrupt binary trace does.
class BrokenSource final : public RecordSource {
 public:
  explicit BrokenSource(NodeId node) : node_(node) {}
  std::size_t nextBatch(std::vector<Record>& out, std::size_t) override {
    out.clear();
    if (reads_++ > 0) throw persist::SnapshotError("corrupt block");
    out.push_back(Record{node_, 100});
    return 1;
  }

 private:
  NodeId node_;
  int reads_ = 0;
};

TEST(StreamClient, FatalOutcomesCostExactlyOneAttempt) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  auto listener = loopbackListener();
  const std::uint16_t port = listener->port();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  const std::size_t named = router->addNamedSlot("s0");
  const std::size_t anonymous = router->addAnonymousSlot();
  router->start();
  // A retry would first sleep at least 5 s.
  StreamClientOptions patient = clientOptions(port);
  patient.retries = 5;
  patient.backoffMs = 10'000;

  // s0 ends with an empty send; the anonymous stream is cut short by a
  // trace that fails after one record.
  std::thread client([&] {
    StreamClient conn(h, clientOptions(port, "s0"));
    EXPECT_EQ(conn.send(replayRecords({})), SendStatus::kOk);
    StreamClient broken(h, patient);
    int opens = 0;
    const auto trace = [&] {
      ++opens;
      return std::make_unique<BrokenSource>(h.leaves()[0]);
    };
    EXPECT_EQ(broken.send(trace), SendStatus::kBadTrace);
    EXPECT_EQ(broken.error(), "corrupt block");
    EXPECT_EQ(opens, 1);
  });
  SocketSourceOptions opt;
  opt.streamName = "s0";
  SocketSource s0(router, named, h, opt);
  EXPECT_TRUE(drainPerRecord(s0).empty());
  SocketSource anon(router, anonymous, h);
  EXPECT_EQ(drainPerRecord(anon), (std::vector<Record>{{h.leaves()[0], 100}}));
  client.join();

  // Each send comes back after one attempt, one trace open and no retry
  // line.
  const struct {
    std::string name;
    RecordSourceFactory trace;
    SendStatus want;
    std::string error;
  } cases[] = {
      {"ghost", replayRecords({}), SendStatus::kUnknownStream,
       "server does not serve a stream named 'ghost'"},
      {"s0", replayRecords({}), SendStatus::kStreamEnded,
       "stream 's0' has already ended on the server"},
      {"", replayRecords({}), SendStatus::kStreamEnded,
       "every anonymous stream on the server has ended or is taken"},
      {"", [] { return std::unique_ptr<RecordSource>(); },
       SendStatus::kBadTrace, ""},
  };
  for (const auto& c : cases) {
    StreamClientOptions copt = patient;
    copt.streamName = c.name;
    StreamClient conn(h, copt);
    int opens = 0;
    std::vector<std::string> notes;
    const SendStatus got = conn.send(
        [&] {
          ++opens;
          return c.trace();
        },
        [&](const std::string& line) { notes.push_back(line); });
    EXPECT_EQ(got, c.want) << c.name;
    EXPECT_EQ(conn.error(), c.error) << c.name;
    EXPECT_EQ(opens, 1) << c.name;  // one attempt: the trace opens before each
    EXPECT_TRUE(notes.empty()) << c.name;
  }
  // A trace that cannot be opened costs the server no connection.
  EXPECT_EQ(router->accepted(), 5u);
  router->stop();
}

TEST(StreamClient, FatalReplyOutlivesTheResetOfALongHandshake) {
  // A ~10 MB path table: the router answers after the name and closes
  // with the table unread, so the client's handshake write is reset.
  std::vector<std::string> paths;
  for (int i = 0; i < 20'000; ++i) {
    paths.push_back("top/" + std::string(500, 'x') + std::to_string(i));
  }
  const Hierarchy h = HierarchyBuilder::fromPaths(paths);
  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  router->addNamedSlot("s0");
  router->start();
  StreamClient conn(h, clientOptions(listener->port(), "ghost"));
  EXPECT_EQ(conn.open(), SendStatus::kUnknownStream) << conn.error();
  router->stop();
}

TEST(StreamClient, TransientFailuresRetryWithTheTraceReopened) {
  // A listener closed again at once: every connect to its port is refused.
  const std::uint16_t port = loopbackListener()->port();
  const auto h = HierarchyBuilder::balanced({2});
  StreamClientOptions opt = clientOptions(port);
  opt.retries = 3;
  opt.backoffMs = 1;
  StreamClient conn(h, opt);
  int opens = 0;
  std::vector<std::string> notes;
  const SendStatus got = conn.send(
      [&] {
        ++opens;
        return replayRecords({})();
      },
      [&](const std::string& line) { notes.push_back(line); });
  const std::string refused =
      "cannot connect to 127.0.0.1:" + std::to_string(port);
  EXPECT_EQ(got, SendStatus::kTransient);
  EXPECT_EQ(conn.error(), refused);
  EXPECT_EQ(opens, 4);  // four attempts, the trace reopened before each
  EXPECT_EQ(notes, (std::vector<std::string>{refused + "; retrying (1/3)",
                                             refused + "; retrying (2/3)",
                                             refused + "; retrying (3/3)"}));
}

TEST(StreamClient, ResumedAttemptSkipsExactlyTheCommittedPrefix) {
  const auto h = HierarchyBuilder::balanced({3, 2});
  // Three timeunits of 10 s: [100,110) [110,120) [120,130).
  const auto want = sampleRecords(h, 30);
  auto listener = loopbackListener();
  auto router = std::make_shared<StreamRouter>(listener, StreamRouter::Options{});
  const std::size_t slot = router->addNamedSlot("s0");
  router->start();

  std::thread client([&, port = listener->port()] {
    StreamClientOptions opt = clientOptions(port, "s0");
    opt.frameRecords = 7;  // a frame boundary inside the committed prefix
    {
      StreamClient first(h, opt);
      ASSERT_EQ(first.open(), SendStatus::kOk) << first.error();
      VectorSource trace(want);
      ASSERT_EQ(first.push(trace), SendStatus::kOk);
      EXPECT_EQ(first.sent(), 30u);
    }  // dropped without finish(): the server keeps units 100 and 110
    StreamClient second(h, opt);
    EXPECT_EQ(second.send(replayRecords(want)), SendStatus::kOk);
    EXPECT_EQ(second.reply().committedTime, 120);
    EXPECT_EQ(second.resumeSkipped(), 20u);
    EXPECT_EQ(second.sent(), 10u);
  });
  SocketSourceOptions opt;
  opt.streamName = "s0";
  opt.unitDelta = 10;
  SocketSource src(router, slot, h, opt);
  EXPECT_EQ(drainPerRecord(src), want);  // every record exactly once
  EXPECT_EQ(src.resumes(), 1u);
  client.join();
  router->stop();
}

}  // namespace
}  // namespace tiresias
