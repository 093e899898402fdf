// Tests for the tiresias_cli front end and its option table, driven
// in-process through runCli.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/faultinject.h"
#include "net/tcp.h"
#include "serve/server.h"
#include "tools/cli.h"
#include "workload/ccd.h"

// ASan and TSan reserve terabytes of shadow address space, so a process
// under them cannot run with a small RLIMIT_AS at all.
#include "cpu_timing.h"  // TIRESIAS_SANITIZED

namespace tiresias::tools {
namespace {

int run(const std::vector<std::string>& argv, std::string* outText = nullptr,
        std::string* errText = nullptr) {
  std::ostringstream out, err;
  const int rc = runCli(argv, out, err);
  if (outText) *outText = out.str();
  if (errText) *errText = err.str();
  return rc;
}

TEST(CliArgs, ParsesCommandOptionsPositionals) {
  const auto args = parseArgs(
      {"generate", "--dataset", "scd", "--flag", "--seed", "9", "extra"});
  EXPECT_EQ(args.command, "generate");
  EXPECT_EQ(args.get("dataset", ""), "scd");
  EXPECT_EQ(args.get("seed", ""), "9");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "extra");
}

TEST(CliArgs, RepeatedOptionKeepsAll) {
  const auto args = parseArgs({"generate", "--spike", "a:1:2:3", "--spike",
                               "b:4:5:6"});
  int spikes = 0;
  for (const auto& [k, v] : args.options) {
    (void)v;
    if (k == "spike") ++spikes;
  }
  EXPECT_EQ(spikes, 2);
}

TEST(Cli, NoCommandPrintsUsage) {
  std::string out;
  EXPECT_EQ(run({}, &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"help"}, &out), 0);
}

TEST(Cli, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, HierarchySummary) {
  std::string out;
  EXPECT_EQ(run({"hierarchy", "--dataset", "scd", "--scale", "test"}, &out),
            0);
  EXPECT_NE(out.find("height=4"), std::string::npos);
  EXPECT_NE(out.find("depth 1: 1 nodes"), std::string::npos);
}

TEST(Cli, RejectsBadDatasetAndScale) {
  std::string err;
  EXPECT_EQ(run({"hierarchy", "--dataset", "nope"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown --dataset"), std::string::npos);
  EXPECT_EQ(run({"hierarchy", "--dataset", "scd", "--scale", "giant"},
                nullptr, &err),
            2);
}

TEST(Cli, GenerateDetectRoundTrip) {
  const std::string trace = ::testing::TempDir() + "/cli_trace.csv";
  const std::string report = ::testing::TempDir() + "/cli_anoms.csv";
  std::string out;
  // 3 days of test-scale CCD network traffic with one injected IO burst
  // on day 3 (unit 240), after the 96-unit detection window fills.
  ASSERT_EQ(run({"generate", "--dataset", "ccd-net", "--scale", "test",
                 "--days", "3", "--seed", "5", "--out", trace, "--spike",
                 "VHO1/IO0:240:3:80"},
                &out),
            0);
  EXPECT_NE(out.find("1 injected spikes"), std::string::npos);

  ASSERT_EQ(run({"detect", "--dataset", "ccd-net", "--scale", "test",
                 "--trace", trace, "--theta", "8", "--window", "96", "--rt",
                 "2.0", "--dt", "6", "--out", report},
                &out),
            0);
  EXPECT_NE(out.find("processed 288 timeunits"), std::string::npos);
  EXPECT_NE(out.find("VHO1/IO0"), std::string::npos);  // burst localized
  std::ifstream reportIn(report);
  EXPECT_TRUE(reportIn.good());
  std::remove(trace.c_str());
  std::remove(report.c_str());
}

TEST(Cli, DetectRequiresTrace) {
  std::string err;
  EXPECT_EQ(run({"detect", "--dataset", "scd"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--trace is required"), std::string::npos);
}

TEST(Cli, ConvertDetectRoundTrip) {
  const std::string trace = ::testing::TempDir() + "/cli_convert.csv";
  const std::string binary = ::testing::TempDir() + "/cli_convert.tsrb";
  std::string out;
  ASSERT_EQ(run({"generate", "--dataset", "ccd-net", "--scale", "test",
                 "--days", "3", "--seed", "5", "--out", trace, "--spike",
                 "VHO1/IO0:240:3:80"},
                &out),
            0);
  ASSERT_EQ(run({"convert", "--in", trace, "--out", binary}, &out), 0);
  EXPECT_NE(out.find("0 junk rows dropped"), std::string::npos);

  // detect sniffs the binary format by magic and must report the exact
  // run the CSV trace produces (binary ingest is record-identical).
  std::string fromCsv, fromBinary;
  ASSERT_EQ(run({"detect", "--dataset", "ccd-net", "--scale", "test",
                 "--trace", trace, "--theta", "8", "--window", "96"},
                &fromCsv),
            0);
  ASSERT_EQ(run({"detect", "--dataset", "ccd-net", "--scale", "test",
                 "--trace", binary, "--theta", "8", "--window", "96"},
                &fromBinary),
            0);
  EXPECT_EQ(fromCsv, fromBinary);
  EXPECT_NE(fromBinary.find("processed 288 timeunits"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(binary.c_str());
}

TEST(Cli, ConvertRequiresInAndOut) {
  std::string err;
  EXPECT_EQ(run({"convert", "--out", "x.tsrb"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--in and --out are required"), std::string::npos);
  EXPECT_EQ(run({"convert", "--in", "x.csv"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--in and --out are required"), std::string::npos);
}

TEST(Cli, CorruptBinaryTraceFailsCleanly) {
  // A truncated .tsrb must come back as exit 1 with a clean message from
  // detect AND analyze — the SnapshotError is thrown while *opening* the
  // source (framing validation), not just while decoding records, and
  // both commands must catch it there.
  const std::string trace = ::testing::TempDir() + "/cli_corrupt.tsrb";
  {
    std::ofstream f(trace, std::ios::binary);
    f << "TSRB truncated prologue";
  }
  std::string err;
  EXPECT_EQ(run({"detect", "--dataset", "ccd-net", "--scale", "test",
                 "--trace", trace},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("bad binary trace"), std::string::npos);
  EXPECT_EQ(run({"analyze", "--dataset", "ccd-net", "--scale", "test",
                 "--trace", trace},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("bad binary trace"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(Cli, GenerateRejectsBadSpike) {
  std::string err;
  EXPECT_EQ(run({"generate", "--dataset", "ccd-net", "--out", "/tmp/x.csv",
                 "--spike", "garbage"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("bad --spike"), std::string::npos);
  EXPECT_EQ(run({"generate", "--dataset", "ccd-net", "--out", "/tmp/x.csv",
                 "--spike", "NoSuchNode:1:1:1"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("unknown spike path"), std::string::npos);
  // A negative duration used to wrap through stoul into a ~2^64-unit
  // spike; it must be a usage error, as must trailing garbage in any
  // numeric field.
  for (const char* bad : {"VHO1/IO0:240:-1:80", "VHO1/IO0:240:3junk:80",
                          "VHO1/IO0:2.5:3:80", "VHO1/IO0:240:3:80junk",
                          "VHO1/IO0:240::80"}) {
    EXPECT_EQ(run({"generate", "--dataset", "ccd-net", "--out", "/tmp/x.csv",
                   "--spike", bad},
                  nullptr, &err),
              2)
        << bad;
    EXPECT_NE(err.find("bad --spike"), std::string::npos) << bad;
  }
}

TEST(Cli, ServeValidatesNetworkFlags) {
  std::string err;
  // Generated-mode stream options conflict with --listen.
  EXPECT_EQ(run({"serve", "--listen", "0", "--streams", "4"}, nullptr, &err),
            2);
  EXPECT_NE(err.find("cannot be combined with --listen"), std::string::npos);
  // Network options require --listen.
  EXPECT_EQ(run({"serve", "--streams", "1", "--units", "1",
                 "--ingest-format", "csv"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("requires --listen"), std::string::npos);
  EXPECT_EQ(run({"serve", "--listen", "70000"}, nullptr, &err), 2);
  EXPECT_NE(err.find("port in [0, 65535]"), std::string::npos);
  EXPECT_EQ(run({"serve", "--listen", "0", "--ingest-format", "xml"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("unknown --ingest-format"), std::string::npos);
  EXPECT_EQ(run({"serve", "--listen", "0", "--net-streams", "0"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("--net-streams must be positive"), std::string::npos);
  // Flags take no value; dependent options need their anchor option.
  EXPECT_EQ(run({"serve", "--listen", "0", "--loopback", "yes"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("--loopback takes no value"), std::string::npos);
  EXPECT_EQ(run({"serve", "--restore"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--restore requires --checkpoint-dir"),
            std::string::npos);
}

TEST(Cli, ServeValidatesFaultToleranceFlags) {
  std::string err;
  // Stream names must be well-formed and unique.
  EXPECT_EQ(run({"serve", "--listen", "0", "--stream-names", "a,,b"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("comma-separated names"), std::string::npos);
  EXPECT_EQ(run({"serve", "--listen", "0", "--stream-names", "a,b,a"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("lists 'a' twice"), std::string::npos);
  // A malformed fault plan is rejected with the parser's diagnostic.
  EXPECT_EQ(run({"serve", "--listen", "0", "--fault-plan", "bogus=1.0"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("bad --fault-plan"), std::string::npos);
  EXPECT_NE(err.find("unknown key"), std::string::npos);
  EXPECT_EQ(run({"serve", "--listen", "0", "--fault-plan",
                 "disconnect=2.0"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("bad --fault-plan"), std::string::npos);
  // Fault injection is a listen-mode option like the rest.
  EXPECT_EQ(run({"serve", "--streams", "1", "--units", "1", "--fault-plan",
                 "disconnect=0.1"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("requires --listen"), std::string::npos);
  // A failed arm must not leave the process armed.
  EXPECT_FALSE(faultinject::armed());
}

TEST(Cli, SendValidatesArguments) {
  std::string err;
  EXPECT_EQ(run({"send", "--trace", "/tmp/x.csv"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--to HOST:PORT"), std::string::npos);
  for (const char* bad : {"nohost", "host:", ":123", "host:0", "host:junk",
                          "host:70000"}) {
    EXPECT_EQ(run({"send", "--to", bad, "--trace", "/tmp/x.csv"}, nullptr,
                  &err),
              2)
        << bad;
    EXPECT_NE(err.find("bad --to"), std::string::npos) << bad;
  }
  EXPECT_EQ(run({"send", "--to", "localhost:1", "--trace", "/tmp/x.csv",
                 "--format", "xml"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("unknown --format"), std::string::npos);
  // Reconnect/resume options are binary-framing features.
  EXPECT_EQ(run({"send", "--to", "localhost:1", "--trace", "/tmp/x.csv",
                 "--format", "csv", "--stream-name", "s0"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("require the binary format"), std::string::npos);
  EXPECT_EQ(run({"send", "--to", "localhost:1", "--trace", "/tmp/x.csv",
                 "--format", "csv", "--retries", "3"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("require the binary format"), std::string::npos);
  EXPECT_EQ(run({"send", "--to", "localhost:1", "--trace", "/tmp/x.csv",
                 "--stream-name", ""},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--stream-name wants 1.."), std::string::npos);
  EXPECT_EQ(run({"send", "--to", "localhost:1", "--trace", "/tmp/x.csv",
                 "--retries", "-1"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--retries must be >= 0"), std::string::npos);
  EXPECT_EQ(run({"send", "--to", "localhost:1", "--trace", "/tmp/x.csv",
                 "--backoff-ms", "0"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--backoff-ms must be in [1, 10000]"),
            std::string::npos);
  // The delay is capped at 10 s, so a larger first delay is a typo; past
  // 2^62 it also used to overflow the doubling into a negative delay.
  EXPECT_EQ(run({"send", "--to", "localhost:1", "--trace", "/tmp/x.csv",
                 "--backoff-ms", "10001"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--backoff-ms must be in [1, 10000]"),
            std::string::npos);
}

TEST(Cli, SendCsvTimesOutOnAPeerThatNeverReads) {
  // The listener never accepts, so nothing reads: once the loopback
  // buffers are full, a write can only time out. The trace is far larger
  // than those buffers.
  net::TcpListener silent;
  ASSERT_TRUE(silent.listen(0, /*loopbackOnly=*/true)) << silent.lastError();
  const std::string trace = ::testing::TempDir() + "/cli_send_stall_" +
                            std::to_string(::getpid()) + ".csv";
  {
    std::ofstream f(trace, std::ios::binary);
    const std::string row = std::string(1023, 'x') + "\n";
    for (int i = 0; i < 48 * 1024; ++i) f << row;  // 48 MiB
  }
  std::string err;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(run({"send", "--to", "127.0.0.1:" + std::to_string(silent.port()),
                 "--trace", trace, "--format", "csv", "--timeout-ms", "1000"},
                nullptr, &err),
            1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
  EXPECT_NE(err.find("send: connection lost after "), std::string::npos)
      << err;
  std::remove(trace.c_str());
}

TEST(Cli, SendWithoutStreamNameToANamedOnlyServerFailsAtOnce) {
  // `serve --listen 0 --net-streams 0 --stream-names a`: no anonymous
  // stream at all, so an anonymous send is refused with a fatal reply and
  // exits 1 at once instead of retrying into a silent close.
  serve::ServerConfig cfg;
  cfg.engine.workers = 1;
  cfg.window = 16;
  cfg.listenPort = 0;
  cfg.loopback = true;
  cfg.spec = std::make_shared<const workload::WorkloadSpec>(
      workload::ccdNetworkWorkload(workload::Scale::kTest));
  cfg.streamNames = {"a"};
  cfg.netStreams = 0;
  std::ostringstream serveOut, serveErr;
  serve::Server server(cfg, serveOut, serveErr);
  ASSERT_TRUE(server.start()) << server.error();
  const std::string empty = ::testing::TempDir() + "/cli_send_anon_" +
                            std::to_string(::getpid()) + ".csv";
  std::ofstream(empty).close();
  const std::vector<std::string> send = {
      "send", "--to", "127.0.0.1:" + std::to_string(server.ingestPort()),
      "--trace", empty, "--dataset", "ccd-net", "--scale", "test",
      "--retries", "3", "--backoff-ms", "1000"};

  std::string err;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(run(send, nullptr, &err), 1);
  // Three retries at a 1 s backoff would take seconds.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_NE(err.find("serves no anonymous stream"), std::string::npos) << err;
  EXPECT_EQ(err.find("retrying"), std::string::npos) << err;

  // Ending the one named stream ends the run.
  std::vector<std::string> endA = send;
  endA.insert(endA.end(), {"--stream-name", "a"});
  ASSERT_EQ(run(endA), 0);
  EXPECT_EQ(server.drain().unitsProcessed, 0u);
  EXPECT_EQ(server.netTotals().rejected, 1u);
  std::remove(empty.c_str());
}

TEST(Cli, AnalyzeFindsDiurnalSeason) {
  const std::string trace = ::testing::TempDir() + "/cli_seasonal.csv";
  std::string out;
  ASSERT_EQ(run({"generate", "--dataset", "ccd-trouble", "--scale", "test",
                 "--days", "6", "--seed", "3", "--out", trace},
                &out),
            0);
  ASSERT_EQ(run({"analyze", "--dataset", "ccd-trouble", "--scale", "test",
                 "--trace", trace},
                &out),
            0);
  EXPECT_NE(out.find("period=96 units (24.0 hours)"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(Cli, CustomHierarchyFromPathsFile) {
  const std::string pathsFile = ::testing::TempDir() + "/custom_paths.txt";
  {
    std::ofstream f(pathsFile);
    f << "east/pop1\neast/pop2\nwest/pop1\n";
  }
  std::string out;
  EXPECT_EQ(run({"hierarchy", "--hierarchy", pathsFile}, &out), 0);
  EXPECT_NE(out.find("leaves=3"), std::string::npos);
  EXPECT_NE(out.find("height=3"), std::string::npos);
  std::remove(pathsFile.c_str());
}

TEST(Cli, CustomHierarchyDetect) {
  const std::string pathsFile = ::testing::TempDir() + "/det_paths.txt";
  const std::string trace = ::testing::TempDir() + "/det_trace.csv";
  {
    std::ofstream f(pathsFile);
    f << "east/pop1\neast/pop2\nwest/pop1\n";
  }
  {
    // 20 quiet units then a burst at pop1 in unit 20.
    std::ofstream f(trace);
    for (int u = 0; u < 21; ++u) {
      const int count = u == 20 ? 30 : 4;
      for (int i = 0; i < count; ++i) {
        f << "east/pop1," << u * 900 + i << "\n";
      }
    }
  }
  std::string out;
  ASSERT_EQ(run({"detect", "--hierarchy", pathsFile, "--trace", trace,
                 "--theta", "3", "--window", "12", "--rt", "2", "--dt", "5"},
                &out),
            0);
  EXPECT_NE(out.find("anomaly unit=20 root/east/pop1"), std::string::npos);
  std::remove(pathsFile.c_str());
  std::remove(trace.c_str());
}

TEST(Cli, ServeRunsStreamsThroughEngine) {
  std::string out;
  ASSERT_EQ(run({"serve", "--streams", "3", "--workers", "2", "--units", "40",
                 "--window", "16", "--seed", "5"},
                &out),
            0);
  EXPECT_NE(out.find("engine: 3 streams, 2 workers, 1 ingest threads"),
            std::string::npos);
  EXPECT_NE(out.find("stream ccd-net-0:"), std::string::npos);
  EXPECT_NE(out.find("stream ccd-trouble-1:"), std::string::npos);
  EXPECT_NE(out.find("stream scd-2:"), std::string::npos);
  EXPECT_NE(out.find("scheduler: claims="), std::string::npos);
  EXPECT_NE(out.find("aggregate: ingested=120 units=120 discarded=0 lag=0"),
            std::string::npos);
  EXPECT_NE(out.find("warmup="), std::string::npos);
  EXPECT_NE(out.find("records/sec"), std::string::npos);
  // Metrics ride along by default: the final summary includes the
  // per-stage latency table.
  EXPECT_NE(out.find("stages (latency percentiles):"), std::string::npos);
  EXPECT_NE(out.find("scheduler.run_slice"), std::string::npos);
  EXPECT_NE(out.find("engine.unit_latency"), std::string::npos);
}

/// The number after `"key":` in `json`, searched from `from`; NaN when
/// the key is absent.
double jsonNumber(const std::string& json, const std::string& key,
                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

TEST(Cli, ServeWritesMetricsJsonLines) {
  const std::string path = "cli_test_metrics.jsonl";
  std::string out;
  ASSERT_EQ(run({"serve", "--streams", "2", "--workers", "1", "--units",
                 "32", "--window", "16", "--seed", "11", "--metrics-out",
                 path, "--metrics-every", "50"},
                &out),
            0);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line, last;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    last = line;
    // Every line is one self-describing JSON object.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"schema\":\"tiresias_metrics/v1\""),
              std::string::npos);
    for (const char* field :
         {"elapsed_seconds", "units_processed", "units_discarded",
          "queue_lag_units", "records_per_sec", "workspace_bytes",
          "resident_streams", "hibernated_streams", "hibernate_evictions",
          "hibernate_wakes", "stages", "gauges"}) {
      EXPECT_NE(line.find("\"" + std::string(field) + "\":"),
                std::string::npos)
          << field << " missing in " << line;
    }
  }
  // At minimum the final post-drain line is present.
  ASSERT_GE(lines, 1u);
  EXPECT_NE(last.find("\"units_processed\":64"), std::string::npos);
  EXPECT_NE(last.find("\"stages\":{"), std::string::npos);
  EXPECT_NE(last.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(last.find("\"engine.unit_latency\""), std::string::npos);
  EXPECT_NE(last.find("\"p99_us\""), std::string::npos);
  // Every processed unit has its latency sample, and the percentiles are
  // ordered.
  const std::size_t latency = last.find("\"engine.unit_latency\":{");
  ASSERT_NE(latency, std::string::npos);
  EXPECT_EQ(jsonNumber(last, "count", latency), 64.0);
  const double p50 = jsonNumber(last, "p50_us", latency);
  const double p90 = jsonNumber(last, "p90_us", latency);
  const double p99 = jsonNumber(last, "p99_us", latency);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // The final line carries gauge samples.
  EXPECT_EQ(last.find("\"gauges\":{}"), std::string::npos);
  EXPECT_NE(last.find("\"gauge."), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ServeMetricsEveryRequiresMetricsOut) {
  std::string err;
  EXPECT_EQ(run({"serve", "--streams", "1", "--metrics-every", "100"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--metrics-every requires --metrics-out"),
            std::string::npos);
  EXPECT_EQ(run({"serve", "--streams", "1", "--metrics-out", "x.jsonl",
                 "--metrics-every", "0"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("must be positive"), std::string::npos);
}

/// The ceiling of a bounded numeric option, as an argument.
std::string optionCeiling(std::string_view name) {
  for (const CliOption& o : cliOptions()) {
    if (std::string_view(o.name) == name) {
      return std::to_string(static_cast<long long>(o.hi));
    }
  }
  return "";
}

// Resource ceilings: the queue bounds and the resident cap have upper
// bounds, and every socket stream, named or anonymous, counts against one
// stream ceiling (each holds a 64 KiB read buffer from the start).
TEST(Cli, ServeCapsQueuesResidencyAndSocketStreams) {
  std::string err;
  EXPECT_EQ(run({"serve", "--queue", "1000001"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--queue must be in [1, 1000000]"), std::string::npos);
  EXPECT_EQ(run({"serve", "--total-queue", "1000001"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--total-queue must be in [1, 1000000]"),
            std::string::npos);
  EXPECT_EQ(run({"serve", "--max-resident", "1000001"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--max-resident must be in [0, 1000000]"),
            std::string::npos);

  const std::string maxNet = optionCeiling("net-streams");
  ASSERT_FALSE(maxNet.empty());
  EXPECT_EQ(run({"serve", "--listen", "0", "--net-streams", maxNet,
                 "--stream-names", "a"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--net-streams plus --stream-names must be at most " +
                     maxNet),
            std::string::npos)
      << err;
  std::string names = "s0";
  for (long long i = 1; i <= std::stoll(maxNet); ++i) {
    names += ",s" + std::to_string(i);
  }
  EXPECT_EQ(run({"serve", "--listen", "0", "--stream-names", names}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("(got " + std::to_string(std::stoll(maxNet) + 1) + ")"),
            std::string::npos)
      << err.substr(0, 200);
}

TEST(Cli, ServeRejectsZeroStreams) {
  std::string err;
  EXPECT_EQ(run({"serve", "--streams", "0"}, nullptr, &err), 2);
  EXPECT_NE(err.find("must be in [1, 1000000]"), std::string::npos);
}

/// Run `args` in a forked child whose address space is capped 256 MiB
/// above what it already maps, and return its wait status. The child
/// never returns into gtest: an exception escaping runCli exits 96, and
/// an exit 1 whose stderr does not start with `message` exits 97.
int runUnderAddressCap(const std::vector<std::string>& args,
                       std::string_view message) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    long pages = 0;
    std::FILE* statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr || std::fscanf(statm, "%ld", &pages) != 1) _exit(99);
    std::fclose(statm);
    const rlim_t mapped = static_cast<rlim_t>(pages) *
                          static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
    const rlim_t limit = mapped + (rlim_t{256} << 20);
    const rlimit cap{limit, limit};
    if (setrlimit(RLIMIT_AS, &cap) != 0) _exit(98);
    std::ostringstream out, err;
    int rc = 96;
    try {
      rc = runCli(args, out, err);
    } catch (...) {
    }
    std::fputs(err.str().c_str(), stderr);
    const bool named = err.str().find(message) == 0;
    _exit(rc == 1 && !named ? 97 : rc);
  }
  int status = 0;
  return waitpid(pid, &status, 0) == pid ? status : -1;
}

// Thread counts the host cannot honour end in exit 1 with a message, not
// in an uncaught std::system_error: thread stacks run out under the cap
// long before the --workers ceiling is reached.
TEST(Cli, ServeFailsCleanlyWhenThreadsCannotStart) {
#ifdef TIRESIAS_SANITIZED
  GTEST_SKIP() << "RLIMIT_AS cannot be lowered under ASan/TSan";
#endif
  const std::string maxWorkers = optionCeiling("workers");
  ASSERT_FALSE(maxWorkers.empty());
  const int status = runUnderAddressCap(
      {"serve", "--streams", "1", "--units", "4", "--workers", maxWorkers},
      "serve: cannot start");
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

// Likewise a stream count the host cannot hold ends in exit 1, not in an
// uncaught std::bad_alloc: registering the --streams ceiling needs far
// more than the cap.
TEST(Cli, ServeFailsCleanlyWhenStreamsCannotBeAllocated) {
#ifdef TIRESIAS_SANITIZED
  GTEST_SKIP() << "RLIMIT_AS cannot be lowered under ASan/TSan";
#endif
  const std::string maxStreams = optionCeiling("streams");
  ASSERT_FALSE(maxStreams.empty());
  const int status = runUnderAddressCap(
      {"serve", "--streams", maxStreams, "--units", "1", "--workers", "1"},
      "serve: cannot allocate");
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

/// Typos must fail loudly: unknown options were once ignored, so
/// `--shard 4` silently ran with defaults.
TEST(Cli, RejectsUnknownOptions) {
  std::string err;
  EXPECT_EQ(run({"serve", "--shard", "4"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown option '--shard'"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  // The removed static-shard flag is an unknown option like any other.
  EXPECT_EQ(run({"serve", "--shards", "3"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown option '--shards'"), std::string::npos);
  EXPECT_EQ(run({"generate", "--dataset", "ccd-net", "--out", "/tmp/x.csv",
                 "--sede", "7"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("unknown option '--sede'"), std::string::npos);
  EXPECT_EQ(run({"hierarchy", "--dataset", "scd", "--verbose"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("unknown option '--verbose'"), std::string::npos);
}

/// Duplicated single-use options are ambiguous (the parser keeps the last
/// occurrence); they are rejected instead of silently last-winning. The
/// explicitly repeatable option (--spike) stays repeatable.
TEST(Cli, RejectsDuplicateSingleUseOptions) {
  std::string err;
  EXPECT_EQ(run({"serve", "--streams", "2", "--streams", "3"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("option '--streams' given 2 times"), std::string::npos);
  EXPECT_EQ(run({"detect", "--dataset", "scd", "--dataset", "ccd-net",
                 "--trace", "t.csv"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("option '--dataset' given 2 times"), std::string::npos);
}

/// Value typos fail as loudly as option-name typos: a non-numeric value
/// for a numeric option is a usage error, not an uncaught std::stoll
/// exception terminating the process.
TEST(Cli, RejectsNonNumericOptionValues) {
  std::string err;
  EXPECT_EQ(run({"serve", "--workers", "two"}, nullptr, &err), 2);
  EXPECT_NE(err.find("bad numeric value 'two' for --workers"),
            std::string::npos);
  EXPECT_EQ(run({"serve", "--streams", "3x"}, nullptr, &err), 2);
  EXPECT_NE(err.find("bad numeric value '3x' for --streams"),
            std::string::npos);
  EXPECT_EQ(run({"serve", "--budget", "99999999999999999999"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("bad numeric value"), std::string::npos);
  EXPECT_EQ(run({"detect", "--dataset", "scd", "--trace", "t.csv",
                 "--theta", "high"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("bad numeric value 'high' for --theta"),
            std::string::npos);
  EXPECT_EQ(run({"generate", "--dataset", "scd", "--out", "/tmp/x.csv",
                 "--days", ""},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("bad numeric value '' for --days"), std::string::npos);
  EXPECT_EQ(run({"analyze", "--dataset", "scd", "--trace", "t.csv",
                 "--unit-minutes", "-5"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--unit-minutes must be positive"), std::string::npos);
  // Detector parameters outside the detector's domain used to reach its
  // preconditions and abort the process.
  for (const char* cmd : {"detect", "serve"}) {
    for (const auto& [name, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"window", "1"}, {"theta", "0"}, {"theta", "-2"},
             {"theta", "nan"}}) {
      EXPECT_EQ(run({cmd, "--" + name, value}, nullptr, &err), 2)
          << cmd << " --" << name << " " << value;
      EXPECT_NE(err.find("--" + name), std::string::npos) << err;
    }
  }
  // --algo is a closed set: a typo no longer silently runs ADA.
  for (const char* algo : {"bogus", "STA"}) {
    EXPECT_EQ(run({"detect", "--trace", "t.csv", "--algo", algo}, nullptr,
                  &err),
              2)
        << algo;
    EXPECT_NE(err.find("unknown --algo"), std::string::npos) << err;
  }
}

/// Every numeric option with a lower bound, under every command that
/// accepts it, rejects a value just below the bound (and above an upper
/// bound) and `nan` with a usage error naming the option — so an option
/// added without a range fails here instead of aborting a server.
TEST(Cli, TableBoundsAreEnforcedForEveryCommand) {
  using Kind = CliOption::Kind;
  std::size_t checked = 0;
  for (const CliOption& o : cliOptions()) {
    if (o.kind != Kind::kInt && o.kind != Kind::kReal) continue;
    const std::string flag = "--" + std::string(o.name);
    if (*o.def) {  // defaults honor their own bounds
      const double def = std::stod(o.def);
      EXPECT_TRUE(def >= o.lo && def <= o.hi) << flag;
    }
    if (o.lo == -CliOption::kUnbounded) {
      // Only values the code takes whole may go unbounded: any seed, any
      // finite split threshold.
      EXPECT_TRUE(flag == "--seed" || flag == "--rt" || flag == "--dt")
          << flag << " needs bounds";
      continue;
    }
    const auto text = [&o](double v) {
      std::ostringstream os;
      if (o.kind == Kind::kInt) {
        os << static_cast<long long>(v);
      } else {
        os << std::setprecision(17) << v;
      }
      return os.str();
    };
    std::vector<std::string> bad = {
        text(o.kind == Kind::kInt
                 ? o.lo - 1
                 : std::nextafter(o.lo, -CliOption::kUnbounded)),
        "nan"};
    if (o.hi != CliOption::kUnbounded) {
      bad.push_back(text(o.kind == Kind::kInt
                             ? o.hi + 1
                             : std::nextafter(o.hi, CliOption::kUnbounded)));
    }
    std::istringstream commands(o.commands);
    std::string cmd;
    while (commands >> cmd) {
      for (const std::string& value : bad) {
        std::string err;
        EXPECT_EQ(run({cmd, flag, value}, nullptr, &err), 2)
            << cmd << " " << flag << " " << value;
        EXPECT_NE(err.find(flag), std::string::npos)
            << cmd << " " << flag << " " << value << ": " << err;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 60u);
}

/// The generated usage lists, for each command, every option it accepts.
TEST(Cli, HelpListsEveryTableOption) {
  std::string out;
  ASSERT_EQ(run({"help"}, &out), 0);
  for (const CliOption& o : cliOptions()) {
    std::istringstream commands(o.commands);
    std::string cmd;
    while (commands >> cmd) {
      const std::size_t section = out.find("\n" + cmd + ": ");
      ASSERT_NE(section, std::string::npos) << cmd;
      const std::size_t next = out.find("\n\n", section + 1);
      const std::string body = out.substr(section, next - section);
      EXPECT_NE(body.find("\n  --" + std::string(o.name) + " "),
                std::string::npos)
          << cmd << " --" << o.name;
    }
  }
}

TEST(Cli, RejectsStrayPositionalArguments) {
  std::string err;
  EXPECT_EQ(run({"hierarchy", "--dataset", "scd", "extra"}, nullptr, &err),
            2);
  EXPECT_NE(err.find("unexpected argument 'extra'"), std::string::npos);
}

TEST(Cli, MissingHierarchyFileFails) {
  std::string err;
  EXPECT_EQ(run({"hierarchy", "--hierarchy", "/nonexistent/x.txt"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("cannot open --hierarchy"), std::string::npos);
}

TEST(Cli, MissingTraceFileFails) {
  const std::string missing = ::testing::TempDir() + "/no_such_trace.csv";
  const std::string phrase = "cannot open --trace '" + missing + "'";
  std::string err;
  for (const char* command : {"detect", "analyze"}) {
    EXPECT_EQ(run({command, "--dataset", "ccd-net", "--scale", "test",
                   "--trace", missing},
                  nullptr, &err),
              1)
        << command;
    EXPECT_NE(err.find(std::string(command) + ": " + phrase),
              std::string::npos)
        << err;
  }
  // send opens the trace before it connects, so nothing needs to listen
  // on the port: a connect attempt would fail with "cannot connect".
  for (const char* format : {"binary", "csv"}) {
    EXPECT_EQ(run({"send", "--to", "127.0.0.1:1", "--trace", missing,
                   "--format", format, "--dataset", "ccd-net", "--scale",
                   "test"},
                  nullptr, &err),
              1)
        << format;
    EXPECT_NE(err.find("send: " + phrase), std::string::npos) << err;
  }
  EXPECT_EQ(run({"convert", "--in", missing, "--out",
                 ::testing::TempDir() + "/no_such_trace.tsrb"},
                nullptr, &err),
            1);
  EXPECT_EQ(err, "convert: cannot open CSV trace\n");
}

TEST(Cli, AnalyzeRejectsShortTrace) {
  const std::string trace = ::testing::TempDir() + "/cli_short.csv";
  {
    std::ofstream f(trace);
    f << "VHO0/IO0/CO0/DSLAM0,100\n";
  }
  std::string err;
  EXPECT_EQ(run({"analyze", "--dataset", "ccd-net", "--scale", "test",
                 "--trace", trace},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("too short"), std::string::npos);
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace tiresias::tools
