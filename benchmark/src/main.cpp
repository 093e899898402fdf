// tiresias_benchmark — the repository benchmark's program.
//
//   tiresias_benchmark prepare --workload W --seed S [--smoke] --cache DIR
//       Generate the workload's inputs for this seed (trace files or the
//       generator manifest) into DIR/<workload>-<seed>-<shape>/, unless
//       they are already there. Separate from `run` so trace generation never
//       counts against set-up time or peak memory.
//   tiresias_benchmark run --workload W --seed S --seconds T --trace 0|1
//                          [--smoke] --cache DIR
//       Measure for T seconds and print the result as one JSON line on
//       stdout (readable lines go to stderr). Exit 1 if any output check
//       failed.
//   tiresias_benchmark self-test --cache DIR
//       Run every workload at smoke size with one result corrupted in the
//       engine sink; succeed only if every output check catches it.
//
// benchmark/run.sh builds this binary and is the command to use.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace tiresias::bench;

struct WorkloadEntry {
  const char* name;
  std::string (*shape)(const Options&);
  void (*prepare)(const Options&);
  void (*run)(const Options&, Report&);
};

const WorkloadEntry kWorkloads[] = {
    {"tsrb_replay", [](const Options& o) { return replayShape(o, true); },
     [](const Options& o) { prepareReplay(o, true); },
     [](const Options& o, Report& r) { runReplay(o, true, r); }},
    {"csv_replay", [](const Options& o) { return replayShape(o, false); },
     [](const Options& o) { prepareReplay(o, false); },
     [](const Options& o, Report& r) { runReplay(o, false, r); }},
    {"socket_live", socketLiveShape, prepareSocketLive, runSocketLive},
    {"fleet_hibernate", fleetShape, prepareFleet, runFleet},
};

const WorkloadEntry* findWorkload(const std::string& name) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: tiresias_benchmark prepare --workload W --seed S "
               "[--smoke] --cache DIR\n"
               "       tiresias_benchmark run --workload W --seed S "
               "--seconds T --trace 0|1 [--smoke] --cache DIR\n"
               "       tiresias_benchmark self-test --cache DIR\n"
               "workloads: tsrb_replay csv_replay socket_live "
               "fleet_hibernate\n");
  return 2;
}

std::string inputDir(const std::string& cache, const WorkloadEntry& w,
                     const Options& o) {
  return cache + "/" + o.workload + "-" + std::to_string(o.seed) + "-" +
         w.shape(o);
}

/// Keeps the newest few input sets per workload; every seed makes a new
/// one, and a full set of traces is tens of megabytes.
void pruneCache(const std::string& cache, const Options& o) {
  namespace fs = std::filesystem;
  std::vector<std::pair<fs::file_time_type, fs::path>> sets;
  const std::string prefix = o.workload + "-";
  for (const auto& entry : fs::directory_iterator(cache)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.rfind(prefix, 0) == 0 &&
        entry.path() != fs::path(o.inputDir)) {
      sets.emplace_back(entry.last_write_time(), entry.path());
    }
  }
  std::sort(sets.begin(), sets.end());
  constexpr std::size_t kKeep = 2;
  for (std::size_t i = 0; i + kKeep < sets.size(); ++i) {
    fs::remove_all(sets[i].second);
  }
}

void prepare(const WorkloadEntry& w, const Options& o,
             const std::string& cache) {
  Manifest m;
  if (readManifest(o.inputDir, m)) return;
  std::filesystem::remove_all(o.inputDir);
  std::filesystem::create_directories(o.inputDir);
  pruneCache(cache, o);
  const double t0 = nowSeconds();
  w.prepare(o);
  std::fprintf(stderr, "prepared %s inputs in %.2f s\n", w.name,
               nowSeconds() - t0);
}

int selfTest(const std::string& cache) {
  bool allCaught = true;
  for (const WorkloadEntry& w : kWorkloads) {
    Options o;
    o.workload = w.name;
    o.seed = 1;
    o.seconds = 0;  // the minimum number of rounds
    o.smoke = true;
    o.corrupt = true;
    o.inputDir = inputDir(cache, w, o);
    prepare(w, o, cache);
    Report report;
    w.run(o, report);
    const bool caught = !report.correct();
    allCaught = allCaught && caught;
    std::printf("self-test %-16s corrupted result %s\n", w.name,
                caught ? "caught by the output check" : "NOT CAUGHT");
  }
  return allCaught ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Options o;
  std::string cache;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        o.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--cache") {
        cache = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value, &used);
        haveSeed = used == value.size();
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value, &used);
        haveSeconds = used == value.size() && o.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        o.trace = value == "1";
        haveTrace = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (cache.empty()) return usage();
  if (command == "self-test") return selfTest(cache);

  const WorkloadEntry* w = findWorkload(o.workload);
  if (w == nullptr || !haveSeed) return usage();
  o.inputDir = inputDir(cache, *w, o);
  try {
    if (command == "prepare") {
      prepare(*w, o, cache);
      return 0;
    }
    if (command != "run" || !haveSeconds || !haveTrace) return usage();
    std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d%s\n", w->name,
                 static_cast<unsigned long long>(o.seed), o.seconds,
                 o.trace ? 1 : 0, o.smoke ? " (smoke)" : "");
    Report report;
    w->run(o, report);
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
