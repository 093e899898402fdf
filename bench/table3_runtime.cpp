// Table III — running time of Tiresias by stage, ADA vs STA, for timeunit
// sizes of 15 and 60 minutes.
//
// Shape to reproduce: STA's total is dominated by "Creating Time Series"
// (83-94% in the paper); ADA removes that stage's per-instance window
// traversal, giving a large total-time factor that *grows as the timeunit
// shrinks* (more instances, longer window in units). Absolute times differ
// from the paper's 2010 Solaris box; the factors are the claim.
//
// The STA side runs reference::StaReplica — the paper's algorithm with the
// per-instance window copy and full reconstruction. The production
// StaDetector keeps incremental sliding-window aggregates (see DESIGN.md
// "Detection hot path") and no longer has the cost shape Table III
// describes; sta_test's StaSpeed case times that rewrite.
#include "bench/bench_util.h"

#include "core/shhh_reference.h"

namespace {

using namespace tiresias;
using namespace tiresias::workload;

struct RunResult {
  double readSec = 0.0;  // trace generation + batching ("Reading Traces")
  StageTimer stages;
  double totalSec = 0.0;
  std::size_t instances = 0;
};

RunResult run(const WorkloadSpec& spec, bool useAda, Duration delta,
              std::size_t window, TimeUnit totalUnits) {
  // Rescale the workload to the requested timeunit size.
  WorkloadSpec scaled = spec;
  scaled.unit = delta;
  scaled.baseRatePerUnit =
      spec.baseRatePerUnit * static_cast<double>(delta) /
      static_cast<double>(spec.unit);

  DetectorConfig cfg = bench::paperConfig(
      window, 8.0, bench::hwFactory({{static_cast<std::size_t>(kDay / delta),
                                      1.0}}));
  // The STA side runs the paper-faithful cost model (per-instance window
  // copy + full reconstruction), not the incremental production
  // StaDetector. Only the selected detector is constructed — the other
  // would hold dense hierarchy-sized state for the whole measured run.
  std::unique_ptr<AdaDetector> ada;
  std::unique_ptr<reference::StaReplica> sta;
  if (useAda) {
    ada = std::make_unique<AdaDetector>(scaled.hierarchy, cfg);
  } else {
    sta = std::make_unique<reference::StaReplica>(scaled.hierarchy, cfg);
  }

  GeneratorSource src(scaled, 0, totalUnits, 31337);
  TimeUnitBatcher batcher(src, scaled.unit, 0);
  RunResult result;
  Stopwatch total;
  while (true) {
    Stopwatch read;
    auto batch = batcher.next();
    result.readSec += read.elapsedSeconds();
    if (!batch) break;
    const bool instance = useAda ? ada->step(*batch).has_value()
                                 : sta->step(*batch).has_value();
    if (instance) ++result.instances;
  }
  result.totalSec = total.elapsedSeconds();
  result.stages = useAda ? ada->stages() : sta->stages();
  return result;
}

void printRun(AsciiTable& table, const char* algo, const RunResult& r) {
  const double stagesTotal = r.stages.totalSeconds() + r.readSec;
  auto row = [&](const std::string& stage, double total, double meanMs,
                 double varMs) {
    table.addRow({algo, stage, fmtF(total * 1000.0, 1),
                  fmtPct(total / stagesTotal, 1), fmtF(meanMs, 3),
                  fmtF(varMs, 4)});
  };
  row("Reading Traces", r.readSec, 0.0, 0.0);
  for (const auto& stage :
       {kStageUpdateHierarchies, kStageCreateSeries, kStageDetect}) {
    row(stage, r.stages.totalSeconds(stage),
        r.stages.meanSeconds(stage) * 1000.0,
        r.stages.varianceSeconds(stage) * 1e6);
  }
  table.addRow({algo, "Sum", fmtF(stagesTotal * 1000.0, 1), "100.0%", "", ""});
  table.addRule();
}

}  // namespace

int main() {
  bench::banner("Table III", "running time by stage, ADA vs STA");
  const auto spec = ccdNetworkWorkload(Scale::kMedium);
  bench::note("CCD network (medium preset), 1 simulated week; window = 3 "
              "days of history (the paper used 12 weeks at full scale)");

  bool ok = true;
  double factor15 = 0.0, factor60 = 0.0;
  for (const Duration delta : {15 * kMinute, 60 * kMinute}) {
    const auto unitsPerDay = static_cast<std::size_t>(kDay / delta);
    const std::size_t window = 3 * unitsPerDay;
    const auto totalUnits = static_cast<TimeUnit>(7 * unitsPerDay);

    const auto ada = run(spec, true, delta, window, totalUnits);
    const auto sta = run(spec, false, delta, window, totalUnits);

    std::printf("\n--- timeunit size = %lld minutes ---\n",
                static_cast<long long>(delta / kMinute));
    AsciiTable table({"Algorithm", "Stage", "Total (ms)", "Share",
                      "Mean/inst (ms)", "Var (ms^2)"});
    printRun(table, "ADA", ada);
    printRun(table, "STA", sta);
    table.print(std::cout);

    const double adaTotal = ada.stages.totalSeconds() + ada.readSec;
    const double staTotal = sta.stages.totalSeconds() + sta.readSec;
    const double factor = staTotal / adaTotal;
    const double factorNoRead =
        sta.stages.totalSeconds() / std::max(ada.stages.totalSeconds(), 1e-9);
    std::printf("total factor STA/ADA: %.1fx (excluding Reading Traces: "
                "%.1fx); instances: %zu\n", factor, factorNoRead,
                ada.instances);
    (delta == 15 * kMinute ? factor15 : factor60) = factorNoRead;

    const double staCreateShare =
        sta.stages.totalSeconds(kStageCreateSeries) /
        (sta.stages.totalSeconds() + sta.readSec);
    ok &= bench::check(staCreateShare > 0.5,
                       "STA dominated by Creating Time Series (paper: "
                       "83-94%)");
    ok &= bench::check(factorNoRead > 2.0,
                       "ADA is several times faster than STA");
  }
  ok &= bench::check(factor15 > factor60,
                     "STA/ADA gap grows as the timeunit shrinks (paper: "
                     "14.2x at 15 min vs 5.4x at 60 min)");
  return ok ? 0 : 1;
}
