// Micro-benchmarks (google-benchmark) for the hot operations behind
// Tables III/IV: the bottom-up SHHH pass, one ADA step, one STA step,
// split/merge-heavy steps, Holt-Winters updates, ring pushes and the FFT.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/ada.h"
#include "core/shhh.h"
#include "core/sta.h"
#include "analysis/fft.h"
#include "timeseries/holt_winters.h"
#include "workload/ccd.h"

namespace {

using namespace tiresias;
using namespace tiresias::workload;

const WorkloadSpec& spec() {
  static const WorkloadSpec s = ccdNetworkWorkload(Scale::kMedium);
  return s;
}

std::vector<TimeUnitBatch> makeBatches(TimeUnit units, std::uint64_t seed) {
  GeneratorSource src(spec(), 0, units, seed);
  TimeUnitBatcher batcher(src, spec().unit, 0);
  std::vector<TimeUnitBatch> batches;
  while (auto b = batcher.next()) batches.push_back(std::move(*b));
  return batches;
}

DetectorConfig config(std::size_t window) {
  DetectorConfig cfg;
  cfg.theta = 8.0;
  cfg.windowLength = window;
  cfg.forecasterFactory = std::make_shared<HoltWintersFactory>(
      HoltWintersParams{}, std::vector<SeasonSpec>{{96, 1.0}});
  return cfg;
}

void BM_ComputeShhh(benchmark::State& state) {
  const auto batches = makeBatches(4, 1);
  CountMap counts;
  for (const auto& r : batches.back().records) counts[r.category] += 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeShhh(spec().hierarchy, counts, 8.0));
  }
}
BENCHMARK(BM_ComputeShhh);

void BM_AdaStep(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  auto batches = makeBatches(static_cast<TimeUnit>(window + 64), 2);
  AdaDetector ada(spec().hierarchy, config(window));
  std::size_t i = 0;
  for (; i < window; ++i) ada.step(batches[i]);
  std::size_t cursor = window;
  for (auto _ : state) {
    auto batch = batches[window + (cursor++ % 64)];
    benchmark::DoNotOptimize(ada.step(batch));
  }
}
BENCHMARK(BM_AdaStep)->Arg(96)->Arg(192);

void BM_StaStep(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  auto batches = makeBatches(static_cast<TimeUnit>(window + 64), 2);
  StaDetector sta(spec().hierarchy, config(window));
  std::size_t i = 0;
  for (; i < window; ++i) sta.step(batches[i]);
  std::size_t cursor = window;
  for (auto _ : state) {
    auto batch = batches[window + (cursor++ % 64)];
    benchmark::DoNotOptimize(sta.step(batch));
  }
}
BENCHMARK(BM_StaStep)->Arg(96)->Arg(192);

void BM_HoltWintersUpdate(benchmark::State& state) {
  HoltWintersForecaster hw({0.5, 0.05, 0.3}, {{96, 0.76}, {672, 0.24}});
  std::vector<double> warm(2 * 672, 10.0);
  hw.initFromHistory(warm);
  double v = 9.0;
  for (auto _ : state) {
    hw.update(v);
    v = v < 20.0 ? v + 0.1 : 9.0;
    benchmark::DoNotOptimize(hw.forecast());
  }
}
BENCHMARK(BM_HoltWintersUpdate);

void BM_RingPush(benchmark::State& state) {
  RingSeries ring(8064);
  double v = 0.0;
  for (auto _ : state) {
    ring.push(v);
    v += 1.0;
    benchmark::DoNotOptimize(ring.latest());
  }
}
BENCHMARK(BM_RingPush);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = std::sin(static_cast<double>(i) * 0.1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(periodogram(series));
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
