// Timed ratio checks for the test suite: "the fast path is at least N×
// the slow one", measured as the best of a few runs of the calling
// thread's CPU time, so a busy machine's other processes do not count.
// Each check times single-threaded work only. Sanitizers slow the two
// sides by different factors, so the checks skip under them.
#pragma once

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "stream/window.h"
#include "workload/ccd.h"
#include "workload/generator.h"

// Defined in ASan and TSan builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TIRESIAS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TIRESIAS_SANITIZED 1
#endif
#endif

/// Ends the current test as skipped in a sanitized build.
#ifdef TIRESIAS_SANITIZED
#define SKIP_TIMING_UNDER_SANITIZERS() \
  GTEST_SKIP() << "timing ratios are meaningless under a sanitizer"
#else
#define SKIP_TIMING_UNDER_SANITIZERS() (void)0
#endif

namespace tiresias {

/// Thread CPU time since construction; the CPU-time twin of Stopwatch.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(now()) {}
  double elapsedSeconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// The least of three calls of `run`, each returning the CPU seconds it
/// measured (so a run can leave its setup out of the figure).
template <typename Run>
double bestOfThree(Run&& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) best = std::min(best, run());
  return best;
}

/// The detection-shaped input the timed checks share: the CCD-network
/// workload at medium scale (seed 1), cut into its first `units`
/// timeunits.
struct TimedWorkload {
  workload::WorkloadSpec spec;
  std::vector<TimeUnitBatch> units;
};

inline TimedWorkload ccdMediumWorkload(TimeUnit units) {
  TimedWorkload out{workload::ccdNetworkWorkload(workload::Scale::kMedium),
                    {}};
  workload::GeneratorSource src(out.spec, 0, units, 1);
  TimeUnitBatcher batcher(src, out.spec.unit, 0);
  TimeUnitBatch batch;
  while (batcher.next(batch)) out.units.push_back(batch);
  return out;
}

}  // namespace tiresias
