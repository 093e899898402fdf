// Unit + property tests for the additive Holt-Winters forecaster: bootstrap
// quality, forecasting of seasonal signals, the Lemma 2 linearity that ADA's
// split/merge relies on, and dual-season combination.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "common/rng.h"
#include "timeseries/holt_winters.h"

namespace tiresias {
namespace {

std::vector<double> seasonalSignal(std::size_t n, std::size_t period,
                                   double level, double amplitude,
                                   double trendPerUnit = 0.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = level + trendPerUnit * static_cast<double>(i) +
             amplitude * std::sin(2.0 * std::numbers::pi *
                                  static_cast<double>(i % period) /
                                  static_cast<double>(period));
  }
  return out;
}

TEST(HoltWinters, ForecastsPureSeasonalSignal) {
  HoltWintersForecaster hw({0.3, 0.05, 0.3}, {{24, 1.0}});
  const auto signal = seasonalSignal(24 * 8, 24, 100.0, 30.0);
  hw.initFromHistory({signal.data(), signal.size() - 24});
  // One-step forecasts over the held-out last season.
  for (std::size_t i = signal.size() - 24; i < signal.size(); ++i) {
    EXPECT_NEAR(hw.forecast(), signal[i], 3.0) << "at index " << i;
    hw.update(signal[i]);
  }
}

TEST(HoltWinters, TracksTrend) {
  HoltWintersForecaster hw({0.4, 0.2, 0.3}, {{12, 1.0}});
  const auto signal = seasonalSignal(12 * 10, 12, 50.0, 10.0, 0.5);
  hw.initFromHistory({signal.data(), signal.size()});
  // Next value continues the trend.
  const double expected = 50.0 + 0.5 * static_cast<double>(signal.size());
  EXPECT_NEAR(hw.forecast(), expected, 4.0);
  EXPECT_GT(hw.trend(), 0.2);
}

TEST(HoltWinters, BootstrapNeedsTwoSeasons) {
  HoltWintersForecaster hw({0.5, 0.1, 0.3}, {{10, 1.0}});
  EXPECT_EQ(hw.bootstrapLength(), 20u);
  for (int i = 0; i < 19; ++i) hw.update(5.0);
  EXPECT_FALSE(hw.bootstrapped());
  hw.update(5.0);
  EXPECT_TRUE(hw.bootstrapped());
  EXPECT_NEAR(hw.forecast(), 5.0, 1e-6);
}

TEST(HoltWinters, WarmupForecastIsRunningMean) {
  HoltWintersForecaster hw({0.5, 0.1, 0.3}, {{100, 1.0}});
  EXPECT_DOUBLE_EQ(hw.forecast(), 0.0);
  hw.update(10.0);
  hw.update(20.0);
  EXPECT_DOUBLE_EQ(hw.forecast(), 15.0);
}

TEST(HoltWinters, NoSeasonDegeneratesToHolt) {
  HoltWintersForecaster hw({0.5, 0.3, 0.3}, {});
  const std::vector<double> ramp{1, 2, 3, 4, 5, 6, 7, 8};
  hw.initFromHistory(ramp);
  EXPECT_NEAR(hw.forecast(), 9.0, 0.5);
}

TEST(HoltWinters, DualSeasonCombination) {
  // Signal with a short and a long season; the combined model should beat
  // either single-season model on held-out data.
  const std::size_t shortP = 8, longP = 56;
  std::vector<double> signal;
  for (std::size_t i = 0; i < longP * 6; ++i) {
    signal.push_back(
        100.0 +
        20.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(i % shortP) / shortP) +
        10.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(i % longP) / longP));
  }
  auto evaluate = [&](std::vector<SeasonSpec> seasons) {
    HoltWintersForecaster hw({0.2, 0.02, 0.3}, std::move(seasons));
    const std::size_t holdout = longP;
    hw.initFromHistory({signal.data(), signal.size() - holdout});
    double sq = 0.0;
    for (std::size_t i = signal.size() - holdout; i < signal.size(); ++i) {
      const double e = hw.forecast() - signal[i];
      sq += e * e;
      hw.update(signal[i]);
    }
    return sq;
  };
  const double dual = evaluate({{shortP, 0.67}, {longP, 0.33}});
  const double onlyShort = evaluate({{shortP, 1.0}});
  EXPECT_LT(dual, onlyShort);
}

TEST(HoltWinters, SeasonalCursorAccessor) {
  HoltWintersForecaster hw({0.5, 0.1, 0.3}, {{4, 1.0}});
  const std::vector<double> two{1, 2, 3, 4, 1, 2, 3, 4};
  hw.initFromHistory(two);
  // Seasonal indices repeat with period 4; deviations around the mean 2.5.
  EXPECT_NEAR(hw.seasonal(0, 0), -1.5, 1e-9);  // next unit is phase "1"
  EXPECT_NEAR(hw.seasonal(0, 1), -0.5, 1e-9);
  EXPECT_NEAR(hw.seasonal(0, 2), 0.5, 1e-9);
  EXPECT_NEAR(hw.seasonal(0, 3), 1.5, 1e-9);
}

// ---- Lemma 2: linearity ----

class HwLinearityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HwLinearityTest, MergeEqualsForecastOfSum) {
  Rng rng(GetParam());
  const std::size_t period = 6;
  const std::size_t n = period * 8;
  std::vector<double> xs(n), ys(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(0.0, 50.0);
    ys[i] = rng.uniform(0.0, 50.0);
    sum[i] = xs[i] + ys[i];
  }
  const HoltWintersParams params{0.5, 0.1, 0.3};
  HoltWintersForecaster fx(params, {{period, 1.0}});
  HoltWintersForecaster fy(params, {{period, 1.0}});
  HoltWintersForecaster fsum(params, {{period, 1.0}});
  fx.initFromHistory(xs);
  fy.initFromHistory(ys);
  fsum.initFromHistory(sum);

  HoltWintersForecaster merged = fx;
  merged.addScaled(fy, 1.0);
  EXPECT_NEAR(merged.forecast(), fsum.forecast(), 1e-8);

  // The equality persists through further joint updates.
  for (int step = 0; step < 20; ++step) {
    const double vx = rng.uniform(0.0, 50.0);
    const double vy = rng.uniform(0.0, 50.0);
    merged.update(vx + vy);
    fsum.update(vx + vy);
    EXPECT_NEAR(merged.forecast(), fsum.forecast(), 1e-8);
  }
}

TEST_P(HwLinearityTest, ScaleEqualsForecastOfScaled) {
  Rng rng(GetParam() ^ 0xabcdULL);
  const std::size_t period = 5;
  std::vector<double> xs(period * 7);
  for (auto& v : xs) v = rng.uniform(0.0, 100.0);
  const double ratio = rng.uniform(0.1, 0.9);
  std::vector<double> scaled(xs);
  for (auto& v : scaled) v *= ratio;

  const HoltWintersParams params{0.4, 0.15, 0.25};
  HoltWintersForecaster full(params, {{period, 1.0}});
  HoltWintersForecaster ref(params, {{period, 1.0}});
  full.initFromHistory(xs);
  ref.initFromHistory(scaled);
  HoltWintersForecaster split = full;
  split.scale(ratio);
  EXPECT_NEAR(split.forecast(), ref.forecast(), 1e-8);
}

TEST_P(HwLinearityTest, MergeAlignsDifferentBootstrapPhases) {
  // Two models bootstrapped at different absolute times must still merge
  // with correct seasonal-phase alignment.
  Rng rng(GetParam() ^ 0x9999ULL);
  const std::size_t period = 4;
  const HoltWintersParams params{0.5, 0.1, 0.3};
  const std::size_t n = period * 10;
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(0.0, 10.0);
    ys[i] = rng.uniform(0.0, 10.0);
  }

  HoltWintersForecaster fx(params, {{period, 1.0}});
  fx.initFromHistory(xs);

  // fy bootstraps 3 units later in absolute time (drop the first 3).
  HoltWintersForecaster fy(params, {{period, 1.0}});
  fy.initFromHistory({ys.data() + 3, n - 3});

  HoltWintersForecaster fsum(params, {{period, 1.0}});
  // Reference: model of the sum, bootstrapped like fx then updated; not
  // exactly equal because fy saw a shorter history, but the *seasonal
  // phase* must line up: check by updating both with a pure seasonal
  // signal and verifying convergence instead of divergence.
  HoltWintersForecaster merged = fx;
  merged.addScaled(fy, 1.0);
  std::vector<double> joint(n);
  for (std::size_t i = 0; i < n; ++i) joint[i] = xs[i] + ys[i];
  fsum.initFromHistory(joint);
  for (int step = 0; step < 60; ++step) {
    const double v = 10.0 + (step % period);
    merged.update(v);
    fsum.update(v);
  }
  EXPECT_NEAR(merged.forecast(), fsum.forecast(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwLinearityTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

/// A bootstrapped model with the given seasonal periods and cursors, every
/// seasonal slot holding a distinct value (built through loadState, the only
/// way to place a cursor directly).
HoltWintersForecaster seasonalState(const std::vector<std::size_t>& periods,
                                    const std::vector<std::size_t>& cursors,
                                    double step) {
  persist::Serializer s;
  s.u8(kHoltWintersStateTag);
  s.f64(0.5);
  s.f64(0.1);
  s.f64(0.3);
  s.u64(periods.size());
  for (std::size_t i = 0; i < periods.size(); ++i) {
    s.u64(periods[i]);
    s.f64(1.0 / static_cast<double>(periods.size()));
    s.u64(cursors[i]);
    for (std::size_t j = 0; j < periods[i]; ++j) {
      s.f64(step * static_cast<double>(100 * i + j + 1));
    }
  }
  s.f64(step);   // level
  s.f64(-step);  // trend
  s.boolean(true);
  s.u64(0);      // no warm-up values
  HoltWintersForecaster hw({0.5, 0.1, 0.3}, {});
  persist::Deserializer in(s.data());
  hw.loadState(in);
  return hw;
}

// addScaled walks each season as at most three contiguous runs, cut where
// either model's rotated buffer wraps. For every pair of cursors it must
// equal the per-slot formula dst[(cd + j) % p] + k·src[(cs + j) % p]
// exactly, with one season and with two of different periods.
TEST(HoltWinters, AddScaledMatchesPerSlotFormulaAtEveryAlignment) {
  for (const std::size_t p : {2, 3, 4, 5, 6, 7, 8, 9, 96}) {
    // Two seasons {p, p + 1}: (dc, sc) runs over every cursor pair of the
    // second season, and (dc mod p, (sc + 1) mod p) over every pair of the
    // first.
    const std::size_t q = p + 1;
    const std::vector<std::vector<std::size_t>> shapes{{p}, {p, q}};
    for (std::size_t dc = 0; dc < q; ++dc) {
      for (std::size_t sc = 0; sc < q; ++sc) {
        const std::vector<std::vector<std::size_t>> dstCursors{
            {dc % p}, {dc % p, dc}};
        const std::vector<std::vector<std::size_t>> srcCursors{
            {sc % p}, {(sc + 1) % p, sc}};
        for (std::size_t v = 0; v < shapes.size(); ++v) {
          const auto dst = seasonalState(shapes[v], dstCursors[v], 1.0 / 7.0);
          const auto src = seasonalState(shapes[v], srcCursors[v], 1.0 / 3.0);
          for (const double k : {1.0, -1.0}) {
            HoltWintersForecaster out = dst;
            out.addScaled(src, k);
            const std::string where =
                "period " + std::to_string(p) + " seasons " +
                std::to_string(shapes[v].size()) + " cursors " +
                std::to_string(dc) + "/" + std::to_string(sc) + " k " +
                std::to_string(k);
            ASSERT_EQ(out.level(), dst.level() + k * src.level()) << where;
            ASSERT_EQ(out.trend(), dst.trend() + k * src.trend()) << where;
            for (std::size_t i = 0; i < shapes[v].size(); ++i) {
              for (std::size_t lag = 0; lag < shapes[v][i]; ++lag) {
                ASSERT_EQ(out.seasonal(i, lag),
                          dst.seasonal(i, lag) + k * src.seasonal(i, lag))
                    << where << " season " << i << " lag " << lag;
              }
            }
          }
        }
      }
    }
  }
}

TEST(HoltWinters, RejectsBadParams) {
  EXPECT_DEATH(HoltWintersForecaster({0.0, 0.1, 0.1}, {}), "alpha");
  EXPECT_DEATH(HoltWintersForecaster({0.5, 1.5, 0.1}, {}), "beta");
  EXPECT_DEATH(HoltWintersForecaster({0.5, 0.1, -0.1}, {}), "gamma");
  EXPECT_DEATH(HoltWintersForecaster({0.5, 0.1, 0.1}, {{1, 1.0}}), "period");
}

}  // namespace
}  // namespace tiresias
