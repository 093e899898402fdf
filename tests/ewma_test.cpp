// Unit tests for the EWMA forecaster, including the linearity relied on by
// ADA's split/merge and the Fig 9 bias-decay behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "timeseries/ewma.h"

namespace tiresias {
namespace {

TEST(Ewma, RecursionMatchesPaperForm) {
  // F[t] = alpha*T[t-1] + (1-alpha)*F[t-1]
  EwmaForecaster f(0.5);
  f.update(10.0);                 // seeds F = 10
  EXPECT_DOUBLE_EQ(f.forecast(), 10.0);
  f.update(20.0);
  EXPECT_DOUBLE_EQ(f.forecast(), 15.0);
  f.update(0.0);
  EXPECT_DOUBLE_EQ(f.forecast(), 7.5);
}

TEST(Ewma, InitFromHistoryEqualsSequentialUpdates) {
  EwmaForecaster a(0.3), b(0.3);
  const std::vector<double> history{5, 9, 1, 7, 3};
  a.initFromHistory(history);
  for (double v : history) b.update(v);
  EXPECT_DOUBLE_EQ(a.forecast(), b.forecast());
}

TEST(Ewma, ScaleAndMergeAreLinear) {
  EwmaForecaster sum(0.4), x(0.4), y(0.4);
  const std::vector<double> xs{1, 4, 2, 8};
  const std::vector<double> ys{3, 0, 5, 1};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sum.update(xs[i] + ys[i]);
    x.update(xs[i]);
    y.update(ys[i]);
  }
  EwmaForecaster merged = x;
  merged.addScaled(y, 1.0);
  EXPECT_NEAR(merged.forecast(), sum.forecast(), 1e-12);

  EwmaForecaster scaled = sum;
  scaled.scale(0.25);
  EXPECT_NEAR(scaled.forecast(), sum.forecast() * 0.25, 1e-12);

  // k = -1 subtracts, bit for bit like x - y.
  EwmaForecaster diff(0.4);
  diff.copyFrom(sum);
  diff.addScaled(y, -1.0);
  EXPECT_EQ(diff.forecast(), sum.forecast() - y.forecast());
}

TEST(Ewma, SplitBiasDecaysExponentially) {
  // Equation (1)/(2) of the paper: a bias xi injected into F at time t
  // decays as (1-alpha)^k. With T[i] = 1 the unbiased forecast is 1.
  const double alpha = 0.5;
  const double xi = 1.0;  // bias = F[t] (the paper's "xi = F[t]" curve)
  EwmaForecaster unbiased(alpha), biased(alpha);
  for (int i = 0; i < 50; ++i) {
    unbiased.update(1.0);
    biased.update(1.0);
  }
  biased.scale((unbiased.forecast() + xi) / unbiased.forecast());
  double prevErr = std::abs(biased.forecast() - unbiased.forecast());
  for (int k = 1; k <= 10; ++k) {
    unbiased.update(1.0);
    biased.update(1.0);
    const double err = std::abs(biased.forecast() - unbiased.forecast());
    EXPECT_NEAR(err / prevErr, 1.0 - alpha, 1e-9);
    prevErr = err;
  }
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_DEATH(EwmaForecaster(0.0), "alpha");
  EXPECT_DEATH(EwmaForecaster(1.5), "alpha");
}

TEST(Ewma, MergeRequiresMatchingAlpha) {
  EwmaForecaster a(0.4), b(0.5);
  a.update(1);
  b.update(1);
  EXPECT_TRUE(a.mergeableWith(EwmaForecaster(0.4)));
  EXPECT_FALSE(a.mergeableWith(b));
  EXPECT_DEATH(a.addScaled(b, 1.0), "alpha");
}

}  // namespace
}  // namespace tiresias
