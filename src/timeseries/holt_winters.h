// Additive Holt-Winters seasonal forecasting (§VI).
//
//   L[t] = α(T[t] − S̄[t−υ]) + (1−α)(L[t−1] + B[t−1])
//   B[t] = β(L[t] − L[t−1]) + (1−β)B[t−1]
//   Sᵢ[t] = γ(T[t] − L[t]) + (1−γ)Sᵢ[t−υᵢ]      for each season i
//   G[t] = L[t−1] + B[t−1] + S̄[t−υ]
//
// where S̄ is the weighted combination of the configured seasonal cycles
// (the paper combines day and week as S = ξ·S_day + (1−ξ)·S_week with
// ξ = FFT_day / FFT_week = 0.76 for CCD). With a single season this is the
// textbook additive model of Brutlag [14].
//
// Initialization follows the paper's bootstrap: given at least two full
// cycles of the longest season, level is the history mean, trend is the
// difference of cycle means divided by the cycle length, and seasonal
// indices are deviations from the level averaged across cycles. All pieces
// are linear in the input series, which is what makes Lemma 2 (forecast
// linearity under series addition) hold — ADA's split/merge moves this
// state by scaling/adding it instead of refitting.
#pragma once

#include <vector>

#include "timeseries/forecaster.h"

namespace tiresias {

struct HoltWintersParams {
  double alpha = 0.5;  // level smoothing
  double beta = 0.1;   // trend smoothing
  double gamma = 0.3;  // seasonal smoothing
};

struct SeasonSpec {
  std::size_t period;  // in timeunits (e.g. 96 for a day of 15-min units)
  double weight;       // combination weight; weights should sum to 1
};

class HoltWintersForecaster final : public Forecaster {
 public:
  /// `seasons` may be empty, in which case the model degenerates to
  /// Holt's linear (level+trend) method.
  HoltWintersForecaster(HoltWintersParams params,
                        std::vector<SeasonSpec> seasons);

  double forecast() const override;
  void update(double actual) override;
  void initFromHistory(std::span<const double> history) override;
  void scale(double ratio) override;
  void addScaled(const Forecaster& other, double k) override;
  bool mergeableWith(const Forecaster& other) const override;
  void copyFrom(const Forecaster& other) override;
  void saveState(persist::Serializer& out) const override;
  void loadState(persist::Deserializer& in) override;

  bool bootstrapped() const { return bootstrapped_; }
  double level() const { return level_; }
  double trend() const { return trend_; }
  /// Seasonal index of season `i` at lag `lag`: lag 0 is the entry the
  /// next forecast reads (and the next update overwrites), lag j the one
  /// j units after it.
  double seasonal(std::size_t i, std::size_t lag) const;
  /// Minimum history needed for the closed-form bootstrap (2·max period,
  /// or 2 without seasons).
  std::size_t bootstrapLength() const;

 private:
  double combinedSeasonAhead() const;

  HoltWintersParams params_;
  std::vector<SeasonSpec> seasons_;
  // Per-season circular buffers of the last `period` seasonal indices;
  // cursor_[i] points at the slot that is `period` units old (the one the
  // next forecast reads and the next update overwrites).
  std::vector<std::vector<double>> seasonal_;
  std::vector<std::size_t> cursor_;
  double level_ = 0.0;
  double trend_ = 0.0;
  bool bootstrapped_ = false;
  // Warm-up buffer used until enough history arrives for the bootstrap.
  std::vector<double> warmup_;
};

class HoltWintersFactory final : public ForecasterFactory {
 public:
  HoltWintersFactory(HoltWintersParams params, std::vector<SeasonSpec> seasons)
      : params_(params), seasons_(std::move(seasons)) {}

  std::unique_ptr<Forecaster> make() const override {
    return std::make_unique<HoltWintersForecaster>(params_, seasons_);
  }

 private:
  HoltWintersParams params_;
  std::vector<SeasonSpec> seasons_;
};

}  // namespace tiresias
