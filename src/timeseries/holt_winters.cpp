#include "timeseries/holt_winters.h"

#include <algorithm>

#include "common/expect.h"

namespace tiresias {

HoltWintersForecaster::HoltWintersForecaster(HoltWintersParams params,
                                             std::vector<SeasonSpec> seasons)
    : params_(params), seasons_(std::move(seasons)) {
  TIRESIAS_EXPECT(params_.alpha > 0.0 && params_.alpha <= 1.0,
                  "alpha must be in (0,1]");
  TIRESIAS_EXPECT(params_.beta >= 0.0 && params_.beta <= 1.0,
                  "beta must be in [0,1]");
  TIRESIAS_EXPECT(params_.gamma >= 0.0 && params_.gamma <= 1.0,
                  "gamma must be in [0,1]");
  for (const auto& s : seasons_) {
    TIRESIAS_EXPECT(s.period >= 2, "seasonal period must be at least 2");
    seasonal_.emplace_back(s.period, 0.0);
    cursor_.push_back(0);
  }
}

std::size_t HoltWintersForecaster::bootstrapLength() const {
  std::size_t maxPeriod = 1;
  for (const auto& s : seasons_) maxPeriod = std::max(maxPeriod, s.period);
  return 2 * maxPeriod;
}

double HoltWintersForecaster::combinedSeasonAhead() const {
  double s = 0.0;
  for (std::size_t i = 0; i < seasons_.size(); ++i) {
    s += seasons_[i].weight * seasonal_[i][cursor_[i]];
  }
  return s;
}

double HoltWintersForecaster::forecast() const {
  if (!bootstrapped_) {
    // Best effort during warm-up: running mean of what has been seen.
    if (warmup_.empty()) return 0.0;
    return warmupSum_ / static_cast<double>(warmup_.size());
  }
  return level_ + trend_ + combinedSeasonAhead();
}

void HoltWintersForecaster::update(double actual) {
  if (!bootstrapped_) {
    warmup_.push_back(actual);
    warmupSum_ += actual;
    if (warmup_.size() >= bootstrapLength()) {
      // Promote the warm-up buffer to a proper bootstrap.
      const std::vector<double> history = std::move(warmup_);
      warmup_.clear();
      initFromHistory(history);
    }
    return;
  }
  updateWith(actual, combinedSeasonAhead());
}

double HoltWintersForecaster::advance(double actual) {
  if (!bootstrapped_) return Forecaster::advance(actual);
  // The forecast and the update read the same seasonal term.
  const double season = combinedSeasonAhead();
  const double predicted = level_ + trend_ + season;
  updateWith(actual, season);
  return predicted;
}

void HoltWintersForecaster::updateWith(double actual, double seasonOld) {
  const double newLevel = params_.alpha * (actual - seasonOld) +
                          (1.0 - params_.alpha) * (level_ + trend_);
  trend_ =
      params_.beta * (newLevel - level_) + (1.0 - params_.beta) * trend_;
  for (std::size_t i = 0; i < seasons_.size(); ++i) {
    double& slot = seasonal_[i][cursor_[i]];
    slot = params_.gamma * (actual - newLevel) + (1.0 - params_.gamma) * slot;
    cursor_[i] = cursor_[i] + 1 == seasons_[i].period ? 0 : cursor_[i] + 1;
  }
  level_ = newLevel;
}

void HoltWintersForecaster::initFromHistory(std::span<const double> history) {
  // Reset.
  bootstrapped_ = false;
  warmup_.clear();
  warmupSum_ = 0.0;
  level_ = trend_ = 0.0;
  for (auto& s : seasonal_) std::fill(s.begin(), s.end(), 0.0);
  std::fill(cursor_.begin(), cursor_.end(), 0);

  const std::size_t window = bootstrapLength();
  if (history.size() < window) {
    // Not enough for the closed-form bootstrap; accumulate as warm-up.
    for (double v : history) update(v);
    return;
  }

  // Closed-form bootstrap on the first `window` points (two cycles of the
  // longest season), then replay the remainder through the recursions.
  double total = 0.0;
  for (std::size_t i = 0; i < window; ++i) total += history[i];
  level_ = total / static_cast<double>(window);

  const std::size_t half = window / 2;
  double first = 0.0, second = 0.0;
  for (std::size_t i = 0; i < half; ++i) first += history[i];
  for (std::size_t i = half; i < window; ++i) second += history[i];
  // Cycle means drift by `half` units between the two cycles.
  trend_ = (second - first) / static_cast<double>(half) /
           static_cast<double>(half);

  for (std::size_t i = 0; i < seasons_.size(); ++i) {
    const std::size_t p = seasons_[i].period;
    std::vector<double> sums(p, 0.0);
    std::vector<std::size_t> counts(p, 0);
    for (std::size_t k = 0; k < window; ++k) {
      sums[k % p] += history[k] - level_;
      ++counts[k % p];
    }
    for (std::size_t j = 0; j < p; ++j) {
      seasonal_[i][j] =
          counts[j] ? sums[j] / static_cast<double>(counts[j]) : 0.0;
    }
    // The next forecast must read S[window - p], whose slot is
    // window mod p.
    cursor_[i] = window % p;
  }
  bootstrapped_ = true;

  for (std::size_t k = window; k < history.size(); ++k) update(history[k]);
}

void HoltWintersForecaster::scale(double ratio) {
  level_ *= ratio;
  trend_ *= ratio;
  for (auto& season : seasonal_) {
    double* const v = season.data();
    const std::size_t p = season.size();
#pragma omp simd
    for (std::size_t j = 0; j < p; ++j) v[j] *= ratio;
  }
  for (double& v : warmup_) v *= ratio;
  refoldWarmupSum();
}

void HoltWintersForecaster::refoldWarmupSum() {
  warmupSum_ = 0.0;
  for (double v : warmup_) warmupSum_ += v;
}

bool HoltWintersForecaster::mergeableWith(const Forecaster& other) const {
  const auto* o = dynamic_cast<const HoltWintersForecaster*>(&other);
  if (o == nullptr || o->seasons_.size() != seasons_.size() ||
      o->bootstrapped_ != bootstrapped_ ||
      o->warmup_.size() != warmup_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < seasons_.size(); ++i) {
    if (o->seasons_[i].period != seasons_[i].period) return false;
  }
  return true;
}

void HoltWintersForecaster::addScaled(const Forecaster& other, double k) {
  TIRESIAS_EXPECT(mergeableWith(other),
                  "Holt-Winters merge requires matching seasons and "
                  "bootstrap state");
  const auto& o = static_cast<const HoltWintersForecaster&>(other);
  if (!bootstrapped_) {
    for (std::size_t i = 0; i < warmup_.size(); ++i) {
      warmup_[i] += k * o.warmup_[i];
    }
    refoldWarmupSum();
    return;
  }
  level_ += k * o.level_;
  trend_ += k * o.trend_;
  for (std::size_t i = 0; i < seasons_.size(); ++i) {
    // Align by lag: slot (cursor + j) mod p is the same absolute timeunit
    // in both models even if they bootstrapped at different times. Both
    // buffers are rotated independently, so lags 0..p-1 are contiguous on
    // each side until one of them wraps: at most three flat runs, each an
    // element-wise vectorizable loop with no division.
    const std::size_t p = seasons_[i].period;
    double* const dst = seasonal_[i].data();
    const double* const src = o.seasonal_[i].data();
    std::size_t d = cursor_[i];
    std::size_t s = o.cursor_[i];
    for (std::size_t j = 0; j < p;) {
      const std::size_t len = std::min({p - j, p - d, p - s});
      double* const out = dst + d;
      const double* const in = src + s;
#pragma omp simd
      for (std::size_t m = 0; m < len; ++m) out[m] += k * in[m];
      j += len;
      d = d + len == p ? 0 : d + len;
      s = s + len == p ? 0 : s + len;
    }
  }
}

void HoltWintersForecaster::copyFrom(const Forecaster& other) {
  const auto* o = dynamic_cast<const HoltWintersForecaster*>(&other);
  TIRESIAS_EXPECT(o != nullptr,
                  "Holt-Winters copy requires a Holt-Winters source");
  // Member-wise copy assignment: the vectors keep their capacity, so a
  // same-shape copy allocates nothing.
  *this = *o;
}

void HoltWintersForecaster::saveState(persist::Serializer& out) const {
  out.u8(kHoltWintersStateTag);
  out.f64(params_.alpha);
  out.f64(params_.beta);
  out.f64(params_.gamma);
  out.u64(seasons_.size());
  for (std::size_t i = 0; i < seasons_.size(); ++i) {
    out.u64(seasons_[i].period);
    out.f64(seasons_[i].weight);
    out.u64(cursor_[i]);
    out.f64s(seasonal_[i]);
  }
  out.f64(level_);
  out.f64(trend_);
  out.boolean(bootstrapped_);
  out.u64(warmup_.size());
  out.f64s(warmup_);
}

void HoltWintersForecaster::loadState(persist::Deserializer& in) {
  using persist::Deserializer;
  Deserializer::require(in.u8() == kHoltWintersStateTag,
                        "snapshot holds a different forecaster type");
  HoltWintersParams params;
  params.alpha = in.f64();
  params.beta = in.f64();
  params.gamma = in.f64();
  Deserializer::require(params.alpha > 0.0 && params.alpha <= 1.0,
                        "Holt-Winters snapshot: alpha out of range");
  Deserializer::require(params.beta >= 0.0 && params.beta <= 1.0,
                        "Holt-Winters snapshot: beta out of range");
  Deserializer::require(params.gamma >= 0.0 && params.gamma <= 1.0,
                        "Holt-Winters snapshot: gamma out of range");
  const std::size_t nSeasons = in.count(3 * sizeof(std::uint64_t));
  std::vector<SeasonSpec> seasons;
  std::vector<std::vector<double>> seasonal;
  std::vector<std::size_t> cursor;
  for (std::size_t i = 0; i < nSeasons; ++i) {
    SeasonSpec spec;
    spec.period = in.boundedCount(persist::kMaxUnbackedCount);
    Deserializer::require(spec.period >= 2,
                          "Holt-Winters snapshot: seasonal period < 2");
    spec.weight = in.f64();
    const std::size_t cur = in.u64();
    Deserializer::require(cur < spec.period,
                          "Holt-Winters snapshot: cursor out of range");
    Deserializer::require(spec.period <= in.remaining() / sizeof(double),
                          "Holt-Winters snapshot: seasonal array truncated");
    std::vector<double> indices(spec.period);
    in.f64s(indices);
    seasons.push_back(spec);
    seasonal.push_back(std::move(indices));
    cursor.push_back(cur);
  }
  const double level = in.f64();
  const double trend = in.f64();
  const bool bootstrapped = in.boolean();
  const std::size_t nWarmup = in.count(sizeof(double));
  std::vector<double> warmup(nWarmup);
  in.f64s(warmup);

  params_ = params;
  seasons_ = std::move(seasons);
  seasonal_ = std::move(seasonal);
  cursor_ = std::move(cursor);
  level_ = level;
  trend_ = trend;
  bootstrapped_ = bootstrapped;
  warmup_ = std::move(warmup);
  refoldWarmupSum();
}

double HoltWintersForecaster::seasonal(std::size_t i, std::size_t lag) const {
  TIRESIAS_EXPECT(i < seasons_.size(), "season index out of range");
  const std::size_t p = seasons_[i].period;
  return seasonal_[i][(cursor_[i] + lag) % p];
}

}  // namespace tiresias
