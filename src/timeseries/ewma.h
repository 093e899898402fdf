// Exponentially weighted moving average forecaster:
//   F[t] = α·T[t-1] + (1-α)·F[t-1]
// The paper uses EWMA both as the strawman forecast model in the split-error
// analysis (§V-B4, Fig 9) and as the per-scale forecast in the multi-scale
// series update (Fig 10).
#pragma once

#include "timeseries/forecaster.h"

namespace tiresias {

class EwmaForecaster final : public Forecaster {
 public:
  explicit EwmaForecaster(double alpha);

  double forecast() const override { return value_; }
  void update(double actual) override;
  void initFromHistory(std::span<const double> history) override;
  void scale(double ratio) override { value_ *= ratio; }
  void addScaled(const Forecaster& other, double k) override;
  bool mergeableWith(const Forecaster& other) const override;
  void copyFrom(const Forecaster& other) override;
  void saveState(persist::Serializer& out) const override;
  void loadState(persist::Deserializer& in) override;

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

class EwmaFactory final : public ForecasterFactory {
 public:
  explicit EwmaFactory(double alpha) : alpha_(alpha) {}
  std::unique_ptr<Forecaster> make() const override {
    return std::make_unique<EwmaForecaster>(alpha_);
  }

 private:
  double alpha_;
};

}  // namespace tiresias
