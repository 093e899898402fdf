#include "timeseries/ewma.h"

#include "common/expect.h"

namespace tiresias {

EwmaForecaster::EwmaForecaster(double alpha) : alpha_(alpha) {
  TIRESIAS_EXPECT(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0,1]");
}

void EwmaForecaster::update(double actual) {
  if (!seeded_) {
    value_ = actual;
    seeded_ = true;
    return;
  }
  value_ = alpha_ * actual + (1.0 - alpha_) * value_;
}

void EwmaForecaster::initFromHistory(std::span<const double> history) {
  seeded_ = false;
  value_ = 0.0;
  for (double v : history) update(v);
}

bool EwmaForecaster::mergeableWith(const Forecaster& other) const {
  const auto* o = dynamic_cast<const EwmaForecaster*>(&other);
  return o != nullptr && o->alpha_ == alpha_;
}

void EwmaForecaster::addScaled(const Forecaster& other, double k) {
  TIRESIAS_EXPECT(mergeableWith(other),
                  "EWMA merge requires an EWMA source with matching alpha");
  const auto& o = static_cast<const EwmaForecaster&>(other);
  value_ += k * o.value_;
  seeded_ = seeded_ || o.seeded_;
}

void EwmaForecaster::copyFrom(const Forecaster& other) {
  const auto* o = dynamic_cast<const EwmaForecaster*>(&other);
  TIRESIAS_EXPECT(o != nullptr, "EWMA copy requires an EWMA source");
  *this = *o;
}

void EwmaForecaster::saveState(persist::Serializer& out) const {
  out.u8(kEwmaStateTag);
  out.f64(alpha_);
  out.f64(value_);
  out.boolean(seeded_);
}

void EwmaForecaster::loadState(persist::Deserializer& in) {
  persist::Deserializer::require(in.u8() == kEwmaStateTag,
                                 "snapshot holds a different forecaster type");
  const double alpha = in.f64();
  persist::Deserializer::require(alpha > 0.0 && alpha <= 1.0,
                                 "EWMA snapshot: alpha out of range");
  alpha_ = alpha;
  value_ = in.f64();
  seeded_ = in.boolean();
}

}  // namespace tiresias
