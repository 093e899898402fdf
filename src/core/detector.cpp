#include "core/detector.h"

#include <limits>

#include "common/expect.h"

namespace tiresias {

Detector::Detector(const Hierarchy& hierarchy, DetectorConfig config)
    : hierarchy_(hierarchy), config_(std::move(config)) {
  TIRESIAS_EXPECT(config_.windowLength >= 2, "window length must be >= 2");
  if (!config_.workspace) {
    config_.workspace = std::make_shared<DetectWorkspace>();
  }
  config_.workspace->bind(hierarchy_.size());
}

const ForecasterFactory& Detector::factory() const {
  TIRESIAS_EXPECT(config_.forecasterFactory != nullptr,
                  "forecaster factory is required once the window is full");
  return *config_.forecasterFactory;
}

bool isAnomalous(double actual, double forecast, double ratioThreshold,
                 double diffThreshold) {
  if (actual - forecast <= diffThreshold) return false;
  if (forecast <= 0.0) return actual > 0.0;
  return actual / forecast > ratioThreshold;
}

double anomalyRatio(double actual, double forecast) {
  if (forecast <= 0.0) {
    return actual > 0.0 ? std::numeric_limits<double>::max() : 0.0;
  }
  return actual / forecast;
}

}  // namespace tiresias
