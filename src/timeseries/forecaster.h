// Forecasting model interface.
//
// A Forecaster predicts the next timeunit's value from the values it has
// been fed so far. ADA moves forecaster state through the hierarchy, so the
// interface exposes the two linear operations the adaptation relies on:
// scale(r) (series split with ratio r) and addScaled(other, k) (series
// merge with k = 1, reference correction with k = −1). For the additive
// Holt-Winters model these are exact (Lemma 2); for EWMA they are exact as
// well (the forecast is a linear functional of history).
#pragma once

#include <memory>
#include <span>

#include "persist/snapshot.h"

namespace tiresias {

/// Leading type tags of serialized forecaster state: loadState() on a
/// mismatched dynamic type must fail with a clean SnapshotError, not
/// misinterpret bytes.
inline constexpr std::uint8_t kEwmaStateTag = 1;
inline constexpr std::uint8_t kHoltWintersStateTag = 2;

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Prediction for the next value to be observed (F[t] in Definition 4).
  virtual double forecast() const = 0;

  /// Feed the observed value for the current timeunit and advance.
  virtual void update(double actual) = 0;

  /// Initialize/refit from a full history window, oldest first. Equivalent
  /// to feeding the history to a fresh instance, but implementations may use
  /// their closed-form bootstrap (Holt-Winters' 2υ initialization).
  virtual void initFromHistory(std::span<const double> history) = 0;

  /// Multiply the internal state by `ratio` (split).
  virtual void scale(double ratio) = 0;

  /// Add `k` times another forecaster's state into this one: k = 1 merges,
  /// k = −1 subtracts (bit-identical to x − y in IEEE-754). Requires
  /// mergeableWith(other).
  virtual void addScaled(const Forecaster& other, double k) = 0;

  /// True if addScaled(other, k) is defined: same dynamic type and the same
  /// shape (EWMA alpha; Holt-Winters periods and warm-up progress).
  virtual bool mergeableWith(const Forecaster& other) const = 0;

  /// Overwrite this forecaster's whole state with `other`'s, reusing this
  /// object's storage. The dynamic types must match.
  virtual void copyFrom(const Forecaster& other) = 0;

  /// Snapshot the full model state, prefixed with the type tag above.
  virtual void saveState(persist::Serializer& out) const = 0;
  /// Restore state saved by the same dynamic type (shape parameters are
  /// overwritten from the snapshot). Throws persist::SnapshotError on a
  /// type-tag mismatch or malformed input.
  virtual void loadState(persist::Deserializer& in) = 0;
};

/// Creates fresh forecasters for newly promoted heavy hitters.
class ForecasterFactory {
 public:
  virtual ~ForecasterFactory() = default;
  virtual std::unique_ptr<Forecaster> make() const = 0;
};

}  // namespace tiresias
