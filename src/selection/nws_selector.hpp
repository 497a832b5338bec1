// The Network Weather Service predictor-selection baselines (paper §2).
//
// NWS runs every pool member in parallel, tracks each member's prediction
// error against the realized measurements, and forecasts with the member
// whose error statistic is currently lowest:
//   * CumulativeMseSelector — MSE over ALL history ("Cum.MSE" in Fig. 6);
//   * WindowedCumMseSelector — MSE over the last `window` errors only
//     ("W-Cum.MSE"; the paper uses window = 2).
// Before any feedback both fall back to label 0 (LAST in the paper pool).
#pragma once

#include <vector>

#include "selection/selector.hpp"
#include "util/stats.hpp"

namespace larp::selection {

class CumulativeMseSelector final : public Selector {
 public:
  /// `pool_size` members are tracked; labels are 0..pool_size-1.
  explicit CumulativeMseSelector(std::size_t pool_size);

  [[nodiscard]] std::string name() const override { return "Cum.MSE"; }
  void reset() override;
  [[nodiscard]] std::size_t select(std::span<const double> window) override;
  void record(std::span<const double> forecasts, double actual) override;
  [[nodiscard]] std::unique_ptr<Selector> clone() const override;

  /// Current cumulative MSE of each member (diagnostics / tests).
  [[nodiscard]] std::vector<double> errors() const;

 private:
  std::vector<stats::RunningMse> trackers_;
};

/// Exponentially-weighted MSE selection: the continuum between the two NWS
/// variants above — recent errors dominate but all history contributes with
/// geometrically decaying weight (extension member; ablated alongside the
/// paper baselines).  decay -> 1 approaches Cum.MSE, decay -> 0 approaches
/// W-Cum.MSE(1).
class EwmaMseSelector final : public Selector {
 public:
  /// decay in (0, 1): the per-step weight multiplier on old errors.
  EwmaMseSelector(std::size_t pool_size, double decay);

  [[nodiscard]] std::string name() const override;
  void reset() override;
  /// Unscored members are excluded from the argmin: an unseen tracker reads
  /// 0.0 and would otherwise beat every member with real (nonzero) error.
  /// Members whose score is non-finite (a NaN forecast was recorded) are
  /// excluded too.  Falls back to label 0 while no member has a finite
  /// score.
  [[nodiscard]] std::size_t select(std::span<const double> window) override;
  void record(std::span<const double> forecasts, double actual) override;
  [[nodiscard]] std::unique_ptr<Selector> clone() const override;

  [[nodiscard]] std::vector<double> errors() const;

 private:
  double decay_;
  std::vector<double> weighted_sq_;  // exponentially weighted squared errors
  std::vector<bool> seen_;           // members with at least one scored error
};

class WindowedCumMseSelector final : public Selector {
 public:
  /// Tracks the last `window` squared errors per member (paper: window = 2).
  WindowedCumMseSelector(std::size_t pool_size, std::size_t window);

  [[nodiscard]] std::string name() const override;
  void reset() override;
  [[nodiscard]] std::size_t select(std::span<const double> window) override;
  void record(std::span<const double> forecasts, double actual) override;
  [[nodiscard]] std::unique_ptr<Selector> clone() const override;

  [[nodiscard]] std::vector<double> errors() const;

 private:
  std::size_t error_window_;
  std::vector<stats::WindowedMse> trackers_;
};

}  // namespace larp::selection
