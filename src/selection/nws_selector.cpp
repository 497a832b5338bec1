#include "selection/nws_selector.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace larp::selection {

namespace {
template <typename Tracker>
std::size_t select_lowest(const std::vector<Tracker>& trackers) {
  // Before any feedback every tracker reads 0; argmin then returns label 0,
  // the documented cold-start fallback.
  std::vector<double> errors;
  errors.reserve(trackers.size());
  for (const auto& t : trackers) errors.push_back(t.value());
  return argmin_label(errors);
}

void require_matching(std::size_t forecasts, std::size_t tracked) {
  if (forecasts != tracked) {
    throw InvalidArgument("NWS selector: forecast count does not match pool size");
  }
}
}  // namespace

CumulativeMseSelector::CumulativeMseSelector(std::size_t pool_size)
    : trackers_(pool_size) {
  if (pool_size == 0) {
    throw InvalidArgument("CumulativeMseSelector: empty pool");
  }
}

void CumulativeMseSelector::reset() {
  for (auto& t : trackers_) t.reset();
}

std::size_t CumulativeMseSelector::select(std::span<const double> /*window*/) {
  return select_lowest(trackers_);
}

void CumulativeMseSelector::record(std::span<const double> forecasts,
                                   double actual) {
  require_matching(forecasts.size(), trackers_.size());
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    trackers_[i].add(forecasts[i], actual);
  }
}

std::unique_ptr<Selector> CumulativeMseSelector::clone() const {
  return std::make_unique<CumulativeMseSelector>(*this);
}

std::vector<double> CumulativeMseSelector::errors() const {
  std::vector<double> out;
  out.reserve(trackers_.size());
  for (const auto& t : trackers_) out.push_back(t.value());
  return out;
}

EwmaMseSelector::EwmaMseSelector(std::size_t pool_size, double decay)
    : decay_(decay), weighted_sq_(pool_size, 0.0), seen_(pool_size, false) {
  if (pool_size == 0) throw InvalidArgument("EwmaMseSelector: empty pool");
  if (!(decay > 0.0) || decay >= 1.0) {
    throw InvalidArgument("EwmaMseSelector: decay must be in (0, 1)");
  }
}

std::string EwmaMseSelector::name() const {
  return "EWMA-MSE(" + std::to_string(decay_) + ")";
}

void EwmaMseSelector::reset() {
  std::fill(weighted_sq_.begin(), weighted_sq_.end(), 0.0);
  std::fill(seen_.begin(), seen_.end(), false);
}

std::size_t EwmaMseSelector::select(std::span<const double> /*window*/) {
  // Argmin over SCORED members only (see seen_): before any feedback every
  // tracker reads 0.0, and an unseen member must not win on that phantom
  // zero once real errors exist.  A non-finite score is skipped as
  // argmin_label skips it: a NaN never compares less-than, so a NaN `best`
  // would otherwise win every later step.  Cold start (nothing seen or
  // nothing finite) keeps the documented label-0 fallback.
  std::size_t best = weighted_sq_.size();
  for (std::size_t i = 0; i < weighted_sq_.size(); ++i) {
    if (!seen_[i] || !std::isfinite(weighted_sq_[i])) continue;
    if (best == weighted_sq_.size() || weighted_sq_[i] < weighted_sq_[best]) {
      best = i;
    }
  }
  return best == weighted_sq_.size() ? 0 : best;
}

void EwmaMseSelector::record(std::span<const double> forecasts, double actual) {
  require_matching(forecasts.size(), weighted_sq_.size());
  for (std::size_t i = 0; i < weighted_sq_.size(); ++i) {
    const double err = forecasts[i] - actual;
    weighted_sq_[i] = decay_ * weighted_sq_[i] + (1.0 - decay_) * err * err;
    seen_[i] = true;
  }
}

std::unique_ptr<Selector> EwmaMseSelector::clone() const {
  return std::make_unique<EwmaMseSelector>(*this);
}

std::vector<double> EwmaMseSelector::errors() const { return weighted_sq_; }

WindowedCumMseSelector::WindowedCumMseSelector(std::size_t pool_size,
                                               std::size_t window)
    : error_window_(window), trackers_(pool_size, stats::WindowedMse(window)) {
  if (pool_size == 0) {
    throw InvalidArgument("WindowedCumMseSelector: empty pool");
  }
}

std::string WindowedCumMseSelector::name() const {
  return "W-Cum.MSE(" + std::to_string(error_window_) + ")";
}

void WindowedCumMseSelector::reset() {
  for (auto& t : trackers_) t.reset();
}

std::size_t WindowedCumMseSelector::select(std::span<const double> /*window*/) {
  return select_lowest(trackers_);
}

void WindowedCumMseSelector::record(std::span<const double> forecasts,
                                    double actual) {
  require_matching(forecasts.size(), trackers_.size());
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    trackers_[i].add(forecasts[i], actual);
  }
}

std::unique_ptr<Selector> WindowedCumMseSelector::clone() const {
  return std::make_unique<WindowedCumMseSelector>(*this);
}

std::vector<double> WindowedCumMseSelector::errors() const {
  std::vector<double> out;
  out.reserve(trackers_.size());
  for (const auto& t : trackers_) out.push_back(t.value());
  return out;
}

}  // namespace larp::selection
