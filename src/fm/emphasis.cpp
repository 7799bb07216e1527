#include "fm/emphasis.h"

#include <cmath>
#include <stdexcept>

namespace fmbs::fm {

namespace {
double alpha_for(double tau_seconds, double sample_rate) {
  if (tau_seconds <= 0.0 || sample_rate <= 0.0) {
    throw std::invalid_argument("emphasis: tau and rate must be > 0");
  }
  return 1.0 - std::exp(-1.0 / (tau_seconds * sample_rate));
}
}  // namespace

DeEmphasis::DeEmphasis(units::Seconds tau, double sample_rate)
    : alpha_(alpha_for(tau.raw(), sample_rate)) {}

float DeEmphasis::process_sample(float x) {
  state_ += alpha_ * (static_cast<double>(x) - state_);
  return static_cast<float>(state_);
}

void DeEmphasis::process_inplace(std::span<float> data) {
  for (float& v : data) v = process_sample(v);
}

PreEmphasis::PreEmphasis(units::Seconds tau, double sample_rate)
    : alpha_(alpha_for(tau.raw(), sample_rate)) {}

float PreEmphasis::process_sample(float x) {
  // Invert y[n] = y[n-1] + alpha (x[n] - y[n-1]):
  //   x[n] = (y[n] - (1-alpha) y[n-1]) / alpha, with roles swapped so this
  // filter undoes DeEmphasis when cascaded.
  const double y =
      (static_cast<double>(x) - (1.0 - alpha_) * prev_in_) / alpha_;
  prev_in_ = x;
  prev_out_ = y;
  return static_cast<float>(y);
}

void PreEmphasis::process_inplace(std::span<float> data) {
  for (float& v : data) v = process_sample(v);
}

}  // namespace fmbs::fm
