// FM pre-emphasis / de-emphasis (75 us RC network, 50 us variant supported).
// Broadcast FM boosts treble before modulation and the receiver cuts it
// back, which also cuts the triangular FM noise spectrum.
#pragma once

#include <span>
#include <vector>

#include "core/units.h"

namespace fmbs::fm {

/// First-order de-emphasis: H(z) matching the RC low-pass 1/(1 + s tau).
class DeEmphasis {
 public:
  DeEmphasis(units::Seconds tau, double sample_rate);
  float process_sample(float x);
  std::vector<float> process(std::span<const float> in);

 private:
  double alpha_;
  double state_ = 0.0;
};

/// First-order pre-emphasis: the inverse of DeEmphasis (up to the sampling
/// approximation), implemented as a one-zero/one-pole shelf.
class PreEmphasis {
 public:
  PreEmphasis(units::Seconds tau, double sample_rate);
  float process_sample(float x);
  std::vector<float> process(std::span<const float> in);

 private:
  double alpha_;
  double prev_in_ = 0.0;
  double prev_out_ = 0.0;
};

}  // namespace fmbs::fm
