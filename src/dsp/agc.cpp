#include "dsp/agc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmbs::dsp {

namespace {
double smoothing_alpha(double seconds, double sample_rate) {
  if (seconds <= 0.0) return 1.0;
  return 1.0 - std::exp(-1.0 / (seconds * sample_rate));
}
}  // namespace

Agc::Agc(const Config& config, double sample_rate)
    : cfg_(config),
      attack_alpha_(smoothing_alpha(config.attack_seconds, sample_rate)),
      release_alpha_(smoothing_alpha(config.release_seconds, sample_rate)) {
  if (sample_rate <= 0.0) throw std::invalid_argument("Agc: bad sample rate");
  if (config.target_rms <= 0.0) throw std::invalid_argument("Agc: bad target");
}

float Agc::process_sample(float x) {
  const double inst = static_cast<double>(x) * x;
  // Attack when the envelope is rising (signal got louder -> reduce gain
  // quickly), release when falling.
  const double alpha = inst > envelope_ ? attack_alpha_ : release_alpha_;
  envelope_ += alpha * (inst - envelope_);
  const double rms = std::sqrt(std::max(envelope_, 1e-20));
  gain_ = std::clamp(cfg_.target_rms / rms, cfg_.min_gain, cfg_.max_gain);
  return static_cast<float>(static_cast<double>(x) * gain_);
}

void Agc::process_inplace(std::span<float> data) {
  for (float& v : data) v = process_sample(v);
}

void Agc::reset() {
  envelope_ = 0.0;
  gain_ = 1.0;
}

}  // namespace fmbs::dsp
