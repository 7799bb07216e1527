#include "dsp/goertzel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::dsp {

namespace {
double goertzel_with_coeff(std::span<const float> block, double coeff) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;
  for (const float x : block) {
    s0 = static_cast<double>(x) + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  const double power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
  const double n = static_cast<double>(block.size());
  return n > 0.0 ? power / (n * n) : 0.0;
}
}  // namespace

double goertzel_power(std::span<const float> block, double frequency_hz,
                      double sample_rate) {
  if (sample_rate <= 0.0) throw std::invalid_argument("goertzel: bad sample rate");
  if (frequency_hz <= 0.0 || frequency_hz >= sample_rate / 2.0) {
    throw std::invalid_argument("goertzel: frequency outside (0, fs/2)");
  }
  const double coeff = 2.0 * std::cos(kTwoPi * frequency_hz / sample_rate);
  return goertzel_with_coeff(block, coeff);
}

GoertzelBank::GoertzelBank(const std::vector<double>& tones_hz,
                           double sample_rate) {
  if (tones_hz.empty()) throw std::invalid_argument("GoertzelBank: no tones");
  if (sample_rate <= 0.0) throw std::invalid_argument("GoertzelBank: bad rate");
  coeffs_.reserve(tones_hz.size());
  for (const double f : tones_hz) {
    if (f <= 0.0 || f >= sample_rate / 2.0) {
      throw std::invalid_argument("GoertzelBank: tone outside (0, fs/2)");
    }
    coeffs_.push_back(2.0 * std::cos(kTwoPi * f / sample_rate));
  }
}

std::vector<double> GoertzelBank::powers(std::span<const float> block) const {
  std::vector<double> out(coeffs_.size());
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    out[i] = goertzel_with_coeff(block, coeffs_[i]);
  }
  return out;
}

std::size_t GoertzelBank::detect(std::span<const float> block) const {
  const std::vector<double> p = powers(block);
  return static_cast<std::size_t>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

}  // namespace fmbs::dsp
