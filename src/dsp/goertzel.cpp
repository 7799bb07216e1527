#include "dsp/goertzel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"
#include "dsp/simd.h"

namespace fmbs::dsp {

namespace {
/// The normalized power from the recurrence's last two states over n samples.
double goertzel_close(double s1, double s2, double coeff, std::size_t n) {
  const double power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
  const double len = static_cast<double>(n);
  return len > 0.0 ? power / (len * len) : 0.0;
}

double goertzel_with_coeff(std::span<const float> block, double coeff) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;
  for (const float x : block) {
    s0 = static_cast<double>(x) + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  return goertzel_close(s1, s2, coeff, block.size());
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
  const std::size_t n = coeffs_.size();
#if FMBS_SIMD_ENABLED
  if (simd::avx2_available()) {
    // The same recurrences, across tones. The s2 states land past the
    // first n so that a call allocates once, as the scalar loop does: a
    // second vector per call raised city_stream's peak RSS by 1 MiB.
    std::vector<double> out(2 * n);
    simd::avx2::goertzel(block.data(), block.size(), coeffs_.data(), n,
                         out.data(), out.data() + n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = goertzel_close(out[i], out[n + i], coeffs_[i], block.size());
    }
    out.resize(n);
    return out;
  }
#endif
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
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
