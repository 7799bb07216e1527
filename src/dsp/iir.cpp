#include "dsp/iir.h"

#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::dsp {

namespace {
void check_frequency(double f) {
  if (f <= 0.0 || f >= 0.5) {
    throw std::invalid_argument("biquad design: frequency must be in (0, 0.5)");
  }
}

struct RbjIntermediate {
  double w0, cw, sw, alpha;
};

RbjIntermediate rbj(double frequency, double q) {
  check_frequency(frequency);
  if (q <= 0.0) throw std::invalid_argument("biquad design: q must be > 0");
  RbjIntermediate r{};
  r.w0 = kTwoPi * frequency;
  r.cw = std::cos(r.w0);
  r.sw = std::sin(r.w0);
  r.alpha = r.sw / (2.0 * q);
  return r;
}

BiquadCoeffs normalize(double b0, double b1, double b2, double a0, double a1,
                       double a2) {
  return {b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0};
}
}  // namespace

BiquadCoeffs biquad_lowpass(double frequency, double q) {
  const auto r = rbj(frequency, q);
  const double b1 = 1.0 - r.cw;
  return normalize(b1 / 2.0, b1, b1 / 2.0, 1.0 + r.alpha, -2.0 * r.cw,
                   1.0 - r.alpha);
}

BiquadCoeffs biquad_highpass(double frequency, double q) {
  const auto r = rbj(frequency, q);
  const double b = 1.0 + r.cw;
  return normalize(b / 2.0, -b, b / 2.0, 1.0 + r.alpha, -2.0 * r.cw,
                   1.0 - r.alpha);
}

BiquadCoeffs biquad_bandpass(double frequency, double q) {
  const auto r = rbj(frequency, q);
  return normalize(r.alpha, 0.0, -r.alpha, 1.0 + r.alpha, -2.0 * r.cw,
                   1.0 - r.alpha);
}

BiquadCoeffs biquad_notch(double frequency, double q) {
  const auto r = rbj(frequency, q);
  return normalize(1.0, -2.0 * r.cw, 1.0, 1.0 + r.alpha, -2.0 * r.cw,
                   1.0 - r.alpha);
}

std::vector<float> Biquad::process(std::span<const float> in) {
  std::vector<float> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process_sample(in[i]);
  return out;
}

BiquadCascade::BiquadCascade(const std::vector<BiquadCoeffs>& sections) {
  if (sections.empty()) {
    throw std::invalid_argument("BiquadCascade: need at least one section");
  }
  sections_.reserve(sections.size());
  for (const auto& c : sections) sections_.emplace_back(c);
}

float BiquadCascade::process_sample(float x) {
  for (auto& s : sections_) x = s.process_sample(x);
  return x;
}

std::vector<float> BiquadCascade::process(std::span<const float> in) {
  std::vector<float> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process_sample(in[i]);
  return out;
}

OnePoleLowpass OnePoleLowpass::from_corner(double corner_hz,
                                           double sample_rate) {
  if (corner_hz <= 0.0 || sample_rate <= 0.0) {
    throw std::invalid_argument("OnePoleLowpass: corner and rate must be > 0");
  }
  // Exact discretization of the RC network with tau = 1 / (2 pi f_c):
  // alpha = 1 - exp(-T/tau).
  const double tau_seconds = 1.0 / (kTwoPi * corner_hz);
  const double alpha = 1.0 - std::exp(-1.0 / (sample_rate * tau_seconds));
  return OnePoleLowpass(alpha);
}

OnePoleLowpass::OnePoleLowpass(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("OnePoleLowpass: alpha must be in (0, 1]");
  }
}

std::vector<float> OnePoleLowpass::process(std::span<const float> in) {
  std::vector<float> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process_sample(in[i]);
  return out;
}

}  // namespace fmbs::dsp
