// Small IIR building blocks: RBJ biquads, one-pole smoothers, and a DC
// blocker. Used for de-emphasis, pilot extraction and audio shaping.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fmbs::dsp {

/// Normalized biquad coefficients (a0 == 1).
struct BiquadCoeffs {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// RBJ cookbook designs. frequency is normalized to the sample rate (0..0.5).
BiquadCoeffs biquad_lowpass(double frequency, double q);
BiquadCoeffs biquad_highpass(double frequency, double q);
BiquadCoeffs biquad_bandpass(double frequency, double q);
BiquadCoeffs biquad_notch(double frequency, double q);

/// Streaming transposed-direct-form-II biquad.
class Biquad {
 public:
  explicit Biquad(const BiquadCoeffs& c) : c_(c) {}

  float process_sample(float x) {
    const double y = c_.b0 * x + s1_;
    s1_ = c_.b1 * x - c_.a1 * y + s2_;
    s2_ = c_.b2 * x - c_.a2 * y;
    return static_cast<float>(y);
  }

  std::vector<float> process(std::span<const float> in);

  void reset() { s1_ = s2_ = 0.0; }

 private:
  BiquadCoeffs c_;
  double s1_ = 0.0, s2_ = 0.0;
};

/// Cascade of biquads (for steeper responses).
class BiquadCascade {
 public:
  explicit BiquadCascade(const std::vector<BiquadCoeffs>& sections);
  float process_sample(float x);
  std::vector<float> process(std::span<const float> in);

 private:
  std::vector<Biquad> sections_;
};

/// One-pole low-pass y[n] = y[n-1] + a (x[n] - y[n-1]). Used for envelope
/// smoothing and the FM de-emphasis RC network.
class OnePoleLowpass {
 public:
  /// Builds from a -3 dB corner frequency in Hz at the given sample rate.
  static OnePoleLowpass from_corner(double corner_hz, double sample_rate);

  explicit OnePoleLowpass(double alpha);

  float process_sample(float x) {
    state_ += alpha_ * (static_cast<double>(x) - state_);
    return static_cast<float>(state_);
  }

  std::vector<float> process(std::span<const float> in);

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double state_ = 0.0;
};

}  // namespace fmbs::dsp
