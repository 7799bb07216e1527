// Small IIR building blocks: RBJ biquads and one-pole smoothers. Used for
// pilot extraction, envelope smoothing and audio shaping.
//
// Stage contract: each filter has one block method, process_inplace(span),
// next to its per-sample step. State carries across calls, so cutting a
// stream into calls of any size gives the same bytes as one call.
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

  void process_inplace(std::span<float> data) {
    for (float& v : data) v = process_sample(v);
  }

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
  void process_inplace(std::span<float> data) {
    for (float& v : data) v = process_sample(v);
  }

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

  void process_inplace(std::span<float> data) {
    for (float& v : data) v = process_sample(v);
  }

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double state_ = 0.0;
};

}  // namespace fmbs::dsp
