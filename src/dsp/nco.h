// Numerically controlled oscillators and complex frequency mixing. The tag's
// FM subcarrier, the FM modulator and Oscillator are built on
// PhaseAccumulator; Mixer, behind station offsets, tuners and RDS
// downconversion, is a DDS with a 64-bit phase word of its own.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "dsp/math_util.h"
#include "dsp/types.h"

namespace fmbs::dsp {

/// Double-precision phase accumulator wrapping to [0, 2 pi). Double phase is
/// required: at 2.4 MHz sample rate a float accumulator drifts audibly within
/// a fraction of a second.
class PhaseAccumulator {
 public:
  explicit PhaseAccumulator(double initial_phase = 0.0) : phase_(initial_phase) {}

  /// Current phase in radians.
  double phase() const { return phase_; }

  /// Advances by `delta` radians and returns the phase *before* the advance.
  ///
  /// The wrap is phase - kTwoPi * floor(phase / kTwoPi) (or + kTwoPi *
  /// ceil(-phase / kTwoPi) below zero), but the common one-turn wraps skip
  /// the division: on [kTwoPi, 2 kTwoPi) the floor is exactly 1 and on
  /// [-kTwoPi, -2^-1000] the ceil is exactly 1 (closer to zero the quotient
  /// can underflow to a ceil of 0), so subtracting or adding kTwoPi gives the
  /// formula's double.
  double advance(double delta) {
    const double current = phase_;
    phase_ += delta;
    if (phase_ >= kTwoPi) {
      phase_ -= phase_ < 2.0 * kTwoPi ? kTwoPi
                                      : kTwoPi * std::floor(phase_ / kTwoPi);
    }
    if (phase_ < 0.0) {
      phase_ += phase_ >= -kTwoPi && phase_ <= -0x1p-1000
                    ? kTwoPi
                    : kTwoPi * std::ceil(-phase_ / kTwoPi);
    }
    return current;
  }

 private:
  double phase_;
};

/// Fixed-frequency oscillator producing real or complex samples.
class Oscillator {
 public:
  /// frequency may be negative (complex conjugate rotation).
  Oscillator(double frequency_hz, double sample_rate, double initial_phase = 0.0);

  /// Next complex sample e^{j phase}.
  cfloat next_complex() {
    const double ph = acc_.advance(step_);
    return cfloat(static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph)));
  }

  /// Next real sample cos(phase).
  float next_real() {
    return static_cast<float>(std::cos(acc_.advance(step_)));
  }

  /// Generates n complex samples.
  cvec block_complex(std::size_t n);

  /// Generates n real cosine samples.
  rvec block_real(std::size_t n);

 private:
  double step_;
  PhaseAccumulator acc_;
};

/// Streaming complex mixer: multiplies a block by e^{j 2 pi f t}, keeping
/// phase continuity across blocks. Negative f shifts the spectrum down.
///
/// A direct digital synthesizer. The phase is an unsigned 64-bit word
/// (cycles x 2^64) that wraps mod 2 pi exactly; a call of n samples advances
/// it with one multiply-add. One libm cos/sin pair re-seeds a double rotator
/// from that word every kReseedInterval samples; in between, the seed steps
/// by e^{j kSpan w} per kSpan samples and each sample multiplies it by an
/// entry of a kSpan-long phasor table. Both boundaries sit on the absolute
/// sample index, so output sample n is a pure function of n and the input,
/// bit for bit, however the stream is cut into calls.
class Mixer {
 public:
  Mixer(double frequency_hz, double sample_rate, double initial_phase = 0.0);

  /// Mixes in place: the mixer's one block method.
  void process_inplace(std::span<cfloat> data);

 private:
  static constexpr std::size_t kSpan = 16;
  static constexpr std::size_t kReseedInterval = 1024;

  std::uint64_t step_;       // phase increment per sample, cycles x 2^64
  std::uint64_t phase_;      // phase word of sample index_
  std::uint64_t index_ = 0;  // absolute index of the next sample
  double seed_re_ = 1.0;     // rotator at the start of index_'s span
  double seed_im_ = 0.0;
  double jump_re_ = 1.0;  // e^{j kSpan w}
  double jump_im_ = 0.0;
  std::array<double, kSpan> table_re_{};  // e^{j k w}, k < kSpan
  std::array<double, kSpan> table_im_{};
};

}  // namespace fmbs::dsp
