// Goertzel single-bin DFT: the power detector behind the paper's
// non-coherent FSK receiver ("compares the received power on the two
// frequencies and outputs the frequency that has the higher power").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fmbs::dsp {

/// Power of a real signal at one frequency (Hz) via the Goertzel recurrence.
/// Returns |X(f)|^2 normalized by N^2 so a unit-amplitude sinusoid at f
/// measures ~0.25 regardless of block length.
double goertzel_power(std::span<const float> block, double frequency_hz,
                      double sample_rate);

/// Precomputed Goertzel detector bank for a fixed tone set. With AVX2 it
/// walks the block once for all tones (simd::avx2::goertzel), otherwise once
/// per tone; both give goertzel_power's bits.
class GoertzelBank {
 public:
  /// tones are in Hz; sample_rate in Hz. Throws if a tone is outside
  /// (0, sample_rate/2).
  GoertzelBank(const std::vector<double>& tones_hz, double sample_rate);

  /// Powers of each tone over the block (normalized as goertzel_power).
  std::vector<double> powers(std::span<const float> block) const;

  /// Index of the strongest tone over the block.
  std::size_t detect(std::span<const float> block) const;

 private:
  std::vector<double> coeffs_;  // 2 cos(2 pi f / fs)
};

}  // namespace fmbs::dsp
