// Radix-2 iterative FFT with a cached-twiddle plan, plus convenience helpers
// for power spectra. Sizes must be powers of two; callers that need other
// sizes zero-pad (see next_pow2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace fmbs::dsp {

/// Smallest power of two >= n (n == 0 yields 1).
std::size_t next_pow2(std::size_t n);

/// True when n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// FFT execution plan for a fixed power-of-two size. Precomputes twiddle
/// factors and the bit-reversal permutation so repeated transforms of the
/// same size (filter banks, Welch PSD) avoid per-call trig.
class FftPlan {
 public:
  /// Builds a plan for transforms of length n (power of two, >= 1).
  /// Throws std::invalid_argument otherwise.
  explicit FftPlan(std::size_t n);

  /// Transform length.
  std::size_t size() const { return n_; }

  /// In-place forward DFT (no normalization).
  void forward(std::span<cfloat> data) const;

  /// In-place inverse DFT, normalized by 1/N so inverse(forward(x)) == x.
  void inverse(std::span<cfloat> data) const;

 private:
  void transform(std::span<cfloat> data, bool invert) const;

  std::size_t n_;
  std::vector<std::size_t> bit_reverse_;
  std::vector<cfloat> twiddles_;  // e^{-2 pi i k / n} for k < n/2
};

}  // namespace fmbs::dsp
