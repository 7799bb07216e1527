// Cross-correlation and delay estimation. Cooperative backscatter aligns the
// two phones' audio streams with exactly this machinery (paper section 3.3).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fmbs::dsp {

/// Direct cross-correlation r[k] = sum_n a[n] b[n+k] for k in
/// [-max_lag, +max_lag]. Returns 2*max_lag+1 values; index max_lag is lag 0.
std::vector<double> cross_correlate(std::span<const float> a,
                                    std::span<const float> b,
                                    std::size_t max_lag);

/// Result of delay estimation between two signals.
struct DelayEstimate {
  /// Samples by which `b` must be advanced to align with `a` (may be
  /// negative).
  double delay_samples = 0.0;
  /// Normalized peak correlation in [0, 1]; low values mean unreliable
  /// alignment.
  double peak_correlation = 0.0;
};

/// Estimates the delay of b relative to a by peak-picking the cross
/// correlation over [-max_lag, max_lag], with parabolic interpolation for
/// sub-sample resolution.
DelayEstimate estimate_delay(std::span<const float> a, std::span<const float> b,
                             std::size_t max_lag);

/// Shifts a signal by an integer number of samples (positive = delay),
/// zero-filling the exposed edge. Output length matches the input.
std::vector<float> shift_signal(std::span<const float> x, long shift);

}  // namespace fmbs::dsp
