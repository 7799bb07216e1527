// Window functions for FIR design and spectral analysis.
#pragma once

#include <cstddef>
#include <vector>

namespace fmbs::dsp {

/// Supported window shapes.
enum class WindowType {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
  kBlackmanHarris,
};

/// Returns an n-point symmetric window of the given type.
/// Throws std::invalid_argument for n == 0.
std::vector<float> make_window(WindowType type, std::size_t n);

/// Returns an n-point Kaiser window with shape parameter beta.
std::vector<float> make_kaiser_window(std::size_t n, double beta);

/// Kaiser beta for a target stopband attenuation in dB (Kaiser's formula).
double kaiser_beta_for_attenuation(double attenuation_db);

/// Estimated Kaiser FIR order for attenuation (dB) and normalized transition
/// width (fraction of the sample rate). Result is always >= 1.
std::size_t kaiser_order_for(double attenuation_db, double transition_width);

/// Sum of squared window coefficients (noise gain numerator, for PSD scaling).
double window_sum_squares(const std::vector<float>& w);

}  // namespace fmbs::dsp
