#include "dsp/fir.h"

#include <cmath>

#include "dsp/math_util.h"

namespace fmbs::dsp {

namespace {

void check_cutoff(double cutoff) {
  if (cutoff <= 0.0 || cutoff >= 0.5) {
    throw std::invalid_argument("fir design: cutoff must be in (0, 0.5)");
  }
}

std::vector<float> windowed_sinc(std::size_t num_taps, double cutoff,
                                 const std::vector<float>& window) {
  std::vector<float> taps(num_taps);
  const double center = (static_cast<double>(num_taps) - 1.0) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - center;
    const double v = 2.0 * cutoff * sinc(2.0 * cutoff * t) * window[i];
    taps[i] = static_cast<float>(v);
    sum += v;
  }
  // Normalize to exactly unity DC gain.
  for (auto& t : taps) t = static_cast<float>(t / sum);
  return taps;
}

}  // namespace

std::vector<float> fir_design_lowpass(std::size_t num_taps, double cutoff,
                                      WindowType window) {
  if (num_taps == 0) throw std::invalid_argument("fir design: num_taps must be > 0");
  check_cutoff(cutoff);
  return windowed_sinc(num_taps, cutoff, make_window(window, num_taps));
}

std::vector<float> fir_design_bandpass(std::size_t num_taps, double low,
                                       double high, WindowType window) {
  if (num_taps == 0) throw std::invalid_argument("fir design: num_taps must be > 0");
  if (!(0.0 < low && low < high && high < 0.5)) {
    throw std::invalid_argument("fir design: require 0 < low < high < 0.5");
  }
  const std::vector<float> w = make_window(window, num_taps);
  std::vector<float> taps(num_taps);
  const double center = (static_cast<double>(num_taps) - 1.0) / 2.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - center;
    const double v =
        (2.0 * high * sinc(2.0 * high * t) - 2.0 * low * sinc(2.0 * low * t)) * w[i];
    taps[i] = static_cast<float>(v);
  }
  // Normalize to unity gain at the band center.
  const double fc = (low + high) / 2.0;
  double re = 0.0;
  double im = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    re += taps[i] * std::cos(kTwoPi * fc * static_cast<double>(i));
    im += taps[i] * std::sin(kTwoPi * fc * static_cast<double>(i));
  }
  const double gain = std::sqrt(re * re + im * im);
  if (gain > 1e-12) {
    for (auto& t : taps) t = static_cast<float>(t / gain);
  }
  return taps;
}

std::vector<float> fir_design_kaiser_lowpass(double cutoff, double transition_width,
                                             double attenuation_db) {
  check_cutoff(cutoff);
  const double beta = kaiser_beta_for_attenuation(attenuation_db);
  std::size_t num_taps = kaiser_order_for(attenuation_db, transition_width) + 1;
  if (num_taps % 2 == 0) ++num_taps;
  const std::vector<float> w = make_kaiser_window(num_taps, beta);
  return windowed_sinc(num_taps, cutoff, w);
}

}  // namespace fmbs::dsp
