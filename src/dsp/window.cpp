#include "dsp/window.h"

#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::dsp {

namespace {

// Modified Bessel function of the first kind, order zero (series expansion).
double bessel_i0(double x) {
  double sum = 1.0;
  double term = 1.0;
  const double half_x = x / 2.0;
  for (int k = 1; k < 64; ++k) {
    term *= (half_x / k) * (half_x / k);
    sum += term;
    if (term < 1e-16 * sum) break;
  }
  return sum;
}

}  // namespace

std::vector<float> make_window(WindowType type, std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_window: n must be > 0");
  std::vector<float> w(n);
  if (n == 1) {
    w[0] = 1.0F;
    return w;
  }
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / denom;  // 0..1
    double v = 1.0;
    switch (type) {
      case WindowType::kRectangular:
        v = 1.0;
        break;
      case WindowType::kHann:
        v = 0.5 - 0.5 * std::cos(kTwoPi * x);
        break;
      case WindowType::kHamming:
        v = 0.54 - 0.46 * std::cos(kTwoPi * x);
        break;
      case WindowType::kBlackman:
        v = 0.42 - 0.5 * std::cos(kTwoPi * x) + 0.08 * std::cos(2 * kTwoPi * x);
        break;
      case WindowType::kBlackmanHarris:
        v = 0.35875 - 0.48829 * std::cos(kTwoPi * x) +
            0.14128 * std::cos(2 * kTwoPi * x) -
            0.01168 * std::cos(3 * kTwoPi * x);
        break;
    }
    w[i] = static_cast<float>(v);
  }
  return w;
}

std::vector<float> make_kaiser_window(std::size_t n, double beta) {
  if (n == 0) throw std::invalid_argument("make_kaiser_window: n must be > 0");
  std::vector<float> w(n);
  if (n == 1) {
    w[0] = 1.0F;
    return w;
  }
  const double denom = bessel_i0(beta);
  const double half = static_cast<double>(n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = (static_cast<double>(i) - half) / half;
    w[i] = static_cast<float>(bessel_i0(beta * std::sqrt(1.0 - r * r)) / denom);
  }
  return w;
}

double kaiser_beta_for_attenuation(double attenuation_db) {
  if (attenuation_db > 50.0) return 0.1102 * (attenuation_db - 8.7);
  if (attenuation_db >= 21.0) {
    return 0.5842 * std::pow(attenuation_db - 21.0, 0.4) +
           0.07886 * (attenuation_db - 21.0);
  }
  return 0.0;
}

std::size_t kaiser_order_for(double attenuation_db, double transition_width) {
  if (transition_width <= 0.0) {
    throw std::invalid_argument("kaiser_order_for: transition width <= 0");
  }
  const double order = (attenuation_db - 7.95) / (2.285 * kTwoPi * transition_width);
  return order < 1.0 ? 1 : static_cast<std::size_t>(std::ceil(order));
}

double window_sum_squares(const std::vector<float>& w) {
  double s = 0.0;
  for (const float v : w) s += static_cast<double>(v) * v;
  return s;
}

}  // namespace fmbs::dsp
