#include "dsp/correlate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmbs::dsp {

std::vector<double> cross_correlate(std::span<const float> a,
                                    std::span<const float> b,
                                    std::size_t max_lag) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("cross_correlate: empty input");
  }
  std::vector<double> r(2 * max_lag + 1, 0.0);
  const auto la = static_cast<long>(a.size());
  const auto lb = static_cast<long>(b.size());
  for (long k = -static_cast<long>(max_lag); k <= static_cast<long>(max_lag); ++k) {
    double acc = 0.0;
    const long n_begin = std::max(0L, -k);
    const long n_end = std::min(la, lb - k);
    for (long n = n_begin; n < n_end; ++n) {
      acc += static_cast<double>(a[static_cast<std::size_t>(n)]) *
             static_cast<double>(b[static_cast<std::size_t>(n + k)]);
    }
    r[static_cast<std::size_t>(k + static_cast<long>(max_lag))] = acc;
  }
  return r;
}

DelayEstimate estimate_delay(std::span<const float> a, std::span<const float> b,
                             std::size_t max_lag) {
  const std::vector<double> r = cross_correlate(a, b, max_lag);
  const auto it = std::max_element(r.begin(), r.end(),
                                   [](double x, double y) {
                                     return std::abs(x) < std::abs(y);
                                   });
  const auto peak_idx = static_cast<std::size_t>(it - r.begin());
  double delay = static_cast<double>(peak_idx) - static_cast<double>(max_lag);

  // Parabolic interpolation around the peak for sub-sample resolution.
  if (peak_idx > 0 && peak_idx + 1 < r.size()) {
    const double y0 = r[peak_idx - 1];
    const double y1 = r[peak_idx];
    const double y2 = r[peak_idx + 1];
    const double denom = y0 - 2.0 * y1 + y2;
    if (std::abs(denom) > 1e-12) {
      delay += 0.5 * (y0 - y2) / denom;
    }
  }

  double ea = 0.0, eb = 0.0;
  for (const float v : a) ea += static_cast<double>(v) * v;
  for (const float v : b) eb += static_cast<double>(v) * v;
  const double norm = std::sqrt(ea * eb);
  DelayEstimate est;
  est.delay_samples = delay;
  est.peak_correlation = norm > 0.0 ? std::abs(*it) / norm : 0.0;
  return est;
}

std::vector<float> shift_signal(std::span<const float> x, long shift) {
  std::vector<float> out(x.size(), 0.0F);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long j = static_cast<long>(i) - shift;
    if (j >= 0 && j < static_cast<long>(x.size())) {
      out[i] = x[static_cast<std::size_t>(j)];
    }
  }
  return out;
}

}  // namespace fmbs::dsp
