#include "audio/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/correlate.h"
#include "dsp/math_util.h"

namespace fmbs::audio {

double snr_db(std::span<const float> reference, std::span<const float> test) {
  const std::size_t n = std::min(reference.size(), test.size());
  if (n == 0) throw std::invalid_argument("snr_db: empty input");
  double sig = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = reference[i];
    const double e = static_cast<double>(test[i]) - r;
    sig += r * r;
    noise += e * e;
  }
  if (noise <= 0.0) return 120.0;  // numerically identical
  return dsp::db_from_power_ratio(sig / noise);
}

AlignedPair align_and_scale(std::span<const float> reference,
                            std::span<const float> test, std::size_t max_lag) {
  if (reference.empty() || test.empty()) {
    throw std::invalid_argument("align_and_scale: empty input");
  }
  const dsp::DelayEstimate est = dsp::estimate_delay(reference, test, max_lag);
  const long shift = std::lround(est.delay_samples);

  AlignedPair out;
  out.delay_samples = est.delay_samples;
  // test must be advanced by `delay` to align: test_aligned[i] = test[i+shift].
  const long start_t = std::max(0L, shift);
  const long start_r = std::max(0L, -shift);
  const long len = std::min(static_cast<long>(test.size()) - start_t,
                            static_cast<long>(reference.size()) - start_r);
  if (len <= 0) throw std::invalid_argument("align_and_scale: no overlap");

  out.reference.assign(reference.begin() + start_r, reference.begin() + start_r + len);
  out.test.assign(test.begin() + start_t, test.begin() + start_t + len);

  // Least-squares gain: g = <ref, test> / <test, test>.
  double num = 0.0, den = 0.0;
  for (long i = 0; i < len; ++i) {
    num += static_cast<double>(out.reference[static_cast<std::size_t>(i)]) *
           out.test[static_cast<std::size_t>(i)];
    den += static_cast<double>(out.test[static_cast<std::size_t>(i)]) *
           out.test[static_cast<std::size_t>(i)];
  }
  out.gain = den > 1e-20 ? num / den : 1.0;
  for (auto& v : out.test) v = static_cast<float>(v * out.gain);
  return out;
}

}  // namespace fmbs::audio
