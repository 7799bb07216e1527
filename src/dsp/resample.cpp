#include "dsp/resample.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "dsp/fir.h"

namespace fmbs::dsp {

rvec upsample_linear(std::span<const float> in, std::size_t factor) {
  if (factor == 0) throw std::invalid_argument("upsample_linear: factor must be >= 1");
  if (in.empty() || factor == 1) return rvec(in.begin(), in.end());
  rvec out((in.size() - 1) * factor + 1);
  for (std::size_t i = 0; i + 1 < in.size(); ++i) {
    const float a = in[i];
    const float b = in[i + 1];
    for (std::size_t k = 0; k < factor; ++k) {
      const float frac = static_cast<float>(k) / static_cast<float>(factor);
      out[i * factor + k] = a + (b - a) * frac;
    }
  }
  out.back() = in.back();
  return out;
}

rvec downsample_keep(std::span<const float> in, std::size_t factor) {
  if (factor == 0) throw std::invalid_argument("downsample_keep: factor must be >= 1");
  rvec out;
  out.reserve(in.size() / factor + 1);
  for (std::size_t i = 0; i < in.size(); i += factor) out.push_back(in[i]);
  return out;
}

rvec resample_rational(std::span<const float> in, std::size_t up, std::size_t down,
                       std::size_t taps_per_phase) {
  if (up == 0 || down == 0) {
    throw std::invalid_argument("resample_rational: factors must be >= 1");
  }
  const std::size_t g = std::gcd(up, down);
  up /= g;
  down /= g;
  if (up == 1 && down == 1) return rvec(in.begin(), in.end());

  // Single prototype low-pass at min(1/(2L), 1/(2M)) of the upsampled rate.
  const double cutoff = 0.5 / static_cast<double>(std::max(up, down)) * 0.9;
  const std::size_t num_taps = taps_per_phase * std::max(up, down) | 1U;
  std::vector<float> proto = fir_design_lowpass(num_taps, cutoff);

  FirInterpolator<float> interp(proto, up);
  rvec high = interp.process(in);
  if (down == 1) return high;
  // Pad so the decimator sees a multiple of `down`.
  const std::size_t rem = high.size() % down;
  if (rem != 0) high.resize(high.size() + (down - rem), 0.0F);
  if (up == 1) {
    // Need an anti-alias filter before plain decimation.
    FirDecimator<float> dec(proto, down);
    return dec.process(high);
  }
  return downsample_keep(high, down);
}

}  // namespace fmbs::dsp
