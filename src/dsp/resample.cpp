#include "dsp/resample.h"

#include <stdexcept>

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

}  // namespace fmbs::dsp
