#include "dsp/fft.h"

#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("FftPlan: size must be a power of two");
  bit_reverse_.resize(n);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    }
    bit_reverse_[i] = r;
  }
  twiddles_.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    twiddles_[k] = cfloat(static_cast<float>(std::cos(angle)),
                          static_cast<float>(std::sin(angle)));
  }
}

void FftPlan::transform(std::span<cfloat> data, bool invert) const {
  if (data.size() != n_) throw std::invalid_argument("FftPlan: size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n_ / len;
    for (std::size_t start = 0; start < n_; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        cfloat w = twiddles_[k * stride];
        if (invert) w = std::conj(w);
        const cfloat a = data[start + k];
        const cfloat b = data[start + k + half] * w;
        data[start + k] = a + b;
        data[start + k + half] = a - b;
      }
    }
  }
  if (invert) {
    const float scale = 1.0F / static_cast<float>(n_);
    for (auto& v : data) v *= scale;
  }
}

void FftPlan::forward(std::span<cfloat> data) const { transform(data, false); }
void FftPlan::inverse(std::span<cfloat> data) const { transform(data, true); }

cvec fft(std::span<const cfloat> input) {
  cvec data(input.begin(), input.end());
  data.resize(next_pow2(data.size()));
  FftPlan plan(data.size());
  plan.forward(data);
  return data;
}

}  // namespace fmbs::dsp
