#include "dsp/nco.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "dsp/simd.h"

namespace fmbs::dsp {

Oscillator::Oscillator(double frequency_hz, double sample_rate,
                       double initial_phase)
    : step_(kTwoPi * frequency_hz / sample_rate),
      acc_(initial_phase) {
  if (sample_rate <= 0.0) throw std::invalid_argument("Oscillator: bad sample rate");
}

cvec Oscillator::block_complex(std::size_t n) {
  cvec out(n);
  for (auto& v : out) v = next_complex();
  return out;
}

rvec Oscillator::block_real(std::size_t n) {
  rvec out(n);
  for (auto& v : out) v = next_real();
  return out;
}

namespace {

/// Radians per turn, and per unit of the 64-bit phase word.
constexpr long double kRadiansPerTurn = 2.0L * std::numbers::pi_v<long double>;
constexpr double kRadiansPerWord = kTwoPi * 0x1p-64;

/// Phase word of `cycles` turns, wrapped into [0, 1) turn and rounded to the
/// nearest 2^-64 turn. Long double keeps the step word's error far below one
/// unit where the platform has the extended type.
std::uint64_t phase_word(long double cycles) {
  if (!std::isfinite(cycles)) {
    throw std::invalid_argument("Mixer: non-finite frequency or phase");
  }
  cycles -= std::floor(cycles);
  const long double scaled = std::ldexp(cycles, 64) + 0.5L;
  return scaled >= 0x1p64L ? 0 : static_cast<std::uint64_t>(scaled);
}

std::uint64_t step_word(double frequency_hz, double sample_rate) {
  if (sample_rate <= 0.0) throw std::invalid_argument("Mixer: bad sample rate");
  return phase_word(static_cast<long double>(frequency_hz) / sample_rate);
}

/// e^{j angle(word)}, with the angle taken in [-pi, pi).
void phasor(std::uint64_t word, double& re, double& im) {
  const double angle =
      static_cast<double>(static_cast<std::int64_t>(word)) * kRadiansPerWord;
  re = std::cos(angle);
  im = std::sin(angle);
}

}  // namespace

Mixer::Mixer(double frequency_hz, double sample_rate, double initial_phase)
    : step_(step_word(frequency_hz, sample_rate)),
      phase_(phase_word(initial_phase / kRadiansPerTurn)) {
  for (std::size_t k = 0; k < kSpan; ++k) {
    phasor(k * step_, table_re_[k], table_im_[k]);
  }
  phasor(kSpan * step_, jump_re_, jump_im_);
}

void Mixer::process_inplace(std::span<cfloat> data) {
  // Interleaved re/im view of the block ([complex.numbers.general]).
  float* d = reinterpret_cast<float*>(data.data());
  const std::size_t n = data.size();
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t at = index_ + i;
    const std::size_t k0 = at % kSpan;
    if (k0 == 0) {
      if (at % kReseedInterval == 0) {
        phasor(phase_ + i * step_, seed_re_, seed_im_);
      } else {
        const double re = seed_re_ * jump_re_ - seed_im_ * jump_im_;
        seed_im_ = seed_re_ * jump_im_ + seed_im_ * jump_re_;
        seed_re_ = re;
      }
    }
    const std::size_t len = std::min(kSpan - k0, n - i);
    const double sr = seed_re_;
    const double si = seed_im_;
    const double* tre = table_re_.data() + k0;
    const double* tim = table_im_.data() + k0;
    float* v = d + 2 * i;
    std::size_t k = 0;
#if FMBS_SIMD_ENABLED
    if (simd::avx2_available()) {  // the loop below, byte for byte
      k = len & ~std::size_t{3};
      simd::avx2::mix_cx(v, k, sr, si, tre, tim);
    }
#endif
    // Plain real arithmetic, the same rounding as std::complex's product on
    // finite values without its NaN-recovery branch, so it vectorizes.
    for (; k < len; ++k) {
      const auto cr = static_cast<float>(sr * tre[k] - si * tim[k]);
      const auto ci = static_cast<float>(sr * tim[k] + si * tre[k]);
      const float xr = v[2 * k];
      const float xi = v[2 * k + 1];
      v[2 * k] = xr * cr - xi * ci;
      v[2 * k + 1] = xr * ci + xi * cr;
    }
    i += len;
  }
  index_ += n;
  phase_ += n * step_;
}

}  // namespace fmbs::dsp
