#include "fm/modulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"
#include "dsp/simd.h"

namespace fmbs::fm {

FmModulator::FmModulator(units::Hertz deviation, double sample_rate)
    : deviation_hz_(deviation.raw()), sample_rate_(sample_rate) {
  if (!(deviation_hz_ > 0.0) || !(sample_rate > 0.0)) {
    throw std::invalid_argument("FmModulator: deviation and rate must be > 0");
  }
  if (deviation_hz_ >= sample_rate / 2.0) {
    throw std::invalid_argument("FmModulator: deviation exceeds Nyquist");
  }
}

dsp::cvec FmModulator::process(std::span<const float> mpx) {
  dsp::cvec out(mpx.size());
  process_into(mpx, out);
  return out;
}

void FmModulator::process_into(std::span<const float> mpx,
                               std::span<dsp::cfloat> out) {
  if (out.size() != mpx.size()) {
    throw std::invalid_argument("FmModulator: size mismatch");
  }
  const double k = dsp::kTwoPi * deviation_hz_ / sample_rate_;
#if FMBS_SIMD_ENABLED
  if (dsp::simd::avx2_available()) {
    // The serial phase chain runs first, a chunk at a time; the vector
    // cos/sin then gives each phase libm's float bits (simd.h).
    constexpr std::size_t kChunk = 256;
    double phases[kChunk];
    for (std::size_t at = 0; at < mpx.size(); at += kChunk) {
      const std::size_t n = std::min(kChunk, mpx.size() - at);
      for (std::size_t i = 0; i < n; ++i) {
        phases[i] = phase_.advance(k * static_cast<double>(mpx[at + i]));
      }
      dsp::simd::avx2::cos_sin(phases, n,
                               reinterpret_cast<float*>(out.data() + at));
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < mpx.size(); ++i) {
    const double ph = phase_.advance(k * static_cast<double>(mpx[i]));
    out[i] = dsp::cfloat(static_cast<float>(std::cos(ph)),
                         static_cast<float>(std::sin(ph)));
  }
}

}  // namespace fmbs::fm
