#include "fm/demodulator.h"

#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::fm {

QuadratureDemodulator::QuadratureDemodulator(units::Hertz deviation,
                                             double sample_rate) {
  if (deviation.raw() <= 0.0 || sample_rate <= 0.0) {
    throw std::invalid_argument("QuadratureDemodulator: bad parameters");
  }
  gain_ = sample_rate / (dsp::kTwoPi * deviation.raw());
}

dsp::rvec QuadratureDemodulator::process(std::span<const dsp::cfloat> iq) {
  dsp::rvec out(iq.size());
  dsp::cfloat prev = prev_;
  const auto g = static_cast<float>(gain_);
  for (std::size_t i = 0; i < iq.size(); ++i) {
    const dsp::cfloat cur = iq[i];
    // arg(cur * conj(prev)) = instantaneous phase increment.
    const dsp::cfloat d = cur * std::conj(prev);
    out[i] = g * std::atan2(d.imag(), d.real());
    prev = cur;
  }
  prev_ = prev;
  return out;
}

}  // namespace fmbs::fm
