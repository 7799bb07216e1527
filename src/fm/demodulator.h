// FM demodulator: quadrature (polar) discriminator. This is the software
// equivalent of the derivative + divide decoding described in paper
// section 3.2 ("in practice FM receiver circuits implement these decoding
// steps using phase-locked loop circuits") — the discriminator recovers
// d(phase)/dt, which is the composite baseband scaled by the deviation.
#pragma once

#include <span>

#include "core/units.h"
#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::fm {

/// Streaming quadrature discriminator. Output is normalized so that a
/// transmitter deviation of `deviation` yields unit-amplitude MPX.
class QuadratureDemodulator {
 public:
  QuadratureDemodulator(units::Hertz deviation, double sample_rate);

  /// Demodulates a block of IQ into composite baseband samples.
  dsp::rvec process(std::span<const dsp::cfloat> iq);

 private:
  double gain_;
  dsp::cfloat prev_{1.0F, 0.0F};
};

}  // namespace fmbs::fm
