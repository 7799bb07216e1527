// FM modulator: implements paper Eq. 1 at complex baseband —
//   FM_RF(t) = cos(2 pi fc t + 2 pi df Int FM_audio) -> e^{j 2 pi df Int mpx}.
// The carrier placement (fc) is applied later by the RF scene's mixer.
#pragma once

#include <span>

#include "core/units.h"
#include "dsp/nco.h"
#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::fm {

/// Streaming FM modulator at a fixed sample rate. Input MPX samples are
/// expected in [-1, 1]; full scale maps to +-deviation.
class FmModulator {
 public:
  FmModulator(units::Hertz deviation, double sample_rate);

  units::Hertz deviation() const { return units::Hertz{deviation_hz_}; }

  /// Modulates a block of composite baseband into unit-amplitude IQ.
  dsp::cvec process(std::span<const float> mpx);

  /// Modulates into a caller-provided buffer of mpx.size() samples.
  void process_into(std::span<const float> mpx, std::span<dsp::cfloat> out);

 private:
  double deviation_hz_;
  double sample_rate_;
  dsp::PhaseAccumulator phase_;
};

}  // namespace fmbs::fm
