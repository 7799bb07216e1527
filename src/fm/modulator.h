// FM modulator: implements paper Eq. 1 at complex baseband —
//   FM_RF(t) = cos(2 pi fc t + 2 pi df Int FM_audio) -> e^{j 2 pi df Int mpx}.
// The carrier placement (fc) is applied later by the RF scene's mixer. The
// RF scene keeps one modulator per station and streams the station's MPX
// through it sub-block by sub-block: the phase accumulator is serial, so the
// result is bit-identical to modulating the whole render at once.
#pragma once

#include <span>

#include "core/units.h"
#include "dsp/nco.h"
#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::fm {

/// Streaming FM modulator at a fixed sample rate. Input MPX samples are
/// expected in [-1, 1]; full scale maps to +-deviation. The deviation must be
/// in (0, sample_rate / 2); NaN is rejected.
class FmModulator {
 public:
  FmModulator(units::Hertz deviation, double sample_rate);

  /// Modulates a block of composite baseband into a caller-provided buffer
  /// of mpx.size() unit-amplitude IQ samples: the one block method.
  void process_into(std::span<const float> mpx, std::span<dsp::cfloat> out);

  // Stays for perfbench until ROADMAP item 1b; nothing else calls it.
  dsp::cvec process(std::span<const float> mpx);

 private:
  double deviation_hz_;
  double sample_rate_;
  dsp::PhaseAccumulator phase_;
};

}  // namespace fmbs::fm
