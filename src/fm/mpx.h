// Stereo multiplex (MPX) composition — the baseband signal of Fig. 3 in the
// paper: mono (L+R), 19 kHz pilot, DSB-SC (L-R) at 38 kHz, optional RDS
// at 57 kHz.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "audio/audio_buffer.h"
#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::fm {

/// MPX composition options. The program and pilot take kProgramLevel and
/// kPilotLevel of the deviation, and the MPX runs at kMpxRate.
struct MpxConfig {
  bool stereo = true;        // emit pilot + (L-R) subcarrier
  double rds_level = 0.0;    // 0 disables RDS injection (typical 0.03-0.06)
  /// Apply 75 us pre-emphasis to L/R before multiplexing.
  bool preemphasis = false;
};

/// Composes the FM composite baseband from stereo audio. Audio is resampled
/// from its own rate to kMpxRate internally (integer factor required).
/// `rds_bitstream`, when non-empty and rds_level > 0, is BPSK-modulated onto
/// the 57 kHz subcarrier (see rds.h for framing).
dsp::rvec compose_mpx(const audio::StereoBuffer& program, const MpxConfig& config,
                      std::span<const unsigned char> rds_bitstream = {});

}  // namespace fmbs::fm
