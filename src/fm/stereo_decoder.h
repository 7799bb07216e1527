// Pilot-gated FM stereo decoder. Mirrors a real receiver chip's behaviour,
// which the paper's stereo and cooperative techniques depend on:
//  * the 19 kHz pilot is detected against the local noise floor; with no (or
//    buried) pilot the receiver falls back to mono — this is why stereo
//    backscatter "requires a higher power to detect the 19 kHz pilot" and
//    why the tag can force stereo mode by injecting its own pilot,
//  * in stereo mode the 38 kHz carrier is regenerated from the pilot and the
//    DSB-SC (L-R) subband is synchronously demodulated,
//  * receivers output only L and R — never the L-R stream — so the stereo
//    data path must re-derive (L-R)/2 from (L,R), exactly as the paper does.
#pragma once

#include <span>

#include "audio/audio_buffer.h"
#include "core/units.h"
#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::fm {

/// Pilot detection: required power ratio of the 19 kHz bin over the
/// adjacent noise bins. Below this the decoder stays in mono mode.
inline constexpr units::Db kPilotDetectThreshold{16.0};

/// Stereo decoding options. The decoder undoes the transmitter's
/// kProgramLevel.
struct StereoDecoderConfig {
  double mpx_rate = kMpxRate;
  double audio_rate = kAudioRate;
  /// Force mono decoding regardless of pilot (car radios in mono mode, and
  /// the paper's mono-only experiments).
  bool force_mono = false;
  /// Apply 75 us de-emphasis to the decoded audio.
  bool deemphasis = false;
};

/// Decoded audio plus receiver state.
struct StereoDecodeResult {
  audio::StereoBuffer audio;    // L/R at audio_rate (duplicated if mono mode)
  bool pilot_detected = false;  // receiver ran in stereo mode
  double pilot_snr_db = 0.0;    // measured pilot-to-adjacent-noise ratio
};

/// One-shot decode of a composite MPX buffer.
StereoDecodeResult decode_stereo(std::span<const float> mpx,
                                 const StereoDecoderConfig& config);

}  // namespace fmbs::fm
