// FM receiver output record: what the "any FM receiver" of the paper's title
// hands on after discriminator and stereo decode. It knows nothing about
// backscatter and decodes whatever composite baseband it sees; the chain
// itself is core::ReceiverDecoder (QuadratureDemodulator ->
// StereoStreamDecoder).
#pragma once

#include "audio/audio_buffer.h"
#include "dsp/types.h"

namespace fmbs::fm {

/// Receiver output: decoded audio plus intermediate signals that the data
/// demodulators and the paper's measurement methodology consume.
struct ReceiverOutput {
  audio::StereoBuffer audio;     // L/R at the audio rate
  dsp::rvec mpx;                 // composite baseband (for diagnostics)
  bool stereo_mode = false;      // pilot detected, decoded in stereo
  double pilot_snr_db = 0.0;
};

}  // namespace fmbs::fm
