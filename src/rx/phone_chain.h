// Smartphone audio chain model: what happens to FM audio between the
// receiver chip and the recorded file on the phone (paper section 5.1).
// Fig. 6 measures "a good response below 13 kHz, after which there is a
// sharp drop" attributed to the receiver / recording app / AAC compression;
// this module reproduces that cutoff plus an optional hardware AGC — the
// gain control whose behaviour cooperative backscatter must calibrate out.
#pragma once

#include <vector>

#include "audio/audio_buffer.h"
#include "dsp/agc.h"
#include "dsp/iir.h"

namespace fmbs::rx {

/// App/codec low-pass corner (Fig. 6).
inline constexpr double kPhoneCutoffHz = 13000.0;
/// Cascaded-biquad order of that low-pass (steep cliff).
inline constexpr int kPhoneFilterOrder = 8;
static_assert(kPhoneFilterOrder >= 2 && kPhoneFilterOrder % 2 == 0);
/// AAC-ish coding noise floor (caps the strongest-signal audio SNR near the
/// paper's ~55 dB, Fig. 7).
inline constexpr double kCodecNoiseRms = 5e-4;

/// The phone's kPhoneFilterOrder Butterworth low-pass as cascaded
/// second-order sections. Exposed so the streaming device chain builds the
/// same cascade the one-shot chain uses.
std::vector<dsp::BiquadCoeffs> butterworth_lowpass(double cutoff_norm);

/// Phone chain options.
struct PhoneChainConfig {
  bool enable_agc = false;         // hardware gain control
  dsp::Agc::Config agc;
};

/// Applies the phone recording chain to decoded FM audio.
audio::MonoBuffer apply_phone_chain(const audio::MonoBuffer& in,
                                    const PhoneChainConfig& config = {},
                                    std::uint64_t noise_seed = 99);

/// Stereo variant (both channels through matched chains).
audio::StereoBuffer apply_phone_chain(const audio::StereoBuffer& in,
                                      const PhoneChainConfig& config = {},
                                      std::uint64_t noise_seed = 99);

}  // namespace fmbs::rx
