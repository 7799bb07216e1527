// Car receiver model (paper section 5.4 / Fig. 14). Differences from the
// phone: a proper whip antenna with the car body as ground plane (lower
// effective noise floor), a non-programmable stereo limited to overlay
// backscatter, and measurement through a microphone recording the cabin
// speakers "with the car's engine running and the windows closed".
#pragma once

#include <cstdint>

#include "audio/audio_buffer.h"

namespace fmbs::rx {

/// Direct-plus-reflection impulse response of the cabin (seconds, gain).
inline constexpr double kReflection1DelaySeconds = 0.0021;
inline constexpr double kReflection1Gain = 0.35;
inline constexpr double kReflection2DelaySeconds = 0.0057;
inline constexpr double kReflection2Gain = 0.18;
/// Engine-idle rumble fundamental: ~900 rpm idle.
inline constexpr double kEngineFundamentalHz = 30.0;
/// Microphone band limits.
inline constexpr double kMicHighpassHz = 80.0;
inline constexpr double kMicLowpassHz = 14000.0;

/// Cabin acoustics / measurement-chain options.
struct CabinConfig {
  /// Engine-idle rumble level (the paper runs the engine); 0 measures a
  /// silent cabin.
  double engine_noise_rms = 0.004;
};

/// Applies the cabin speaker -> microphone path to receiver audio.
audio::MonoBuffer apply_cabin_acoustics(const audio::MonoBuffer& in,
                                        const CabinConfig& config = {},
                                        std::uint64_t noise_seed = 7);

}  // namespace fmbs::rx
