// Deterministic test-signal generators: tones, multitones, chirps, noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "audio/audio_buffer.h"

namespace fmbs::audio {

/// Single sinusoid at `frequency_hz` with the given amplitude.
MonoBuffer make_tone(double frequency_hz, double amplitude, double duration_seconds,
                     double sample_rate, double initial_phase = 0.0);

/// Gaussian white noise with the given RMS.
MonoBuffer make_noise(double rms, double duration_seconds, double sample_rate,
                      std::uint64_t seed);

/// Digital silence.
MonoBuffer make_silence(double duration_seconds, double sample_rate);

/// Concatenates two buffers (rates must match).
MonoBuffer concat(const MonoBuffer& a, const MonoBuffer& b);

/// Element-wise sum, truncated to the shorter operand.
MonoBuffer mix(const MonoBuffer& a, const MonoBuffer& b, float gain_a = 1.0F,
               float gain_b = 1.0F);

}  // namespace fmbs::audio
