// Objective audio metrics: SNR against a reference,
// with alignment and gain matching helpers shared with the PESQ-like metric.
#pragma once

#include <span>

#include "audio/audio_buffer.h"

namespace fmbs::audio {

/// SNR (dB) of `test` against `reference`: power(ref) / power(test - ref).
/// Assumes the signals are already time aligned and gain matched.
double snr_db(std::span<const float> reference, std::span<const float> test);

/// Aligns `test` to `reference` (cross-correlation over +-max_lag samples)
/// and scales it to the least-squares gain; returns the aligned/scaled test
/// signal truncated to the overlap region, alongside the matching reference.
struct AlignedPair {
  std::vector<float> reference;
  std::vector<float> test;
  double delay_samples = 0.0;
  double gain = 1.0;
};
AlignedPair align_and_scale(std::span<const float> reference,
                            std::span<const float> test, std::size_t max_lag);

}  // namespace fmbs::audio
