// Resampling helpers. The cooperative-backscatter receiver follows the paper
// exactly: "we resample the signals on the two phones, in software, by a
// factor of ten" before cross-correlating, which upsample_linear provides.
// Rational resampling covers audio-rate conversion.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace fmbs::dsp {

/// Upsamples by an integer factor with linear interpolation (cheap, adequate
/// for correlation-based delay estimation at sub-sample resolution).
rvec upsample_linear(std::span<const float> in, std::size_t factor);

/// Downsamples by taking every factor-th sample (no filtering; callers must
/// band-limit first).
rvec downsample_keep(std::span<const float> in, std::size_t factor);

/// Rational resampler: polyphase upsample by L then decimate by M with a
/// shared anti-alias/anti-image low-pass. One-shot (not streaming): designed
/// for converting whole audio clips between 44.1/48/240 kHz style rates.
rvec resample_rational(std::span<const float> in, std::size_t up, std::size_t down,
                       std::size_t taps_per_phase = 24);

}  // namespace fmbs::dsp
