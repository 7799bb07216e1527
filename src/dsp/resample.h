// Resampling helpers. The cooperative-backscatter receiver follows the paper
// exactly: "we resample the signals on the two phones, in software, by a
// factor of ten" before cross-correlating, which upsample_linear provides.
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

}  // namespace fmbs::dsp
