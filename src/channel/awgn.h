// Complex additive white Gaussian noise, specified the way receiver noise is
// quoted: dBm within a reference bandwidth (the 200 kHz FM channel).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "dsp/fir.h"
#include "dsp/types.h"

namespace fmbs::channel {

/// Streaming complex AWGN source.
class AwgnSource {
 public:
  /// noise_in_ref_bw: noise power within reference_bandwidth.
  /// sample_rate: simulation rate; the generated noise is white across the
  /// whole rate, so total noise power is scaled by sample_rate / ref_bw.
  /// shaping_taps: optional FIR (unity in band) that colors the white draws
  /// before they are added — e.g. rx::Tuner::noise_shaping_taps, so noise
  /// drawn at the tuned rate carries the channel filter's edge roll-off.
  AwgnSource(units::Dbm noise_in_ref_bw, units::Hertz reference_bandwidth,
             double sample_rate, std::uint64_t seed,
             std::vector<float> shaping_taps = {});

  /// Adds noise in place.
  void add_to(std::span<dsp::cfloat> block);

  /// Per-sample complex variance of the white draws (I^2 + Q^2
  /// expectation), before any shaping.
  double variance() const { return variance_; }

 private:
  static constexpr std::size_t kChunk = 512;

  /// Writes the next out.size() white samples.
  void draw(std::span<dsp::cfloat> out);

  double variance_;
  float sigma_per_component_;
  core::NormalStream gauss_;
  std::optional<dsp::FirFilter<dsp::cfloat>> shaper_;
  std::array<dsp::cfloat, kChunk> chunk_;  // draws, shaped in place
};

}  // namespace fmbs::channel
