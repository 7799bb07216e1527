// Complex additive white Gaussian noise, specified the way receiver noise is
// quoted: dBm within a reference bandwidth (the 200 kHz FM channel).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

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
  double variance_;
  float sigma_per_component_;
  std::mt19937_64 rng_;
  std::normal_distribution<float> dist_;
  std::optional<dsp::FirFilter<dsp::cfloat>> shaper_;
  dsp::cvec colored_;  // per-block draws, shaped in place
};

}  // namespace fmbs::channel
