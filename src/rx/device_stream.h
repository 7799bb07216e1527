// Streaming (block-fed) counterparts of the device audio chains —
// rx::apply_phone_chain and rx::apply_cabin_acoustics — for the streaming
// scenario engine. Both one-shot chains are strictly per-sample causal
// (IIR filters, a sequentially drawn noise stream, delay-line reflections),
// so a persistent-state block decomposition reproduces them bit-for-bit:
// the filters carry their states, the noise stream its position, the delay
// lines their input history across block boundaries. The noise is a
// core::NormalStream, which draws the one-shot chains'
// std::normal_distribution sequence.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/rng.h"
#include "dsp/agc.h"
#include "dsp/iir.h"
#include "rx/car.h"
#include "rx/phone_chain.h"

namespace fmbs::rx {

/// Block-fed phone recording chain (one channel), bit-identical to
/// apply_phone_chain on the concatenated stream.
class PhoneChainStream {
 public:
  PhoneChainStream(const PhoneChainConfig& config, double sample_rate,
                   std::uint64_t noise_seed = 99);

  /// Processes one audio block in place.
  void process_inplace(std::span<float> audio);

 private:
  dsp::BiquadCascade lowpass_;
  core::NormalStream noise_;
  std::optional<dsp::Agc> agc_;
};

/// Block-fed cabin speaker -> microphone path, bit-identical to
/// apply_cabin_acoustics on the concatenated stream.
class CabinAcousticsStream {
 public:
  CabinAcousticsStream(const CabinConfig& config, double sample_rate,
                       std::uint64_t noise_seed = 7);

  /// Processes one audio block in place.
  void process_inplace(std::span<float> audio);

 private:
  std::size_t d1_, d2_;
  std::vector<float> hist_;  // input delay line (max(d1, d2) samples)
  std::size_t index_ = 0;    // absolute stream position
  bool engine_noise_;
  core::NormalStream gauss_;
  double ph1_ = 0.0, ph2_ = 0.0, ph3_ = 0.0;
  double s1_, s2_, s3_;
  float rms_;
  dsp::Biquad mic_hp_, mic_lp_;
};

}  // namespace fmbs::rx
