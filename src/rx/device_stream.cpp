#include "rx/device_stream.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::rx {

PhoneChainStream::PhoneChainStream(const PhoneChainConfig& config,
                                   double sample_rate,
                                   std::uint64_t noise_seed)
    : lowpass_(butterworth_lowpass(kPhoneCutoffHz / sample_rate)),
      noise_(noise_seed, 0.0F, static_cast<float>(kCodecNoiseRms)) {
  if (kPhoneCutoffHz >= sample_rate / 2.0) {
    throw std::invalid_argument("PhoneChainStream: cutoff above Nyquist");
  }
  if (config.enable_agc) agc_.emplace(config.agc, sample_rate);
}

void PhoneChainStream::process_inplace(std::span<float> audio) {
  // Same per-index order as apply_phone_chain's three passes: the cascade
  // never touches the noise stream and the AGC sees the noise-added stream, so
  // interleaving the passes per block keeps every sequence identical.
  lowpass_.process_inplace(audio);
  for (auto& v : audio) v += noise_.next();
  if (agc_) agc_->process_inplace(audio);
}

CabinAcousticsStream::CabinAcousticsStream(const CabinConfig& config,
                                           double sample_rate,
                                           std::uint64_t noise_seed)
    : d1_(static_cast<std::size_t>(kReflection1DelaySeconds * sample_rate)),
      d2_(static_cast<std::size_t>(kReflection2DelaySeconds * sample_rate)),
      engine_noise_(config.engine_noise_rms > 0.0),
      gauss_(noise_seed),
      s1_(dsp::kTwoPi * kEngineFundamentalHz / sample_rate),
      s2_(dsp::kTwoPi * 2.0 * kEngineFundamentalHz / sample_rate),
      s3_(dsp::kTwoPi * 4.0 * kEngineFundamentalHz / sample_rate),
      rms_(static_cast<float>(config.engine_noise_rms)),
      mic_hp_(dsp::biquad_highpass(kMicHighpassHz / sample_rate, 0.707)),
      mic_lp_(dsp::biquad_lowpass(kMicLowpassHz / sample_rate, 0.707)) {
  hist_.assign(std::max({d1_, d2_, std::size_t{1}}), 0.0F);
}

void CabinAcousticsStream::process_inplace(std::span<float> audio) {
  const auto g1 = static_cast<float>(kReflection1Gain);
  const auto g2 = static_cast<float>(kReflection2Gain);
  const std::size_t cap = hist_.size();
  for (auto& sample : audio) {
    const std::size_t i = index_++;
    const float x = sample;
    float v = x;
    if (i >= d1_) v += g1 * (d1_ == 0 ? x : hist_[(i - d1_) % cap]);
    if (i >= d2_) v += g2 * (d2_ == 0 ? x : hist_[(i - d2_) % cap]);
    hist_[i % cap] = x;
    if (engine_noise_) {
      ph1_ += s1_;
      ph2_ += s2_;
      ph3_ += s3_;
      const float rumble =
          static_cast<float>(0.8 * std::sin(ph1_) + 0.5 * std::sin(ph2_) +
                             0.25 * std::sin(ph3_));
      v += rms_ * (rumble + 0.35F * gauss_.next());
    }
    sample = mic_lp_.process_sample(mic_hp_.process_sample(v));
  }
}

}  // namespace fmbs::rx
