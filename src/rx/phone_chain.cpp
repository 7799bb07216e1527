#include "rx/phone_chain.h"

#include <cmath>
#include <random>
#include <stdexcept>

#include "dsp/iir.h"
#include "dsp/math_util.h"

namespace fmbs::rx {

// Butterworth Q values for a cascade of second-order sections.
std::vector<dsp::BiquadCoeffs> butterworth_lowpass(double cutoff_norm) {
  std::vector<dsp::BiquadCoeffs> sections;
  for (int k = 0; k < kPhoneFilterOrder / 2; ++k) {
    const double theta =
        dsp::kPi * (2.0 * k + 1.0) / (2.0 * kPhoneFilterOrder);
    const double q = 1.0 / (2.0 * std::cos(theta));
    sections.push_back(dsp::biquad_lowpass(cutoff_norm, q));
  }
  return sections;
}

namespace {

std::vector<float> process_channel(const std::vector<float>& in, double rate,
                                   const PhoneChainConfig& cfg,
                                   std::uint64_t noise_seed) {
  dsp::BiquadCascade lp(butterworth_lowpass(kPhoneCutoffHz / rate));
  std::vector<float> out = in;
  lp.process_inplace(out);
  std::mt19937_64 rng(noise_seed);
  std::normal_distribution<float> n(0.0F, static_cast<float>(kCodecNoiseRms));
  for (auto& v : out) v += n(rng);
  if (cfg.enable_agc) {
    dsp::Agc agc(cfg.agc, rate);
    agc.process_inplace(out);
  }
  return out;
}

}  // namespace

audio::MonoBuffer apply_phone_chain(const audio::MonoBuffer& in,
                                    const PhoneChainConfig& config,
                                    std::uint64_t noise_seed) {
  if (in.empty()) throw std::invalid_argument("apply_phone_chain: empty input");
  if (kPhoneCutoffHz >= in.sample_rate / 2.0) {
    throw std::invalid_argument("apply_phone_chain: cutoff above Nyquist");
  }
  return audio::MonoBuffer(
      process_channel(in.samples, in.sample_rate, config, noise_seed),
      in.sample_rate);
}

audio::StereoBuffer apply_phone_chain(const audio::StereoBuffer& in,
                                      const PhoneChainConfig& config,
                                      std::uint64_t noise_seed) {
  if (in.empty()) throw std::invalid_argument("apply_phone_chain: empty input");
  return audio::StereoBuffer(
      process_channel(in.left, in.sample_rate, config, noise_seed),
      process_channel(in.right, in.sample_rate, config, noise_seed + 1),
      in.sample_rate);
}

}  // namespace fmbs::rx
