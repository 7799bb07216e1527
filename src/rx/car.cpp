#include "rx/car.h"

#include <cmath>
#include <random>
#include <stdexcept>

#include "dsp/iir.h"
#include "dsp/math_util.h"

namespace fmbs::rx {

audio::MonoBuffer apply_cabin_acoustics(const audio::MonoBuffer& in,
                                        const CabinConfig& config,
                                        std::uint64_t noise_seed) {
  if (in.empty()) throw std::invalid_argument("apply_cabin_acoustics: empty input");
  const double rate = in.sample_rate;
  const auto d1 = static_cast<std::size_t>(kReflection1DelaySeconds * rate);
  const auto d2 = static_cast<std::size_t>(kReflection2DelaySeconds * rate);

  std::vector<float> out(in.size(), 0.0F);
  for (std::size_t i = 0; i < in.size(); ++i) {
    float v = in.samples[i];
    if (i >= d1) v += static_cast<float>(kReflection1Gain) * in.samples[i - d1];
    if (i >= d2) v += static_cast<float>(kReflection2Gain) * in.samples[i - d2];
    out[i] = v;
  }

  // Engine idle: fundamental + harmonics with amplitude jitter, plus a weak
  // broadband floor from the HVAC / road.
  if (config.engine_noise_rms > 0.0) {
    std::mt19937_64 rng(noise_seed);
    std::normal_distribution<float> g(0.0F, 1.0F);
    const double f0 = kEngineFundamentalHz;
    double ph1 = 0.0, ph2 = 0.0, ph3 = 0.0;
    const double s1 = dsp::kTwoPi * f0 / rate;
    const double s2 = dsp::kTwoPi * 2.0 * f0 / rate;
    const double s3 = dsp::kTwoPi * 4.0 * f0 / rate;
    const auto rms = static_cast<float>(config.engine_noise_rms);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ph1 += s1;
      ph2 += s2;
      ph3 += s3;
      const float rumble = static_cast<float>(
          0.8 * std::sin(ph1) + 0.5 * std::sin(ph2) + 0.25 * std::sin(ph3));
      out[i] += rms * (rumble + 0.35F * g(rng));
    }
  }

  dsp::Biquad hp(dsp::biquad_highpass(kMicHighpassHz / rate, 0.707));
  dsp::Biquad lp(dsp::biquad_lowpass(kMicLowpassHz / rate, 0.707));
  for (auto& v : out) v = lp.process_sample(hp.process_sample(v));
  return audio::MonoBuffer(std::move(out), rate);
}

}  // namespace fmbs::rx
