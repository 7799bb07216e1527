#include "rx/phone_chain.h"

#include <gtest/gtest.h>

#include "audio/tone.h"
#include "dsp/spectrum.h"

namespace fmbs::rx {
namespace {

using audio::make_tone;
using audio::MonoBuffer;

TEST(PhoneChain, PassesBelowCutoff) {
  const MonoBuffer in = make_tone(5000.0, 0.5, 0.5, 48000.0);
  const MonoBuffer out = apply_phone_chain(in);
  const double p_in = dsp::band_power(in.samples, 48000.0, 4900.0, 5100.0);
  const double p_out = dsp::band_power(out.samples, 48000.0, 4900.0, 5100.0);
  EXPECT_NEAR(p_out / p_in, 1.0, 0.1);
}

TEST(PhoneChain, CutsAboveThirteenKilohertz) {
  // Fig. 6: "a good response below 13 kHz, after which there is a sharp
  // drop".
  const MonoBuffer in = make_tone(14500.0, 0.5, 0.5, 48000.0);
  const MonoBuffer out = apply_phone_chain(in);
  const double p_in = dsp::band_power(in.samples, 48000.0, 14000.0, 15000.0);
  const double p_out = dsp::band_power(out.samples, 48000.0, 14000.0, 15000.0);
  EXPECT_LT(p_out / p_in, 0.1);
}

TEST(PhoneChain, TwelvePointEightStillPasses) {
  // The paper's top FDM tone (12.8 kHz) must survive the phone chain —
  // that's why the tone plan stops there.
  const MonoBuffer in = make_tone(12800.0, 0.5, 0.5, 48000.0);
  const MonoBuffer out = apply_phone_chain(in);
  const double p_in = dsp::band_power(in.samples, 48000.0, 12700.0, 12900.0);
  const double p_out = dsp::band_power(out.samples, 48000.0, 12700.0, 12900.0);
  EXPECT_GT(p_out / p_in, 0.5);
}

TEST(PhoneChain, CodecNoiseFloorPresent) {
  const MonoBuffer silence = audio::make_silence(0.5, 48000.0);
  const MonoBuffer out = apply_phone_chain(silence);
  double p = 0.0;
  for (const float v : out.samples) p += static_cast<double>(v) * v;
  p /= static_cast<double>(out.size());
  EXPECT_NEAR(std::sqrt(p), kCodecNoiseRms, 0.3 * kCodecNoiseRms);
}

TEST(PhoneChain, AgcNormalizesLevel) {
  PhoneChainConfig cfg;
  cfg.enable_agc = true;
  cfg.agc.target_rms = 0.2;
  const MonoBuffer quiet = make_tone(1000.0, 0.02, 2.0, 48000.0);
  const MonoBuffer out = apply_phone_chain(quiet, cfg);
  double p = 0.0;
  const std::size_t tail = out.size() / 2;
  for (std::size_t i = tail; i < out.size(); ++i) {
    p += static_cast<double>(out.samples[i]) * out.samples[i];
  }
  EXPECT_NEAR(std::sqrt(p / static_cast<double>(out.size() - tail)), 0.2, 0.05);
}

TEST(PhoneChain, StereoKeepsChannelsSeparate) {
  const MonoBuffer l = make_tone(1000.0, 0.5, 0.2, 48000.0);
  const MonoBuffer r = make_tone(3000.0, 0.5, 0.2, 48000.0);
  const audio::StereoBuffer out = apply_phone_chain(
      audio::StereoBuffer(l.samples, r.samples, 48000.0));
  EXPECT_GT(dsp::band_power(out.left, 48000.0, 900.0, 1100.0),
            10.0 * dsp::band_power(out.left, 48000.0, 2900.0, 3100.0));
  EXPECT_GT(dsp::band_power(out.right, 48000.0, 2900.0, 3100.0),
            10.0 * dsp::band_power(out.right, 48000.0, 900.0, 1100.0));
}

TEST(PhoneChain, Validation) {
  EXPECT_THROW(apply_phone_chain(audio::MonoBuffer{}), std::invalid_argument);
  // The 13 kHz cutoff lies above the Nyquist rate of 24 kHz audio.
  const MonoBuffer in = make_tone(1000.0, 0.5, 0.1, 24000.0);
  EXPECT_THROW(apply_phone_chain(in), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::rx
