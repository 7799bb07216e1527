#include "rx/car.h"

#include <gtest/gtest.h>

#include "audio/tone.h"
#include "dsp/spectrum.h"

namespace fmbs::rx {
namespace {

using audio::make_silence;
using audio::make_tone;
using audio::MonoBuffer;

TEST(Cabin, SignalSurvivesReRecording) {
  const MonoBuffer in = make_tone(1000.0, 0.5, 1.0, 48000.0);
  const MonoBuffer out = apply_cabin_acoustics(in);
  const double p_in = dsp::band_power(in.samples, 48000.0, 900.0, 1100.0);
  const double p_out = dsp::band_power(out.samples, 48000.0, 900.0, 1100.0);
  // Reflections can add up to a few dB; the tone must clearly survive.
  EXPECT_GT(p_out, 0.5 * p_in);
}

TEST(Cabin, EngineNoisePresentWithSilentRadio) {
  // "we perform all experiments with the car's engine running".
  const MonoBuffer in = make_silence(1.0, 48000.0);
  const MonoBuffer out = apply_cabin_acoustics(in);
  const double p_rumble = dsp::band_power(out.samples, 48000.0, 25.0, 200.0);
  EXPECT_GT(p_rumble, 1e-7);
}

TEST(Cabin, EngineNoiseIsLowFrequency) {
  CabinConfig cfg;
  const MonoBuffer in = make_silence(1.0, 48000.0);
  const MonoBuffer out = apply_cabin_acoustics(in, cfg);
  const double p_low = dsp::band_power(out.samples, 48000.0, 25.0, 300.0);
  const double p_mid = dsp::band_power(out.samples, 48000.0, 2000.0, 6000.0);
  EXPECT_GT(p_low, 3.0 * p_mid);
}

TEST(Cabin, MicBandLimits) {
  CabinConfig cfg;
  cfg.engine_noise_rms = 0.0;
  // Very low frequency content is cut by the mic high-pass.
  const MonoBuffer sub = make_tone(20.0, 0.5, 1.0, 48000.0);
  const MonoBuffer out_sub = apply_cabin_acoustics(sub, cfg);
  EXPECT_LT(dsp::band_power(out_sub.samples, 48000.0, 10.0, 30.0),
            0.25 * dsp::band_power(sub.samples, 48000.0, 10.0, 30.0));
  // Very high frequency content is cut by the mic low-pass.
  const MonoBuffer hi = make_tone(20000.0, 0.5, 1.0, 48000.0);
  const MonoBuffer out_hi = apply_cabin_acoustics(hi, cfg);
  EXPECT_LT(dsp::band_power(out_hi.samples, 48000.0, 19000.0, 21000.0),
            0.5 * dsp::band_power(hi.samples, 48000.0, 19000.0, 21000.0));
}

TEST(Cabin, ReflectionsCreateEcho) {
  CabinConfig cfg;
  cfg.engine_noise_rms = 0.0;
  // An impulse should produce echoes at the cabin's reflection delays.
  std::vector<float> impulse(4800, 0.0F);
  impulse[0] = 1.0F;
  const MonoBuffer out =
      apply_cabin_acoustics(MonoBuffer(impulse, 48000.0), cfg);
  const auto d1 = static_cast<std::size_t>(kReflection1DelaySeconds * 48000.0);
  // The mic band-pass smears the impulse; check energy near the echo tap.
  double near_echo = 0.0;
  for (std::size_t i = d1 - 3; i <= d1 + 3; ++i) {
    near_echo = std::max(near_echo, std::abs(static_cast<double>(out.samples[i])));
  }
  EXPECT_GT(near_echo, 0.1);
}

TEST(Cabin, DeterministicPerSeed) {
  const MonoBuffer in = make_silence(0.2, 48000.0);
  const MonoBuffer a = apply_cabin_acoustics(in, CabinConfig{}, 5);
  const MonoBuffer b = apply_cabin_acoustics(in, CabinConfig{}, 5);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(Cabin, Validation) {
  EXPECT_THROW(apply_cabin_acoustics(MonoBuffer{}), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::rx
