#include "fm/mpx.h"

#include <gtest/gtest.h>

#include <cmath>

#include "audio/tone.h"
#include "dsp/spectrum.h"
#include "fm/constants.h"
#include "fm/emphasis.h"
#include "support/run_stage.h"

namespace fmbs::fm {
namespace {

using audio::make_silence;
using audio::make_tone;
using audio::MonoBuffer;
using audio::StereoBuffer;

StereoBuffer tone_pair(double fl, double fr, double seconds = 0.5) {
  const MonoBuffer l = make_tone(fl, 0.6, seconds, kAudioRate);
  const MonoBuffer r = make_tone(fr, 0.6, seconds, kAudioRate);
  return StereoBuffer(l.samples, r.samples, kAudioRate);
}

TEST(Mpx, StereoLayoutMatchesFig3) {
  // Paper Fig. 3: mono (L+R) below 15 kHz, pilot at 19 kHz, stereo (L-R)
  // DSB-SC around 38 kHz.
  const StereoBuffer prog = tone_pair(1000.0, 2500.0);
  MpxConfig cfg;
  const auto mpx = compose_mpx(prog, cfg);

  const double p_mono = dsp::band_power(mpx, kMpxRate, 500.0, 3000.0);
  const double p_pilot = dsp::band_power(mpx, kMpxRate, 18900.0, 19100.0);
  const double p_stereo = dsp::band_power(mpx, kMpxRate, 34000.0, 42000.0);
  const double p_gap = dsp::band_power(mpx, kMpxRate, 60000.0, 80000.0);
  EXPECT_GT(p_mono, 100.0 * p_gap);
  EXPECT_GT(p_pilot, 100.0 * p_gap);
  EXPECT_GT(p_stereo, 100.0 * p_gap);
}

TEST(Mpx, PilotLevelIsTenPercent) {
  const StereoBuffer prog = tone_pair(1000.0, 1000.0);  // L==R: no stereo band
  MpxConfig cfg;
  const auto mpx = compose_mpx(prog, cfg);
  const double p_pilot = dsp::band_power(mpx, kMpxRate, 18800.0, 19200.0);
  // Pilot amplitude 0.1 -> power 0.005.
  EXPECT_NEAR(p_pilot, 0.005, 0.001);
}

TEST(Mpx, MonoModeOmitsPilotAndSubcarrier) {
  const StereoBuffer prog = tone_pair(1000.0, 2500.0);
  MpxConfig cfg;
  cfg.stereo = false;
  const auto mpx = compose_mpx(prog, cfg);
  const double p_pilot = dsp::band_power(mpx, kMpxRate, 18800.0, 19200.0);
  const double p_stereo = dsp::band_power(mpx, kMpxRate, 30000.0, 46000.0);
  EXPECT_LT(p_pilot, 1e-6);
  EXPECT_LT(p_stereo, 1e-6);
}

TEST(Mpx, IdenticalChannelsHaveEmptyStereoBand) {
  // A news station: same audio on L and R -> nothing at 23-53 kHz. This is
  // the under-utilization stereo backscatter exploits (paper Fig. 5).
  const StereoBuffer prog = tone_pair(3000.0, 3000.0);
  const auto mpx = compose_mpx(prog, MpxConfig{});
  const double p_stereo = dsp::band_power(mpx, kMpxRate, 30000.0, 46000.0);
  const double p_mono = dsp::band_power(mpx, kMpxRate, 2500.0, 3500.0);
  EXPECT_LT(p_stereo, 1e-4 * p_mono);
}

TEST(Mpx, BoundedByUnity) {
  const StereoBuffer prog = tone_pair(800.0, 7000.0);
  const auto mpx = compose_mpx(prog, MpxConfig{});
  for (const float v : mpx) {
    EXPECT_LE(std::abs(v), 1.0F + 1e-3F);
  }
}

TEST(Mpx, RdsInjectionAt57k) {
  const StereoBuffer prog = tone_pair(1000.0, 1000.0);
  MpxConfig cfg;
  cfg.rds_level = 0.05;
  const std::vector<unsigned char> bits{1, 0, 1, 1, 0, 0, 1, 0};
  const auto mpx = compose_mpx(prog, cfg, bits);
  const double p_rds = dsp::band_power(mpx, kMpxRate, 55500.0, 58500.0);
  EXPECT_GT(p_rds, 1e-4);
}

TEST(Mpx, RateValidation) {
  const StereoBuffer prog = tone_pair(1000.0, 1000.0, 0.01);
  MpxConfig cfg;
  cfg.mpx_rate = 100000.0;  // not an integer multiple of 48 kHz
  EXPECT_THROW(compose_mpx(prog, cfg), std::invalid_argument);
}

TEST(Emphasis, PreThenDeIsIdentity) {
  const MonoBuffer t = make_tone(5000.0, 0.5, 0.2, kAudioRate);
  PreEmphasis pre( units::Seconds{kDeemphasisSeconds}, kAudioRate);
  DeEmphasis de( units::Seconds{kDeemphasisSeconds}, kAudioRate);
  const auto boosted = test::run_stage(pre, t.samples);
  const auto restored = test::run_stage(de, boosted);
  for (std::size_t i = 100; i < restored.size(); ++i) {
    EXPECT_NEAR(restored[i], t.samples[i], 5e-3F);
  }
}

TEST(Emphasis, PreEmphasisBoostsTreble) {
  PreEmphasis pre( units::Seconds{kDeemphasisSeconds}, kAudioRate);
  const MonoBuffer hi = make_tone(10000.0, 0.1, 0.2, kAudioRate);
  const auto boosted = test::run_stage(pre, hi.samples);
  double in = 0.0, out = 0.0;
  for (std::size_t i = boosted.size() / 2; i < boosted.size(); ++i) {
    in += static_cast<double>(hi.samples[i]) * hi.samples[i];
    out += static_cast<double>(boosted[i]) * boosted[i];
  }
  // 75 us pre-emphasis at 10 kHz: ~ +13 dB.
  EXPECT_GT(out / in, 10.0);
}

TEST(Emphasis, DeEmphasisCutsTreble) {
  DeEmphasis de( units::Seconds{kDeemphasisSeconds}, kAudioRate);
  const MonoBuffer hi = make_tone(10000.0, 0.5, 0.2, kAudioRate);
  const auto cut = test::run_stage(de, hi.samples);
  double in = 0.0, out = 0.0;
  for (std::size_t i = cut.size() / 2; i < cut.size(); ++i) {
    in += static_cast<double>(hi.samples[i]) * hi.samples[i];
    out += static_cast<double>(cut[i]) * cut[i];
  }
  EXPECT_LT(out / in, 0.1);
}

}  // namespace
}  // namespace fmbs::fm
