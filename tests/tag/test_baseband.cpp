#include "tag/baseband.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "audio/tone.h"
#include "dsp/spectrum.h"
#include "fm/constants.h"

namespace fmbs::tag {
namespace {

using audio::make_tone;

TEST(OverlayBaseband, UpsamplesAndScales) {
  const auto tone = make_tone(1000.0, 1.0, 0.5, fm::kAudioRate);
  const auto bb = compose_overlay_baseband(tone, 0.5);
  EXPECT_EQ(bb.size(), tone.size() * 5);
  const double p = dsp::band_power(bb, fm::kMpxRate, 900.0, 1100.0);
  // Amplitude 0.5 tone -> power 0.125.
  EXPECT_NEAR(p, 0.125, 0.02);
}

TEST(OverlayBaseband, RateValidation) {
  audio::MonoBuffer odd(std::vector<float>(100, 0.0F), 44100.0);
  EXPECT_THROW(compose_overlay_baseband(odd, 1.0), std::invalid_argument);
}

// NaN fails `x <= 0 || x > 1` on both sides, so the check is written to
// pass only on good levels.
TEST(RdsBaseband, RejectsLevelsOutsideTheUnitInterval) {
  const std::vector<unsigned char> bits(26, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, inf, -inf, 0.0, -0.5, 1.5}) {
    EXPECT_THROW((void)compose_rds_baseband(bits, 2400, v),
                 std::invalid_argument)
        << "level = " << v;
  }
  EXPECT_NO_THROW((void)compose_rds_baseband(bits, 2400, 1.0));
}

TEST(StereoBaseband, ContentAppearsAt38k) {
  const auto tone = make_tone(2000.0, 1.0, 0.5, fm::kAudioRate);
  const auto bb = compose_stereo_baseband(tone, /*insert_pilot=*/false);
  // DSB-SC: energy at 38 +- 2 kHz, none at baseband 2 kHz or 19 kHz.
  const double p_sub = dsp::band_power(bb, fm::kMpxRate, 35000.0, 41000.0);
  const double p_base = dsp::band_power(bb, fm::kMpxRate, 1000.0, 3000.0);
  const double p_pilot = dsp::band_power(bb, fm::kMpxRate, 18800.0, 19200.0);
  EXPECT_GT(p_sub, 100.0 * p_base);
  EXPECT_LT(p_pilot, 1e-6);
}

TEST(StereoBaseband, PilotInsertionMatchesPaperEquation) {
  // Paper: B(t) baseband = 0.9 FM_stereo_back + 0.1 cos(2 pi 19k t).
  const auto tone = make_tone(2000.0, 1.0, 0.5, fm::kAudioRate);
  const auto bb = compose_stereo_baseband(tone, /*insert_pilot=*/true);
  const double p_pilot = dsp::band_power(bb, fm::kMpxRate, 18800.0, 19200.0);
  EXPECT_NEAR(p_pilot, 0.005, 0.001);  // (0.1)^2/2
  const double p_sub = dsp::band_power(bb, fm::kMpxRate, 35000.0, 41000.0);
  // 0.9 * tone on carrier: DSB power = (0.9)^2 * (1/2)(tone power 1/2)...
  // measured empirically around 0.2.
  EXPECT_GT(p_sub, 0.1);
}

TEST(CoopBaseband, PreambleThenPayload) {
  const auto tone = make_tone(1000.0, 1.0, 1.0, fm::kAudioRate);
  CoopPilotConfig pilot;
  const auto bb = compose_cooperative_baseband(tone, 0.9, pilot);
  const auto pre_len =
      static_cast<std::size_t>(pilot.preamble_seconds * fm::kMpxRate);
  ASSERT_EQ(bb.size(), pre_len + tone.size() * 5);

  // Preamble: pure 13 kHz pilot at preamble level.
  std::span<const float> pre(bb.data(), pre_len);
  const double p_pilot_pre =
      dsp::band_power(pre, fm::kMpxRate, 12800.0, 13200.0);
  EXPECT_NEAR(p_pilot_pre, 0.25 * 0.25 / 2.0, 0.005);
  const double p_content_pre = dsp::band_power(pre, fm::kMpxRate, 900.0, 1100.0);
  EXPECT_LT(p_content_pre, 1e-6);

  // Payload: content + low-level pilot.
  std::span<const float> pay(bb.data() + pre_len, bb.size() - pre_len);
  const double p_content = dsp::band_power(pay, fm::kMpxRate, 900.0, 1100.0);
  EXPECT_GT(p_content, 0.3);
  const double p_pilot_pay =
      dsp::band_power(pay, fm::kMpxRate, 12800.0, 13200.0);
  EXPECT_NEAR(p_pilot_pay, 0.05 * 0.05 / 2.0, 0.0005);
}

TEST(CoopBaseband, PilotLevelsConfigurable) {
  const auto tone = make_tone(1000.0, 1.0, 0.2, fm::kAudioRate);
  CoopPilotConfig pilot;
  pilot.preamble_level = 0.5;
  pilot.preamble_seconds = 0.1;
  const auto bb = compose_cooperative_baseband(tone, 0.9, pilot);
  std::span<const float> pre(
      bb.data(), static_cast<std::size_t>(pilot.preamble_seconds * fm::kMpxRate));
  const double p = dsp::band_power(pre, fm::kMpxRate, 12800.0, 13200.0);
  EXPECT_NEAR(p, 0.125, 0.01);
}

}  // namespace
}  // namespace fmbs::tag
