// Basic contracts of the physical simulation, checked on the one-tag scene
// every paper measurement runs: make_scenario builds it, the ScenarioEngine
// renders and decodes it. Capture shape, the link budget, noise and fading
// realizations, the silent tag and the car cabin.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include "audio/tone.h"
#include "dsp/spectrum.h"
#include "tag/baseband.h"

namespace fmbs::core {
namespace {

/// A silent mono station, the tag at -20 dBm ambient, 4 ft from a phone.
ExperimentPoint quiet_point() {
  ExperimentPoint point;
  point.genre = audio::ProgramGenre::kSilence;
  point.stereo_station = false;
  point.tag_power = units::Dbm{-20.0};
  point.distance = units::Feet{4.0};
  return point;
}

/// The point's scene with the tag overlaying a `freq` Hz tone for the whole
/// `seconds`-long run.
Scenario tone_scene(const ExperimentPoint& point, double freq, double seconds) {
  return make_scenario(
      point,
      tag::compose_overlay_baseband(
          audio::make_tone(freq, 1.0, seconds, fm::kAudioRate), 0.95),
      units::Seconds{seconds});
}

/// Mono audio the scene's first receiver (the tag's channel) hears.
audio::MonoBuffer heard(const Scenario& sc) {
  return std::move(ScenarioEngine().run(sc).receivers[0].capture.mono);
}

double tone_snr(const audio::MonoBuffer& mono, double freq) {
  return dsp::tone_snr_db(mono.samples, fm::kAudioRate, freq, 100.0, 15000.0);
}

TEST(Simulator, OutputLengthsConsistent) {
  const ScenarioResult r =
      ScenarioEngine().run(tone_scene(quiet_point(), 1000.0, 0.5));
  ASSERT_EQ(r.receivers.size(), 1U);
  const audio::MonoBuffer& mono = r.receivers[0].capture.mono;
  EXPECT_NEAR(mono.duration_seconds(), 0.5, 0.05);
  EXPECT_EQ(mono.sample_rate, fm::kAudioRate);
  EXPECT_EQ(r.station->program.sample_rate, fm::kAudioRate);
}

TEST(Simulator, AmbientCaptureOptional) {
  // Cooperative backscatter's second phone: a copy of the receiver parked on
  // the station itself captures alongside the tag-channel receiver.
  Scenario sc = tone_scene(quiet_point(), 1000.0, 0.4);
  ScenarioReceiver ambient = sc.receivers[0];
  ambient.tune_offset = units::Hertz{0.0};
  sc.receivers.push_back(ambient);
  const ScenarioResult r = ScenarioEngine().run(sc);
  ASSERT_EQ(r.receivers.size(), 2U);
  EXPECT_EQ(r.receivers[1].capture.mono.size(),
            r.receivers[0].capture.mono.size());
}

TEST(Simulator, BackscatterPowerTracksBudget) {
  ExperimentPoint point = quiet_point();
  const auto in_channel_dbm = [](const ExperimentPoint& p) {
    return resolve_scenario_plan(tone_scene(p, 1000.0, 0.3))
        .rx_power_dbm[0][0][0];
  };
  const double near = in_channel_dbm(point);
  point.distance = units::Feet{16.0};
  const double far = in_channel_dbm(point);
  // 4x the distance: 12 dB weaker backscatter at the receiver.
  EXPECT_NEAR(near - far, 12.0, 0.5);
}

TEST(Simulator, ToneSnrDropsWithDistance) {
  ExperimentPoint point = quiet_point();
  point.tag_power = units::Dbm{-50.0};
  const double snr_near =
      tone_snr(heard(tone_scene(point, 1000.0, 0.6)), 1000.0);
  point.distance = units::Feet{20.0};
  const double snr_far =
      tone_snr(heard(tone_scene(point, 1000.0, 0.6)), 1000.0);
  EXPECT_GT(snr_near, snr_far + 5.0);
}

TEST(Simulator, DeterministicPerSeeds) {
  const Scenario sc = tone_scene(quiet_point(), 2000.0, 0.3);
  const audio::MonoBuffer a = heard(sc);
  const audio::MonoBuffer b = heard(sc);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(Simulator, NoiseSeedChangesRealization) {
  ExperimentPoint point = quiet_point();
  point.tag_power = units::Dbm{-60.0};  // noise-visible regime
  Scenario sc = tone_scene(point, 2000.0, 0.2);
  const audio::MonoBuffer a = heard(sc);
  sc.receivers[0].noise_seed = 777;
  const audio::MonoBuffer b = heard(sc);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a.samples, b.samples);
}

TEST(Simulator, EmptyTagBasebandYieldsNoTone) {
  const audio::MonoBuffer mono =
      heard(make_scenario(quiet_point(), {}, units::Seconds{0.3}));
  // Unmodulated subcarrier only: no audio tone in the output.
  EXPECT_LT(dsp::band_power(mono.samples, fm::kAudioRate, 500.0, 12000.0),
            1e-4);
}

TEST(Simulator, CarReceiverAppliesCabin) {
  ExperimentPoint point = quiet_point();
  point.receiver = ReceiverKind::kCar;
  const audio::MonoBuffer mono = heard(tone_scene(point, 1000.0, 0.5));
  // Engine rumble present below 200 Hz.
  EXPECT_GT(dsp::band_power(mono.samples, fm::kAudioRate, 25.0, 200.0), 1e-8);
  // Tone still present.
  EXPECT_GT(dsp::band_power(mono.samples, fm::kAudioRate, 900.0, 1100.0),
            1e-3);
}

TEST(Simulator, FadingReducesMeanSnr) {
  ExperimentPoint point = quiet_point();
  point.tag_power = units::Dbm{-55.0};
  point.distance = units::Feet{8.0};
  Scenario sc = tone_scene(point, 1000.0, 0.8);
  const double snr_still = tone_snr(heard(sc), 1000.0);
  sc.tags[0].fading = channel::fading_for_mobility(channel::Mobility::kRunning);
  const double snr_moving = tone_snr(heard(sc), 1000.0);
  EXPECT_LT(snr_moving, snr_still + 1.0);
}

TEST(Simulator, Validation) {
  const ScenarioEngine engine;
  EXPECT_THROW(
      engine.run(make_scenario(quiet_point(), {}, units::Seconds{0.0})),
      std::invalid_argument);
  EXPECT_THROW(
      engine.run(make_scenario(quiet_point(), {}, units::Seconds{-1.0})),
      std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::core
