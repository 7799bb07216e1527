#include "core/experiment.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/scenario.h"

namespace fmbs::core {
namespace {

TEST(MakeScenario, PhoneDefaults) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-42.0};
  point.distance = units::Feet{7.0};
  point.seed = 5;
  const Scenario sc = make_scenario(point, {}, units::Seconds{0.5});
  EXPECT_EQ(sc.station.seed, 5U);
  EXPECT_EQ(sc.settle.raw(), 0.0);
  EXPECT_EQ(sc.duration.raw(), 0.5);
  ASSERT_EQ(sc.tags.size(), 1U);
  EXPECT_EQ(sc.tags[0].tag_power.raw(), -42.0);
  EXPECT_EQ(sc.tags[0].distance_override->raw(), 7.0);
  EXPECT_EQ(sc.tags[0].custom_baseband.size(), 1U);  // always-on, silent
  EXPECT_EQ(*sc.tags[0].fading_seed, sc.seed + 1);
  ASSERT_EQ(sc.receivers.size(), 1U);
  EXPECT_EQ(sc.receivers[0].kind, ReceiverKind::kPhone);
  EXPECT_EQ(sc.receivers[0].tune_offset, sc.tags[0].subcarrier.shift);
  EXPECT_EQ(*sc.receivers[0].noise_seed, sc.seed);
  EXPECT_EQ(receiver_noise_floor(sc.receivers[0]).raw(),
            channel::ReceiverNoise::kPhonePer200kHz.raw());
}

TEST(MakeScenario, CarOverrides) {
  ExperimentPoint point;
  point.receiver = ReceiverKind::kCar;
  point.station_seed = 9;
  const Scenario sc = make_scenario(point, dsp::rvec(48, 0.5F),
                                    units::Seconds{0.5});
  EXPECT_EQ(sc.station.seed, 9U);
  EXPECT_EQ(sc.tags[0].custom_baseband.size(), 48U);
  const ScenarioReceiver& car = sc.receivers[0];
  EXPECT_EQ(car.kind, ReceiverKind::kCar);
  EXPECT_EQ(receiver_noise_floor(car).raw(),
            channel::ReceiverNoise::kCarPer200kHz.raw());
  EXPECT_TRUE(car.stereo_decoder.force_mono);
  EXPECT_TRUE(car.link.use_two_ray);
  EXPECT_GT(receiver_antenna_gain(car).raw(), 0.0);
}

TEST(ToneSnr, StrongCloseToneIsClean) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-20.0};
  point.distance = units::Feet{4.0};
  const double snr = run_tone_snr(point, units::Hertz{1000.0}, false, units::Seconds{0.8});
  EXPECT_GT(snr, 25.0);
}

TEST(ToneSnr, StereoBandToneDecodes) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-20.0};
  point.distance = units::Feet{4.0};
  const double snr = run_tone_snr(point, units::Hertz{2000.0}, true, units::Seconds{0.8});
  EXPECT_GT(snr, 15.0);
}

TEST(OverlayBer, CleanAtStrongPower) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-30.0};
  point.distance = units::Feet{4.0};
  const auto ber = run_overlay_ber(point, tag::DataRate::k1600bps, 320);
  EXPECT_LT(ber.ber, 0.01);
}

TEST(OverlayBerMrc, CombiningHelpsAtWeakPower) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-55.0};
  point.distance = units::Feet{10.0};
  point.genre = audio::ProgramGenre::kRock;  // hostile interference
  const auto plain = run_overlay_ber(point, tag::DataRate::k1600bps, 240);
  const auto mrc = run_overlay_ber_mrc(point, tag::DataRate::k1600bps, 240, 3);
  EXPECT_LE(mrc.ber, plain.ber + 0.01);
}

TEST(OverlayBerMrc, Validation) {
  ExperimentPoint point;
  EXPECT_THROW(run_overlay_ber_mrc(point, tag::DataRate::k1600bps, 100, 0),
               std::invalid_argument);
}

TEST(StereoBer, NewsStationStereoStreamWorks) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-25.0};
  point.distance = units::Feet{2.0};
  point.genre = audio::ProgramGenre::kNews;
  point.stereo_station = true;
  const auto ber = run_stereo_ber(point, tag::DataRate::k1600bps, 240);
  EXPECT_LT(ber.ber, 0.05);
}

TEST(FabricBer, StandingBeatsRunning) {
  const auto standing =
      run_fabric_ber(channel::Mobility::kStanding, tag::DataRate::k100bps, 40, 1);
  const auto running =
      run_fabric_ber(channel::Mobility::kRunning, tag::DataRate::k100bps, 40, 1);
  EXPECT_LE(standing.ber, running.ber + 0.05);
}

// Zero repetitions is not "one copy": like run_overlay_ber_mrc, the fabric
// procedure rejects it instead of silently measuring a single transmission.
TEST(FabricBer, ZeroRepetitionsThrow) {
  EXPECT_THROW(run_fabric_ber(channel::Mobility::kStanding,
                              tag::DataRate::k100bps, 40, 0),
               std::invalid_argument);
}

TEST(PrintTable, FormatsColumns) {
  std::ostringstream os;
  print_table(os, "Fig X", "distance", {1.0, 2.0},
              {{"a", {0.1, 0.2}}, {"b", {0.3}}});
  const std::string s = os.str();
  EXPECT_NE(s.find("Fig X"), std::string::npos);
  EXPECT_NE(s.find("distance"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  // Missing value printed as '-'.
  EXPECT_NE(s.find('-'), std::string::npos);
}

}  // namespace
}  // namespace fmbs::core
