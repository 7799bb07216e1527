// Exact-output pins for the core::experiment measurement procedures: each
// procedure runs one short, fixed-seed measurement and its result is compared
// with EXPECT_EQ — doubles and bit-error counts alike — against the value
// recorded when the pin was written. The procedures are the figure benches'
// measurement methodology, so any change to how they build or run their
// scene (seeds, receiver setup, link budget, capture trimming) shows up here
// as a changed number, not as a drifted figure weeks later.
//
// The pins are as toolchain-specific as the golden traces (libstdc++
// distributions, glibc libm). A deliberate behaviour change re-records them
// printed with "%.17g" (round-trip precision; gtest's failure output rounds
// doubles to six digits).
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "dsp/simd.h"

namespace fmbs::core {
namespace {

/// The SSE2 build's vector sincos (the tag subcarrier, dsp/simd.h) rounds
/// differently from the scalar reference build in the last bits, so the
/// tone-SNR and PESQ-like pins carry one value per build. Bit-error counts
/// agree across both.
double per_build(double simd, double scalar) {
  return dsp::simd::kEnabled ? simd : scalar;
}

TEST(ExperimentPins, ToneSnrOverlay) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-45.0};
  point.distance = units::Feet{8.0};
  point.seed = 7;
  EXPECT_EQ(run_tone_snr(point, units::Hertz{1000.0}, /*stereo_band=*/false,
                         units::Seconds{0.5}),
            per_build(45.254826206667722, 45.254825734444999));
}

TEST(ExperimentPins, ToneSnrStereoBand) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-30.0};
  point.distance = units::Feet{4.0};
  point.seed = 8;
  EXPECT_EQ(run_tone_snr(point, units::Hertz{2000.0}, /*stereo_band=*/true,
                         units::Seconds{0.5}),
            per_build(38.706984662718973, 38.70698485739009));
}

TEST(ExperimentPins, OverlayBer) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-58.0};
  point.distance = units::Feet{16.0};
  point.seed = 9;
  const rx::BerResult r = run_overlay_ber(point, tag::DataRate::k1600bps, 160);
  EXPECT_EQ(r.bit_errors, 8U);
  EXPECT_EQ(r.bits_compared, 160U);
  EXPECT_EQ(r.ber, 0.05);
}

TEST(ExperimentPins, OverlayBerCar) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-55.0};
  point.distance = units::Feet{60.0};
  point.receiver = ReceiverKind::kCar;
  point.seed = 10;
  const rx::BerResult r = run_overlay_ber(point, tag::DataRate::k1600bps, 160);
  EXPECT_EQ(r.bit_errors, 53U);
  EXPECT_EQ(r.bits_compared, 160U);
  EXPECT_EQ(r.ber, 0.33124999999999999);
}

TEST(ExperimentPins, StereoBer) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-55.0};
  point.distance = units::Feet{10.0};
  point.stereo_station = false;  // the tag inserts the pilot
  point.seed = 11;
  const rx::BerResult r = run_stereo_ber(point, tag::DataRate::k1600bps, 480);
  EXPECT_EQ(r.bit_errors, 0U);
  EXPECT_EQ(r.bits_compared, 480U);
  EXPECT_EQ(r.ber, 0.0);
}

TEST(ExperimentPins, StereoBerStereoStation) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-55.0};
  point.distance = units::Feet{12.0};
  point.seed = 18;  // stereo station: the tag rides its L-R stream
  const rx::BerResult r = run_stereo_ber(point, tag::DataRate::k1600bps, 480);
  EXPECT_EQ(r.bit_errors, 0U);
  EXPECT_EQ(r.bits_compared, 480U);
  EXPECT_EQ(r.ber, 0.0);
}

TEST(ExperimentPins, OverlayBerMrcOneRepetition) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-60.0};
  point.distance = units::Feet{16.0};
  point.seed = 15;
  const rx::BerResult r =
      run_overlay_ber_mrc(point, tag::DataRate::k1600bps, 160, 1);
  EXPECT_EQ(r.bit_errors, 26U);
  EXPECT_EQ(r.bits_compared, 160U);
  EXPECT_EQ(r.ber, 0.16250000000000001);
}

TEST(ExperimentPins, OverlayBerMrcThreeRepetitions) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-60.0};
  point.distance = units::Feet{16.0};
  point.seed = 15;
  const rx::BerResult r =
      run_overlay_ber_mrc(point, tag::DataRate::k1600bps, 160, 3);
  EXPECT_EQ(r.bit_errors, 2U);
  EXPECT_EQ(r.bits_compared, 160U);
  EXPECT_EQ(r.ber, 0.012500000000000001);
}

TEST(ExperimentPins, OverlayBerCodedHamming) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-58.0};
  point.distance = units::Feet{16.0};
  point.seed = 16;
  const rx::BerResult r = run_overlay_ber_coded(
      point, tag::DataRate::k1600bps, 96, tag::FecScheme::kHamming74);
  EXPECT_EQ(r.bit_errors, 3U);
  EXPECT_EQ(r.bits_compared, 96U);
  EXPECT_EQ(r.ber, 0.03125);
}

TEST(ExperimentPins, ToneSnrCar) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-30.0};
  point.distance = units::Feet{60.0};
  point.receiver = ReceiverKind::kCar;
  point.seed = 19;
  EXPECT_EQ(run_tone_snr(point, units::Hertz{1000.0}, /*stereo_band=*/false,
                         units::Seconds{0.5}),
            per_build(48.451746885787131, 48.4517430376468));
}

TEST(ExperimentPins, OverlayPesq) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-35.0};
  point.distance = units::Feet{6.0};
  point.seed = 12;
  EXPECT_EQ(run_overlay_pesq(point, units::Seconds{1.0}),
            per_build(2.7751316963849284, 2.7751316989263377));
}

TEST(ExperimentPins, OverlayPesqCarMonoStation) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-30.0};
  point.distance = units::Feet{60.0};
  point.receiver = ReceiverKind::kCar;
  point.stereo_station = false;
  point.seed = 20;
  EXPECT_EQ(run_overlay_pesq(point, units::Seconds{1.0}),
            per_build(2.375426440240946, 2.3754264413828965));
}

TEST(ExperimentPins, StereoPesq) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-50.0};
  point.distance = units::Feet{8.0};
  point.seed = 17;
  EXPECT_EQ(run_stereo_pesq(point, units::Seconds{1.0}),
            per_build(3.4638290357969335, 3.4638290657837296));
}

TEST(ExperimentPins, CooperativePesq) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-35.0};
  point.distance = units::Feet{6.0};
  point.seed = 13;
  EXPECT_EQ(run_cooperative_pesq(point, units::Seconds{1.0}),
            per_build(3.7951118409519684, 3.7951118043393657));
}

TEST(ExperimentPins, FabricBerWithMrc) {
  const rx::BerResult r =
      run_fabric_ber(channel::Mobility::kWalking, tag::DataRate::k1600bps, 96,
                     /*mrc_repetitions=*/2, /*seed=*/14);
  EXPECT_EQ(r.bit_errors, 0U);
  EXPECT_EQ(r.bits_compared, 96U);
  EXPECT_EQ(r.ber, 0.0);
}

}  // namespace
}  // namespace fmbs::core
