#include "channel/link_budget.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "dsp/math_util.h"

namespace fmbs::channel {
namespace {

using namespace fmbs::units::literals;

TEST(Units, FeetMeters) {
  EXPECT_NEAR(units::Feet{1.0}.to_meters().raw(), 0.3048, 1e-9);
  EXPECT_NEAR(units::Feet{20.0}.to_meters().to_feet().raw(), 20.0, 1e-9);
}

TEST(Units, Wavelength) {
  // ~3.16 m at 94.9 MHz.
  EXPECT_NEAR((94.9_mhz).wavelength().raw(), 3.159, 0.01);
}

TEST(Friis, MatchesClosedForm) {
  // FSPL(d, f) = 20 log10(4 pi d / lambda); at 1 m, 94.9 MHz: ~11.96 dB? No:
  // 4*pi*1/3.159 = 3.977 -> 20log10 = 11.99 dB.
  EXPECT_NEAR(friis_path_loss(1.0_m, 94.9_mhz).raw(), 12.0, 0.1);
  // +20 dB per decade of distance.
  EXPECT_NEAR(
      (friis_path_loss(10.0_m, 94.9_mhz) - friis_path_loss(1.0_m, 94.9_mhz))
          .raw(),
      20.0, 1e-6);
}

TEST(Friis, NearFieldClamped) {
  // Inside lambda/2pi the loss stops shrinking.
  const units::Hertz f = 94.9_mhz;
  const units::Db near_loss = friis_path_loss(units::Meters{0.01}, f);
  const units::Db boundary = friis_path_loss(
      units::Meters{f.wavelength().raw() / (2.0 * dsp::kPi)}, f);
  EXPECT_NEAR(near_loss.raw(), boundary.raw(), 1e-9);
}

TEST(Friis, Validation) {
  EXPECT_THROW(friis_path_loss(units::Meters{0.0}, 94.9_mhz),
               std::invalid_argument);
  EXPECT_THROW(friis_path_loss(1.0_m, units::Hertz{0.0}),
               std::invalid_argument);
}

TEST(TwoRay, MatchesFreeSpaceUpClose) {
  // Well inside the first Fresnel zone the ground bounce barely matters.
  const units::Db friis = friis_path_loss(1.0_m, 94.9_mhz);
  const units::Db two_ray =
      two_ray_path_loss(1.0_m, 94.9_mhz, units::Meters{1.5}, units::Meters{1.2});
  EXPECT_NEAR(two_ray.raw(), friis.raw(), 6.0);
}

TEST(TwoRay, FourthPowerFalloffFarOut) {
  // Beyond the crossover the two-ray model decays ~40 dB/decade.
  const units::Hertz f = 94.9_mhz;
  const units::Meters h{1.5};
  const double crossover = 4.0 * h.raw() * h.raw() / f.wavelength().raw();
  const units::Meters d1{crossover * 10.0};
  const units::Meters d2{crossover * 100.0};
  const double slope =
      (two_ray_path_loss(d2, f, h, h) - two_ray_path_loss(d1, f, h, h)).raw();
  EXPECT_NEAR(slope, 40.0, 6.0);
}

TEST(TwoRay, PinnedValues) {
  // Exact values of the -1-reflection field sum across the near field, the
  // Fresnel zone and the fourth-power regime; the ground ray is built as a
  // negated non-negative polar so libstdc++'s precondition checks hold.
  const units::Meters h_tx{1.5};
  const units::Meters h_rx{1.2};
  const auto loss = [&](double meters) {
    return two_ray_path_loss(units::Meters{meters}, 94.9_mhz, h_tx, h_rx).raw();
  };
  EXPECT_EQ(loss(0.5), 6.490022517548101);
  EXPECT_EQ(loss(3.0), 18.112269748527741);
  EXPECT_EQ(loss(30.0), 54.034209493329151);
  EXPECT_EQ(loss(300.0), 93.979950155749847);
  EXPECT_EQ(loss(3000.0), 133.97940558941275);
}

TEST(TwoRay, Validation) {
  EXPECT_THROW(two_ray_path_loss(units::Meters{0.0}, 94.9_mhz,
                                 units::Meters{1.5}, units::Meters{1.2}),
               std::invalid_argument);
  EXPECT_THROW(two_ray_path_loss(1.0_m, 94.9_mhz, units::Meters{0.0},
                                 units::Meters{1.2}),
               std::invalid_argument);
}

TEST(TwoRay, BudgetOptionChangesLoss) {
  LinkBudgetConfig free_space;
  LinkBudgetConfig two_ray;
  two_ray.use_two_ray = true;
  const units::Meters d =
      units::Feet{60.0}.to_meters();  // car range where ground matters
  const LinkBudget a = compute_link_budget(-20.0_dbm, -20.0_dbm, d, free_space);
  const LinkBudget b = compute_link_budget(-20.0_dbm, -20.0_dbm, d, two_ray);
  EXPECT_NE(a.backscatter_gain.raw(), b.backscatter_gain.raw());
}

TEST(LinkBudget, DirectDefaultsToTagPower) {
  const LinkBudget b = compute_link_budget(-30.0_dbm, std::nullopt,
                                           units::Feet{4.0}.to_meters());
  EXPECT_NEAR(dsp::dbm_from_watts(b.direct_amplitude * b.direct_amplitude),
              -30.0, 1e-6);
}

TEST(LinkBudget, BackscatterLossGrowsWithDistance) {
  const LinkBudget near = compute_link_budget(-30.0_dbm, -30.0_dbm,
                                              units::Feet{2.0}.to_meters());
  const LinkBudget far = compute_link_budget(-30.0_dbm, -30.0_dbm,
                                             units::Feet{20.0}.to_meters());
  EXPECT_GT(near.backscatter_amplitude, far.backscatter_amplitude);
  // 10x the distance: 20 dB more loss.
  EXPECT_NEAR((near.backscatter_gain - far.backscatter_gain).raw(), 20.0, 0.5);
}

TEST(LinkBudget, ScalesLinearlyWithTagPower) {
  const LinkBudget a = compute_link_budget(-20.0_dbm, -20.0_dbm, 1.0_m);
  const LinkBudget b = compute_link_budget(-40.0_dbm, -40.0_dbm, 1.0_m);
  EXPECT_NEAR(
      dsp::db_from_amplitude_ratio(a.backscatter_amplitude / b.backscatter_amplitude),
      20.0, 1e-6);
  EXPECT_NEAR(a.backscatter_gain.raw(), b.backscatter_gain.raw(), 1e-9);
}

TEST(LinkBudget, ReflectionAmplitudeMatters) {
  LinkBudgetConfig ideal;
  ideal.reflection_amplitude = 1.0;
  LinkBudgetConfig lossy;
  lossy.reflection_amplitude = 0.5;
  const LinkBudget a = compute_link_budget(-30.0_dbm, -30.0_dbm, 2.0_m, ideal);
  const LinkBudget b = compute_link_budget(-30.0_dbm, -30.0_dbm, 2.0_m, lossy);
  EXPECT_NEAR((a.backscatter_gain - b.backscatter_gain).raw(), 6.02, 0.1);
}

TEST(LinkBudget, PlausibleMagnitudesAtPaperOperatingPoint) {
  // -30 dBm at the tag, 4 ft to the phone: the received backscatter power
  // (before the ~4 dB sideband split) should be tens of dB above the phone
  // noise floor — consistent with the paper's working system at this range.
  const LinkBudget b = compute_link_budget(-30.0_dbm, -30.0_dbm,
                                           units::Feet{4.0}.to_meters());
  const units::Dbm p_rx = units::Watts{b.backscatter_amplitude *
                                       b.backscatter_amplitude}
                              .to_dbm();
  EXPECT_GT(p_rx.raw(), (ReceiverNoise::kPhonePer200kHz + units::Db{15.0}).raw());
  EXPECT_LT(p_rx, -30.0_dbm);  // must be below the power at the tag
}

}  // namespace
}  // namespace fmbs::channel
