#include "dsp/math_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fmbs::dsp {
namespace {

TEST(MathUtil, DbPowerRoundTrip) {
  EXPECT_NEAR(db_from_power_ratio(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_from_power_ratio(1.0), 0.0, 1e-12);
  EXPECT_NEAR(db_from_power_ratio(0.5), -3.0103, 1e-3);
}

TEST(MathUtil, DbClampsNonPositive) {
  EXPECT_LE(db_from_power_ratio(0.0), -299.0);
  EXPECT_LE(db_from_power_ratio(-5.0), -299.0);
  EXPECT_LE(db_from_amplitude_ratio(0.0), -299.0);
  EXPECT_LE(dbm_from_watts(0.0), -299.0);
}

TEST(MathUtil, AmplitudeDb) {
  EXPECT_NEAR(db_from_amplitude_ratio(10.0), 20.0, 1e-12);
  EXPECT_NEAR(amplitude_ratio_from_db(6.0205999), 2.0, 1e-6);
}

TEST(MathUtil, DbmWattsRoundTrip) {
  EXPECT_NEAR(watts_from_dbm(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(watts_from_dbm(30.0), 1.0, 1e-9);
  EXPECT_NEAR(dbm_from_watts(watts_from_dbm(-35.15)), -35.15, 1e-9);
}

TEST(MathUtil, Sinc) {
  EXPECT_NEAR(sinc(0.0), 1.0, 1e-15);
  EXPECT_NEAR(sinc(1.0), 0.0, 1e-12);
  EXPECT_NEAR(sinc(0.5), 2.0 / kPi, 1e-12);
  EXPECT_NEAR(sinc(-0.5), 2.0 / kPi, 1e-12);
}

TEST(MathUtil, MeanAndStddev) {
  const std::vector<float> x{1.0F, 2.0F, 3.0F, 4.0F};
  EXPECT_NEAR(mean(std::span<const float>(x)), 2.5, 1e-12);
  EXPECT_NEAR(stddev(std::span<const float>(x)), std::sqrt(1.25), 1e-6);
  EXPECT_EQ(mean(std::span<const float>{}), 0.0);
  EXPECT_EQ(stddev(std::span<const float>(x.data(), 1)), 0.0);
}

TEST(MathUtil, RmsAndMeanSquare) {
  const std::vector<float> x{3.0F, -3.0F, 3.0F, -3.0F};
  EXPECT_NEAR(mean_square(x), 9.0, 1e-9);
  EXPECT_NEAR(rms(x), 3.0, 1e-9);
}

TEST(MathUtil, QuantileInterpolates) {
  const std::vector<double> x{4.0, 1.0, 3.0, 2.0};
  EXPECT_NEAR(quantile(x, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(quantile(x, 1.0), 4.0, 1e-12);
  EXPECT_NEAR(quantile(x, 0.5), 2.5, 1e-12);
}

TEST(MathUtil, QuantileValidatesInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  const std::vector<double> x{1.0};
  EXPECT_THROW(quantile(x, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(x, 1.1), std::invalid_argument);
}

TEST(MathUtil, CdfAtMatchesQuantiles) {
  const std::vector<double> x{10.0, 20.0, 30.0, 40.0, 50.0};
  const std::vector<double> ps{0.0, 0.5, 1.0};
  const auto vals = cdf_at(x, ps);
  ASSERT_EQ(vals.size(), 3U);
  EXPECT_NEAR(vals[0], 10.0, 1e-12);
  EXPECT_NEAR(vals[1], 30.0, 1e-12);
  EXPECT_NEAR(vals[2], 50.0, 1e-12);
}

}  // namespace
}  // namespace fmbs::dsp
