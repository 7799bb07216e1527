#include "dsp/resample.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/goertzel.h"
#include "dsp/math_util.h"

namespace fmbs::dsp {
namespace {

std::vector<float> tone(double f, double fs, std::size_t n) {
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(std::sin(kTwoPi * f * static_cast<double>(i) / fs));
  }
  return x;
}

TEST(UpsampleLinear, FactorOneIsIdentity) {
  const std::vector<float> x{1.0F, 2.0F, 3.0F};
  const auto y = upsample_linear(x, 1);
  EXPECT_EQ(y, x);
}

TEST(UpsampleLinear, InterpolatesMidpoints) {
  const std::vector<float> x{0.0F, 1.0F, 0.0F};
  const auto y = upsample_linear(x, 2);
  ASSERT_EQ(y.size(), 5U);
  EXPECT_NEAR(y[0], 0.0F, 1e-6F);
  EXPECT_NEAR(y[1], 0.5F, 1e-6F);
  EXPECT_NEAR(y[2], 1.0F, 1e-6F);
  EXPECT_NEAR(y[3], 0.5F, 1e-6F);
  EXPECT_NEAR(y[4], 0.0F, 1e-6F);
}

TEST(UpsampleLinear, FactorTenToneSurvives) {
  // The cooperative path: x10 upsampling must preserve audio content.
  const auto x = tone(1000.0, 48000.0, 4800);
  const auto y = upsample_linear(x, 10);
  EXPECT_NEAR(goertzel_power(y, 1000.0, 480000.0), 0.25, 0.02);
}

TEST(UpsampleLinear, Validation) {
  EXPECT_THROW(upsample_linear(std::vector<float>{1.0F}, 0),
               std::invalid_argument);
}

TEST(DownsampleKeep, TakesEveryNth) {
  const std::vector<float> x{0.0F, 1.0F, 2.0F, 3.0F, 4.0F, 5.0F};
  const auto y = downsample_keep(x, 3);
  ASSERT_EQ(y.size(), 2U);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 3.0F);
}

TEST(DownsampleKeep, InverseOfUpsampleLinear) {
  const auto x = tone(440.0, 48000.0, 1000);
  const auto y = downsample_keep(upsample_linear(x, 10), 10);
  ASSERT_EQ(y.size(), x.size() - 0);
  for (std::size_t i = 0; i < x.size() - 1; ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-6F);
  }
}

TEST(ResampleRational, UpsampleByTwoKeepsTone) {
  const auto x = tone(1000.0, 24000.0, 4800);
  const auto y = resample_rational(x, 2, 1);
  EXPECT_NEAR(static_cast<double>(y.size()), 9600.0, 16.0);
  EXPECT_NEAR(goertzel_power(y, 1000.0, 48000.0), 0.25, 0.03);
}

TEST(ResampleRational, FortyFourOneToFortyEight) {
  // The classic audio conversion 44.1 kHz -> 48 kHz is 160/147.
  const auto x = tone(997.0, 44100.0, 44100);
  const auto y = resample_rational(x, 160, 147);
  EXPECT_NEAR(static_cast<double>(y.size()), 48000.0, 200.0);
  EXPECT_NEAR(goertzel_power(y, 997.0, 48000.0), 0.25, 0.03);
}

TEST(ResampleRational, ReducesGcdInternally) {
  const auto x = tone(100.0, 8000.0, 800);
  const auto a = resample_rational(x, 4, 2);
  const auto b = resample_rational(x, 2, 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-5F);
}

TEST(ResampleRational, Validation) {
  const std::vector<float> x{1.0F};
  EXPECT_THROW(resample_rational(x, 0, 1), std::invalid_argument);
  EXPECT_THROW(resample_rational(x, 1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::dsp
