#include "dsp/correlate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dsp/math_util.h"

namespace fmbs::dsp {
namespace {

std::vector<float> noise(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> d(0.0F, 1.0F);
  std::vector<float> x(n);
  for (auto& v : x) v = d(rng);
  return x;
}

TEST(CrossCorrelate, ZeroLagIsDotProduct) {
  const std::vector<float> a{1.0F, 2.0F, 3.0F};
  const std::vector<float> b{4.0F, 5.0F, 6.0F};
  const auto r = cross_correlate(a, b, 0);
  ASSERT_EQ(r.size(), 1U);
  EXPECT_NEAR(r[0], 32.0, 1e-9);
}

TEST(CrossCorrelate, FindsKnownShift) {
  const auto a = noise(500, 21);
  // b = a delayed by 7: b[n] = a[n-7] so r peaks at k = -7
  // (a[n] matches b[n+(-7)+14?]) — verify empirically via estimate_delay.
  std::vector<float> b(500, 0.0F);
  for (std::size_t i = 7; i < 500; ++i) b[i] = a[i - 7];
  const auto est = estimate_delay(a, b, 20);
  // b must be advanced by 7 samples to align with a.
  EXPECT_NEAR(est.delay_samples, 7.0, 0.25);
  EXPECT_GT(est.peak_correlation, 0.9);
}

TEST(CrossCorrelate, NegativeShiftDetected) {
  const auto a = noise(500, 22);
  std::vector<float> b(500, 0.0F);
  for (std::size_t i = 0; i + 9 < 500; ++i) b[i] = a[i + 9];  // b early by 9
  const auto est = estimate_delay(a, b, 20);
  EXPECT_NEAR(est.delay_samples, -9.0, 0.25);
}

TEST(CrossCorrelate, EmptyThrows) {
  const std::vector<float> a{1.0F};
  EXPECT_THROW(cross_correlate({}, a, 1), std::invalid_argument);
  EXPECT_THROW(cross_correlate(a, {}, 1), std::invalid_argument);
}

TEST(EstimateDelay, SubSampleResolutionOnSmoothSignal) {
  // A sine shifted by half a sample: parabolic interpolation should get
  // within a tenth of a sample.
  const double fs = 100.0;
  std::vector<float> a(400), b(400);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    a[i] = static_cast<float>(std::sin(kTwoPi * 3.0 * t));
    b[i] = static_cast<float>(std::sin(kTwoPi * 3.0 * (t - 0.5 / fs)));
  }
  const auto est = estimate_delay(a, b, 10);
  EXPECT_NEAR(est.delay_samples, 0.5, 0.1);
}

TEST(EstimateDelay, InvertedSignalStillAligns) {
  // Polarity inversion should not confuse peak-picking (|abs| used).
  const auto a = noise(300, 25);
  std::vector<float> b(300, 0.0F);
  for (std::size_t i = 3; i < 300; ++i) b[i] = -a[i - 3];
  const auto est = estimate_delay(a, b, 10);
  EXPECT_NEAR(est.delay_samples, 3.0, 0.25);
}

TEST(ShiftSignal, PositiveDelaysAndZeroFills) {
  const std::vector<float> x{1.0F, 2.0F, 3.0F, 4.0F};
  const auto y = shift_signal(x, 2);
  ASSERT_EQ(y.size(), 4U);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 1.0F);
  EXPECT_EQ(y[3], 2.0F);
}

TEST(ShiftSignal, NegativeAdvances) {
  const std::vector<float> x{1.0F, 2.0F, 3.0F, 4.0F};
  const auto y = shift_signal(x, -1);
  EXPECT_EQ(y[0], 2.0F);
  EXPECT_EQ(y[3], 0.0F);
}

TEST(ShiftSignal, RoundTripIdentityInInterior) {
  const auto x = noise(100, 26);
  const auto y = shift_signal(shift_signal(x, 5), -5);
  for (std::size_t i = 5; i + 5 < x.size(); ++i) {
    EXPECT_EQ(y[i], x[i]);
  }
}

}  // namespace
}  // namespace fmbs::dsp
