#include "dsp/iir.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/math_util.h"

namespace fmbs::dsp {
namespace {

// Steady-state gain of a streaming filter at a normalized frequency,
// measured by driving it with a sinusoid and comparing RMS.
template <typename Filter>
double measured_gain(Filter& filt, double f) {
  const std::size_t n = 8000;
  double in_sq = 0.0, out_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(std::sin(kTwoPi * f * static_cast<double>(i)));
    const float y = filt.process_sample(x);
    if (i > n / 2) {  // skip transient
      in_sq += static_cast<double>(x) * x;
      out_sq += static_cast<double>(y) * y;
    }
  }
  return std::sqrt(out_sq / in_sq);
}

TEST(Biquad, LowpassGainShape) {
  Biquad lp(biquad_lowpass(0.05, 0.707));
  EXPECT_NEAR(measured_gain(lp, 0.005), 1.0, 0.02);
  lp.reset();
  EXPECT_NEAR(measured_gain(lp, 0.05), 0.707, 0.03);
  lp.reset();
  EXPECT_LT(measured_gain(lp, 0.3), 0.05);
}

TEST(Biquad, HighpassGainShape) {
  Biquad hp(biquad_highpass(0.05, 0.707));
  EXPECT_LT(measured_gain(hp, 0.005), 0.05);
  hp.reset();
  EXPECT_NEAR(measured_gain(hp, 0.25), 1.0, 0.02);
}

TEST(Biquad, BandpassPeaksAtCenter) {
  Biquad bp(biquad_bandpass(0.1, 5.0));
  EXPECT_NEAR(measured_gain(bp, 0.1), 1.0, 0.05);
  bp.reset();
  EXPECT_LT(measured_gain(bp, 0.02), 0.15);
  bp.reset();
  EXPECT_LT(measured_gain(bp, 0.3), 0.15);
}

TEST(Biquad, NotchKillsCenter) {
  Biquad nc(biquad_notch(0.12, 8.0));
  EXPECT_LT(measured_gain(nc, 0.12), 0.05);
  nc.reset();
  EXPECT_NEAR(measured_gain(nc, 0.02), 1.0, 0.05);
}

TEST(Biquad, DesignValidation) {
  EXPECT_THROW(biquad_lowpass(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(biquad_lowpass(0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(biquad_lowpass(0.1, 0.0), std::invalid_argument);
}

TEST(BiquadCascade, SteeperThanSingle) {
  Biquad single(biquad_lowpass(0.05, 0.707));
  BiquadCascade cascade({biquad_lowpass(0.05, 0.54), biquad_lowpass(0.05, 1.31)});
  const double g1 = measured_gain(single, 0.15);
  const double g4 = measured_gain(cascade, 0.15);
  EXPECT_LT(g4, g1 * 0.5);
}

TEST(BiquadCascade, EmptyThrows) {
  EXPECT_THROW(BiquadCascade({}), std::invalid_argument);
}

TEST(OnePoleLowpass, CornerGain) {
  auto lp = OnePoleLowpass::from_corner(50.0, 48000.0);
  EXPECT_NEAR(measured_gain(lp, 50.0 / 48000.0), 0.707, 0.05);
}

TEST(OnePoleLowpass, Validation) {
  EXPECT_THROW(OnePoleLowpass::from_corner(0.0, 1000.0), std::invalid_argument);
  EXPECT_THROW(OnePoleLowpass::from_corner(50.0, 0.0), std::invalid_argument);
  EXPECT_THROW(OnePoleLowpass(0.0), std::invalid_argument);
  EXPECT_THROW(OnePoleLowpass(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::dsp
