#include "dsp/fir.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>

#include "dsp/math_util.h"
#include "support/run_stage.h"

namespace fmbs::dsp {
namespace {

// Measures |H(f)| of a tap set at a normalized frequency.
double gain_at(const std::vector<float>& taps, double f) {
  double re = 0.0, im = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    re += taps[i] * std::cos(kTwoPi * f * static_cast<double>(i));
    im -= taps[i] * std::sin(kTwoPi * f * static_cast<double>(i));
  }
  return std::hypot(re, im);
}

TEST(FirDesign, LowpassUnityDcAndStopband) {
  const auto taps = fir_design_lowpass(101, 0.1);
  EXPECT_NEAR(gain_at(taps, 0.0), 1.0, 1e-6);
  EXPECT_GT(gain_at(taps, 0.05), 0.95);
  EXPECT_LT(gain_at(taps, 0.2), 0.01);
  EXPECT_LT(gain_at(taps, 0.4), 0.01);
}

TEST(FirDesign, LowpassHalfPowerAtCutoff) {
  const auto taps = fir_design_lowpass(201, 0.125);
  EXPECT_NEAR(gain_at(taps, 0.125), 0.5, 0.05);
}

TEST(FirDesign, BandpassPassesCenterRejectsEdges) {
  const auto taps = fir_design_bandpass(201, 0.1, 0.2);
  EXPECT_NEAR(gain_at(taps, 0.15), 1.0, 0.02);
  EXPECT_LT(gain_at(taps, 0.02), 0.02);
  EXPECT_LT(gain_at(taps, 0.35), 0.02);
}

TEST(FirDesign, KaiserMeetsAttenuation) {
  const auto taps = fir_design_kaiser_lowpass(0.1, 0.05, 60.0);
  EXPECT_NEAR(gain_at(taps, 0.0), 1.0, 1e-6);
  // Past the transition band the response must be below -55 dB (5 dB slack).
  for (double f = 0.16; f < 0.5; f += 0.02) {
    EXPECT_LT(db_from_amplitude_ratio(gain_at(taps, f)), -55.0) << "f=" << f;
  }
}

TEST(FirDesign, Validation) {
  EXPECT_THROW(fir_design_lowpass(0, 0.1), std::invalid_argument);
  EXPECT_THROW(fir_design_lowpass(11, 0.0), std::invalid_argument);
  EXPECT_THROW(fir_design_lowpass(11, 0.5), std::invalid_argument);
  EXPECT_THROW(fir_design_bandpass(11, 0.3, 0.2), std::invalid_argument);
}

TEST(FirFilter, ImpulseResponseEqualsTaps) {
  const std::vector<float> taps{0.5F, 0.25F, 0.125F};
  FirFilter<float> filt(taps);
  std::vector<float> impulse(8, 0.0F);
  impulse[0] = 1.0F;
  const auto out = test::run_stage(filt, impulse);
  EXPECT_NEAR(out[0], 0.5F, 1e-6F);
  EXPECT_NEAR(out[1], 0.25F, 1e-6F);
  EXPECT_NEAR(out[2], 0.125F, 1e-6F);
  EXPECT_NEAR(out[3], 0.0F, 1e-6F);
}

TEST(FirFilter, BlockBoundariesSeamless) {
  const auto taps = fir_design_lowpass(31, 0.2);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  std::vector<float> x(300);
  for (auto& v : x) v = u(rng);

  FirFilter<float> whole(taps);
  const auto ref = test::run_stage(whole, x);

  FirFilter<float> chunked(taps);
  std::vector<float> got;
  for (std::size_t start = 0; start < x.size(); start += 37) {
    const std::size_t len = std::min<std::size_t>(37, x.size() - start);
    const auto part = test::run_stage(
        chunked, std::span<const float>(x.data() + start, len));
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-5F) << "mismatch at " << i;
  }
}

TEST(FirFilter, ComplexSamplesWork) {
  const auto taps = fir_design_lowpass(21, 0.25);
  FirFilter<cfloat> filt(taps);
  cvec x(64, cfloat(1.0F, -1.0F));
  const auto out = test::run_stage(filt, x);
  // DC gain 1: steady state should approach the input value.
  EXPECT_NEAR(out.back().real(), 1.0F, 1e-3F);
  EXPECT_NEAR(out.back().imag(), -1.0F, 1e-3F);
}

TEST(FirFilter, ResetClearsHistory) {
  const std::vector<float> taps{1.0F, 1.0F};
  FirFilter<float> filt(taps);
  std::vector<float> ones(4, 1.0F);
  (void)test::run_stage(filt, ones);
  filt.reset();
  const auto out = test::run_stage(filt, ones);
  EXPECT_NEAR(out[0], 1.0F, 1e-6F);  // history zero again
}

TEST(FirDecimator, MatchesFilterThenKeep) {
  const auto taps = fir_design_lowpass(31, 0.08);
  std::mt19937 rng(8);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  std::vector<float> x(200);
  for (auto& v : x) v = u(rng);

  FirFilter<float> full(taps);
  const auto filtered = test::run_stage(full, x);
  FirDecimator<float> dec(taps, 5);
  const auto decimated = test::run_stage(dec, x);
  ASSERT_EQ(decimated.size(), x.size() / 5);
  for (std::size_t i = 0; i < decimated.size(); ++i) {
    EXPECT_NEAR(decimated[i], filtered[i * 5], 1e-5F);
  }
}

TEST(FirDecimator, RejectsBadBlocks) {
  FirDecimator<float> dec(fir_design_lowpass(11, 0.1), 4);
  std::vector<float> x(10);
  EXPECT_THROW(test::run_stage(dec, x), std::invalid_argument);
}

TEST(FirInterpolator, PreservesAmplitudeAndSpectrum) {
  const std::size_t factor = 4;
  const auto proto = fir_design_lowpass(64 * factor + 1, 0.45 / factor);
  FirInterpolator<float> interp(proto, factor);
  // A slow sine should come out with the same amplitude at 4x the rate.
  std::vector<float> x(256);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(static_cast<float>(kTwoPi * 0.01 * i));
  }
  const auto y = test::run_stage(interp, x);
  ASSERT_EQ(y.size(), x.size() * factor);
  float peak = 0.0F;
  for (std::size_t i = y.size() / 2; i < y.size(); ++i) {
    peak = std::max(peak, std::abs(y[i]));
  }
  EXPECT_NEAR(peak, 1.0F, 0.03F);
}

TEST(FirInterpolator, StreamingMatchesOneShot) {
  const std::size_t factor = 3;
  const auto proto = fir_design_lowpass(8 * factor + 1, 0.4 / factor);
  std::mt19937 rng(9);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  std::vector<float> x(120);
  for (auto& v : x) v = u(rng);

  FirInterpolator<float> whole(proto, factor);
  const auto ref = test::run_stage(whole, x);
  FirInterpolator<float> chunked(proto, factor);
  std::vector<float> got;
  for (std::size_t start = 0; start < x.size(); start += 17) {
    const std::size_t len = std::min<std::size_t>(17, x.size() - start);
    const auto part = test::run_stage(
        chunked, std::span<const float>(x.data() + start, len));
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-5F);
  }
}

TEST(FirInterpolator, InterpolateThenDecimateIsNearIdentity) {
  const std::size_t factor = 5;
  const auto proto = fir_design_lowpass(32 * factor + 1, 0.45 / factor);
  FirInterpolator<float> up(proto, factor);
  FirDecimator<float> down(proto, factor);
  std::vector<float> x(400);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(static_cast<float>(kTwoPi * 0.02 * i)) +
           0.5F * std::sin(static_cast<float>(kTwoPi * 0.07 * i));
  }
  const auto hi = test::run_stage(up, x);
  const auto back = test::run_stage(down, hi);
  // Compare mid-signal (skip both filters' group delays).
  const std::size_t delay = (proto.size() - 1) / factor;  // in low-rate samples
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 100; i + delay < back.size() && i < 300; ++i) {
    const double d = back[i + delay] - x[i];
    err += d * d;
    ref += static_cast<double>(x[i]) * x[i];
  }
  EXPECT_LT(err / ref, 0.01);
}

}  // namespace
}  // namespace fmbs::dsp
