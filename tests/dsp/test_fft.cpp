#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dsp/math_util.h"

namespace fmbs::dsp {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1U);
  EXPECT_EQ(next_pow2(1), 1U);
  EXPECT_EQ(next_pow2(2), 2U);
  EXPECT_EQ(next_pow2(3), 4U);
  EXPECT_EQ(next_pow2(1024), 1024U);
  EXPECT_EQ(next_pow2(1025), 2048U);
}

TEST(Fft, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(96));
}

TEST(Fft, PlanRejectsNonPow2) {
  EXPECT_THROW(FftPlan(12), std::invalid_argument);
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  cvec x(16);
  x[0] = cfloat(1.0F, 0.0F);
  FftPlan plan(16);
  plan.forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0F, 1e-5F);
    EXPECT_NEAR(v.imag(), 0.0F, 1e-5F);
  }
}

TEST(Fft, SingleBinTone) {
  const std::size_t n = 64;
  cvec x(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = kTwoPi * k * static_cast<double>(i) / n;
    x[i] = cfloat(static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph)));
  }
  FftPlan plan(n);
  plan.forward(x);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == static_cast<std::size_t>(k)) {
      EXPECT_NEAR(std::abs(x[i]), static_cast<float>(n), 1e-3);
    } else {
      EXPECT_LT(std::abs(x[i]), 1e-3F) << "leakage at bin " << i;
    }
  }
}

TEST(Fft, RoundTripIdentity) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  cvec x(256);
  for (auto& v : x) v = cfloat(u(rng), u(rng));
  cvec y = x;
  FftPlan plan(256);
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), y[i].real(), 1e-4F);
    EXPECT_NEAR(x[i].imag(), y[i].imag(), 1e-4F);
  }
}

TEST(Fft, ParsevalHolds) {
  std::mt19937 rng(4);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  cvec x(128);
  for (auto& v : x) v = cfloat(u(rng), u(rng));
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  cvec y = x;
  FftPlan plan(128);
  plan.forward(y);
  double freq_energy = 0.0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 128.0, time_energy, time_energy * 1e-4);
}

TEST(Fft, LinearityHolds) {
  const std::size_t n = 64;
  cvec a(n), b(n), sum(n);
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = cfloat(u(rng), u(rng));
    b[i] = cfloat(u(rng), u(rng));
    sum[i] = a[i] + 2.0F * b[i];
  }
  FftPlan plan(n);
  plan.forward(a);
  plan.forward(b);
  plan.forward(sum);
  for (std::size_t i = 0; i < n; ++i) {
    const cfloat expect = a[i] + 2.0F * b[i];
    EXPECT_NEAR(sum[i].real(), expect.real(), 2e-3F);
    EXPECT_NEAR(sum[i].imag(), expect.imag(), 2e-3F);
  }
}

TEST(PlanReuse, ManyTransformsStayConsistent) {
  FftPlan plan(32);
  cvec ref(32);
  ref[3] = cfloat(1.0F, 0.0F);
  cvec first = ref;
  plan.forward(first);
  for (int iter = 0; iter < 10; ++iter) {
    cvec again = ref;
    plan.forward(again);
    for (std::size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i], first[i]);
    }
  }
}

}  // namespace
}  // namespace fmbs::dsp
