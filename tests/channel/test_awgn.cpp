#include "channel/awgn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "core/rng.h"
#include "dsp/fir.h"
#include "dsp/math_util.h"

namespace fmbs::channel {
namespace {

TEST(Awgn, VarianceMatchesSpec) {
  // -90 dBm in 200 kHz at a 2.4 MHz rate -> total power -90 + 10log10(12);
  // at the 240 kHz tuned rate, where the scenario engines add receiver
  // noise, 1.2 x the 200 kHz floor.
  struct Case {
    double rate;
    double ratio;
  };
  for (const Case c : {Case{2400000.0, 12.0}, Case{240000.0, 1.2}}) {
    SCOPED_TRACE(c.rate);
    AwgnSource src(units::Dbm{-90.0}, units::Hertz{200000.0}, c.rate, 1);
    const double expected = dsp::watts_from_dbm(-90.0) * c.ratio;
    EXPECT_NEAR(src.variance(), expected, expected * 1e-9);

    dsp::cvec block(200000);
    src.add_to(block);
    double measured = 0.0;
    for (const auto& v : block) measured += std::norm(v);
    measured /= static_cast<double>(block.size());
    EXPECT_NEAR(measured, expected, expected * 0.05);
  }
}

TEST(Awgn, AddsToExistingSignal) {
  AwgnSource src( units::Dbm{-60.0}, units::Hertz{200000.0}, 2400000.0, 2);
  dsp::cvec block(1000, dsp::cfloat(1.0F, 0.0F));
  src.add_to(block);
  double mean_re = 0.0;
  for (const auto& v : block) mean_re += v.real();
  EXPECT_NEAR(mean_re / 1000.0, 1.0, 0.01);
}

TEST(Awgn, DeterministicPerSeed) {
  AwgnSource a( units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 7);
  AwgnSource b( units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 7);
  AwgnSource c( units::Dbm{-80.0}, units::Hertz{200000.0}, 2400000.0, 8);
  dsp::cvec x(64), y(64), z(64);
  a.add_to(x);
  b.add_to(y);
  c.add_to(z);
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
}

TEST(Awgn, ZeroMeanComplexAndBalanced) {
  AwgnSource src( units::Dbm{-70.0}, units::Hertz{200000.0}, 2400000.0, 3);
  dsp::cvec block(100000);
  src.add_to(block);
  double re = 0.0, im = 0.0, re2 = 0.0, im2 = 0.0;
  for (const auto& v : block) {
    re += v.real();
    im += v.imag();
    re2 += static_cast<double>(v.real()) * v.real();
    im2 += static_cast<double>(v.imag()) * v.imag();
  }
  const double n = static_cast<double>(block.size());
  EXPECT_NEAR(re / n, 0.0, 3.0 * std::sqrt(src.variance() / 2.0 / n));
  EXPECT_NEAR(im / n, 0.0, 3.0 * std::sqrt(src.variance() / 2.0 / n));
  // I/Q power split evenly.
  EXPECT_NEAR(re2 / im2, 1.0, 0.05);
}

// Sample i of the noise takes draws 2i and 2i + 1 of the seed's Gaussian
// stream, the imaginary part first: the order GCC gave the earlier
// cfloat(sigma * dist(rng), sigma * dist(rng)), evaluating its arguments
// right to left. Checked against that order spelled out, unshaped and
// shaped, at cuts on both sides of the source's internal chunk.
TEST(Awgn, DrawOrderIsImagFirst) {
  const std::vector<float> taps = {0.25F, 0.5F, 0.25F};
  for (const bool shaped : {false, true}) {
    SCOPED_TRACE(shaped);
    AwgnSource src(units::Dbm{-80.0}, units::Hertz{200000.0}, 240000.0, 9,
                   shaped ? taps : std::vector<float>{});
    const auto sigma = static_cast<float>(std::sqrt(src.variance() / 2.0));
    core::NormalStream draws(9);
    dsp::cvec noise(3000);
    for (auto& v : noise) {
      const float im = sigma * draws.next();
      const float re = sigma * draws.next();
      v = dsp::cfloat(re, im);
    }
    if (shaped) {
      dsp::FirFilter<dsp::cfloat> shaper(taps);
      shaper.process_into(noise, noise);
    }
    const dsp::cfloat signal(0.5F, -0.25F);
    dsp::cvec want(noise.size(), signal);
    for (std::size_t i = 0; i < want.size(); ++i) want[i] += noise[i];

    dsp::cvec got(noise.size(), signal);
    std::size_t at = 0;
    for (const std::size_t n : {1, 479, 480, 1000, 513, 527}) {
      src.add_to(std::span(got).subspan(at, n));
      at += n;
    }
    ASSERT_EQ(at, got.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(got[0])),
              0);
  }
}

TEST(Awgn, Validation) {
  EXPECT_THROW(AwgnSource( units::Dbm{-90.0}, units::Hertz{0.0}, 2.4e6, 1), std::invalid_argument);
  EXPECT_THROW(AwgnSource( units::Dbm{-90.0}, units::Hertz{2e5}, 0.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::channel
