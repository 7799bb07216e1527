#include "dsp/goertzel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dsp/math_util.h"

namespace fmbs::dsp {
namespace {

std::vector<float> tone(double f, double fs, std::size_t n, double amp = 1.0) {
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(amp * std::sin(kTwoPi * f * static_cast<double>(i) / fs));
  }
  return x;
}

TEST(Goertzel, UnitToneMeasuresQuarter) {
  const auto x = tone(1000.0, 48000.0, 4800);
  EXPECT_NEAR(goertzel_power(x, 1000.0, 48000.0), 0.25, 0.01);
}

TEST(Goertzel, PowerScalesWithAmplitudeSquared) {
  const auto x = tone(2000.0, 48000.0, 4800, 0.5);
  EXPECT_NEAR(goertzel_power(x, 2000.0, 48000.0), 0.25 * 0.25, 0.005);
}

TEST(Goertzel, RejectsOffFrequency) {
  const auto x = tone(1000.0, 48000.0, 4800);
  EXPECT_LT(goertzel_power(x, 3000.0, 48000.0), 1e-4);
}

TEST(Goertzel, IndependentOfBlockLength) {
  const auto x1 = tone(8000.0, 48000.0, 480);
  const auto x2 = tone(8000.0, 48000.0, 9600);
  EXPECT_NEAR(goertzel_power(x1, 8000.0, 48000.0),
              goertzel_power(x2, 8000.0, 48000.0), 0.02);
}

TEST(Goertzel, Validation) {
  const auto x = tone(100.0, 1000.0, 100);
  EXPECT_THROW(goertzel_power(x, 0.0, 1000.0), std::invalid_argument);
  EXPECT_THROW(goertzel_power(x, 500.0, 1000.0), std::invalid_argument);
  EXPECT_THROW(goertzel_power(x, 100.0, 0.0), std::invalid_argument);
}

TEST(GoertzelBank, DetectsStrongestTone) {
  // The paper's 2-FSK detector: 8 kHz vs 12 kHz.
  GoertzelBank bank({8000.0, 12000.0}, 48000.0);
  const auto zero = tone(8000.0, 48000.0, 480);
  const auto one = tone(12000.0, 48000.0, 480);
  EXPECT_EQ(bank.detect(zero), 0U);
  EXPECT_EQ(bank.detect(one), 1U);
}

TEST(GoertzelBank, DetectsInNoise) {
  std::mt19937 rng(11);
  std::normal_distribution<float> n(0.0F, 0.5F);
  auto x = tone(12000.0, 48000.0, 480);
  for (auto& v : x) v += n(rng);
  GoertzelBank bank({8000.0, 12000.0}, 48000.0);
  EXPECT_EQ(bank.detect(x), 1U);
}

TEST(GoertzelBank, PowersParallelToTones) {
  GoertzelBank bank({800.0, 1600.0, 2400.0, 3200.0}, 48000.0);
  const auto x = tone(2400.0, 48000.0, 960);
  const auto p = bank.powers(x);
  ASSERT_EQ(p.size(), 4U);
  EXPECT_GT(p[2], 10.0 * p[0]);
  EXPECT_GT(p[2], 10.0 * p[1]);
  EXPECT_GT(p[2], 10.0 * p[3]);
}

TEST(GoertzelBank, SixteenToneFdmSet) {
  // The paper's full FDM-4FSK tone set: 800 Hz ... 12.8 kHz.
  std::vector<double> tones;
  for (int i = 1; i <= 16; ++i) tones.push_back(800.0 * i);
  GoertzelBank bank(tones, 48000.0);
  for (int i = 0; i < 16; ++i) {
    const auto x = tone(800.0 * (i + 1), 48000.0, 120);  // one 400-sps symbol
    EXPECT_EQ(bank.detect(x), static_cast<std::size_t>(i)) << "tone " << i;
  }
}

// The bank (one pass for all tones where the CPU has AVX2) gives each
// tone's goertzel_power to the bit: the stereo pilot detector's three tones
// at the MPX rate over an 8 ms window and a short tail, and the 16-tone
// FSK set over one 1.6 kbps symbol.
TEST(GoertzelBank, PowersEqualGoertzelPowerBitForBit) {
  std::mt19937 rng(9);
  std::normal_distribution<float> noise(0.0F, 0.3F);
  const auto noisy = [&](std::vector<float> x) {
    for (auto& v : x) v += noise(rng);
    return x;
  };
  std::vector<double> fsk;
  for (int i = 1; i <= 16; ++i) fsk.push_back(800.0 * i);
  struct Case {
    std::vector<double> tones;
    double fs;
    std::vector<float> block;
  };
  const std::vector<Case> cases = {
      {{19000.0, 18400.0, 19600.0}, 240000.0, noisy(tone(19000.0, 240000.0, 1920))},
      {{19000.0, 18400.0, 19600.0}, 240000.0, noisy(tone(19000.0, 240000.0, 77))},
      {fsk, 48000.0, noisy(tone(4000.0, 48000.0, 240))}};
  for (const Case& c : cases) {
    const std::vector<double> p = GoertzelBank(c.tones, c.fs).powers(c.block);
    ASSERT_EQ(p.size(), c.tones.size());
    for (std::size_t t = 0; t < c.tones.size(); ++t) {
      EXPECT_EQ(p[t], goertzel_power(c.block, c.tones[t], c.fs))
          << c.tones[t] << " Hz over " << c.block.size() << " samples";
    }
  }
}

TEST(GoertzelBank, Validation) {
  EXPECT_THROW(GoertzelBank({}, 48000.0), std::invalid_argument);
  EXPECT_THROW(GoertzelBank({100.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(GoertzelBank({30000.0}, 48000.0), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::dsp
