#include "dsp/nco.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <span>
#include <vector>

#include "dsp/goertzel.h"
#include "dsp/math_util.h"
#include "support/run_stage.h"

namespace fmbs::dsp {
namespace {

TEST(PhaseAccumulator, WrapsForward) {
  PhaseAccumulator acc;
  for (int i = 0; i < 1000; ++i) acc.advance(1.0);
  EXPECT_GE(acc.phase(), 0.0);
  EXPECT_LT(acc.phase(), kTwoPi);
}

TEST(PhaseAccumulator, WrapsBackward) {
  PhaseAccumulator acc;
  for (int i = 0; i < 1000; ++i) acc.advance(-1.0);
  EXPECT_GE(acc.phase(), 0.0);
  EXPECT_LT(acc.phase(), kTwoPi);
}

TEST(PhaseAccumulator, ReturnsPreAdvancePhase) {
  PhaseAccumulator acc(0.5);
  EXPECT_NEAR(acc.advance(0.25), 0.5, 1e-12);
  EXPECT_NEAR(acc.phase(), 0.75, 1e-12);
}

TEST(PhaseAccumulator, LongRunStaysAccurate) {
  // The double accumulator at RF rates must not drift measurably over a
  // second of samples.
  PhaseAccumulator acc;
  const double step = kTwoPi * 600000.0 / 2400000.0;  // 600 kHz at 2.4 MHz
  for (int i = 0; i < 2400000; ++i) acc.advance(step);
  // After 2.4e6 steps the phase should be (2.4e6 * step) mod 2pi = 0.
  const double p = acc.phase();
  const double dist = std::min(p, kTwoPi - p);
  EXPECT_LT(dist, 1e-5);
}

// PhaseAccumulator::advance as it was written before its one-turn fast
// paths: the floor/ceil formula whose doubles they must reproduce.
double advance_reference(double& phase, double delta) {
  const double current = phase;
  phase += delta;
  if (phase >= kTwoPi) phase -= kTwoPi * std::floor(phase / kTwoPi);
  if (phase < 0.0) phase += kTwoPi * std::ceil(-phase / kTwoPi);
  return current;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The fast paths' ends (kTwoPi and 2 kTwoPi above zero, -kTwoPi and -2^-1000
// below it), a few ulp either side of each, denormals, huge and non-finite
// phases, each wrapped from rest.
TEST(PhaseAccumulator, WrapEdgesMatchFloorCeilFormulaBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values;
  for (const double edge :
       {0.0, -0.0, kTwoPi, -kTwoPi, 2.0 * kTwoPi, -2.0 * kTwoPi, 3.0 * kTwoPi,
        0x1p-1000, -0x1p-1000, -0x1p-1010, -0x1p-1022, denorm, -denorm,
        -4.0 * denorm, 1e300, -1e300, inf, -inf}) {
    for (const double toward : {-inf, inf}) {
      double v = edge;
      for (int k = 0; k < 4; ++k, v = std::nextafter(v, toward)) {
        values.push_back(v);
      }
    }
  }
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  for (const double v : values) {
    for (const double delta : {0.0, -0.0}) {
      PhaseAccumulator acc(v);
      double ref = v;
      ASSERT_TRUE(same_bits(acc.advance(delta), advance_reference(ref, delta)));
      ASSERT_TRUE(same_bits(acc.phase(), ref))
          << std::hexfloat << v << " + " << delta << ": " << acc.phase()
          << " against " << ref;
    }
  }
}

// Ten million steps of the sizes the library takes: the tag subcarrier's
// (shift +- deviation at the RF rate, both signs of shift) and the FM
// modulator's (+-75 kHz at the MPX rate, so backward wraps too).
TEST(PhaseAccumulator, RandomStepsMatchFloorCeilFormulaBitForBit) {
  std::mt19937_64 rng(71);
  std::uniform_real_distribution<double> m(-1.2, 1.2);
  std::uniform_real_distribution<double> shift(100e3, 1.1e6);
  const double dev = kTwoPi * 75e3;
  struct Regime {
    double base;   // radians per sample at m = 0
    double scale;  // radians per sample per unit of m
  };
  const std::vector<Regime> regimes = {
      {kTwoPi * shift(rng) / 2.4e6, dev / 2.4e6},
      {-kTwoPi * shift(rng) / 2.4e6, dev / 2.4e6},
      {0.0, dev / 240e3}};
  for (const Regime& r : regimes) {
    PhaseAccumulator acc;
    double ref = 0.0;
    for (int i = 0; i < 10'000'000 / 3; ++i) {
      const double delta = r.base + r.scale * m(rng);
      if (!same_bits(acc.advance(delta), advance_reference(ref, delta)) ||
          !same_bits(acc.phase(), ref)) {
        FAIL() << "step " << i << " base " << r.base << ": " << acc.phase()
               << " against " << ref;
      }
    }
  }
}

TEST(Oscillator, GeneratesRequestedFrequency) {
  Oscillator osc(1000.0, 48000.0);
  const auto block = osc.block_real(4800);
  EXPECT_NEAR(goertzel_power(block, 1000.0, 48000.0), 0.25, 0.01);
}

TEST(Oscillator, ComplexHasUnitMagnitude) {
  Oscillator osc(19000.0, 240000.0);
  const auto block = osc.block_complex(1000);
  for (const auto& v : block) {
    EXPECT_NEAR(std::abs(v), 1.0F, 1e-5F);
  }
}

TEST(Oscillator, NegativeFrequencyConjugates) {
  Oscillator pos(5000.0, 48000.0);
  Oscillator neg(-5000.0, 48000.0);
  for (int i = 0; i < 100; ++i) {
    const auto a = pos.next_complex();
    const auto b = neg.next_complex();
    EXPECT_NEAR(a.real(), b.real(), 1e-5F);
    EXPECT_NEAR(a.imag(), -b.imag(), 1e-5F);
  }
}

TEST(Oscillator, Validation) {
  EXPECT_THROW(Oscillator(100.0, 0.0), std::invalid_argument);
}

TEST(Mixer, ShiftsSpectrum) {
  // A 2 kHz complex tone mixed by +3 kHz lands at 5 kHz.
  const double fs = 48000.0;
  Oscillator osc(2000.0, fs);
  cvec x = osc.block_complex(4800);
  Mixer mixer(3000.0, fs);
  mixer.process_inplace(x);
  // Real part now contains a 5 kHz tone.
  std::vector<float> re(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) re[i] = x[i].real();
  EXPECT_GT(goertzel_power(re, 5000.0, fs), 0.2);
  EXPECT_LT(goertzel_power(re, 2000.0, fs), 1e-3);
}

TEST(Mixer, DownShiftToDc) {
  const double fs = 240000.0;
  Oscillator osc(19000.0, fs);
  cvec x = osc.block_complex(24000);
  Mixer mixer(-19000.0, fs);
  mixer.process_inplace(x);
  // After the shift the signal is DC: nearly constant.
  for (std::size_t i = 1; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), x[0].real(), 1e-3F);
    EXPECT_NEAR(x[i].imag(), x[0].imag(), 1e-3F);
  }
}

/// Largest |error| of a mixer fed ones (its output is then the float-rounded
/// rotator itself) against a long-double phasor at the mixer's exact (double)
/// frequency, over 100 simulated seconds. Checks the head of the first 0.1 s
/// block and of three late ones.
double max_rotator_error(double freq, double fs) {
  constexpr std::size_t kBlocks = 1000;
  const auto block = static_cast<std::size_t>(fs / 10.0);
  Mixer mixer(freq, fs);
  cvec buf(block);
  double max_err = 0.0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::fill(buf.begin(), buf.end(), cfloat(1.0F, 0.0F));
    mixer.process_inplace(buf);
    if (b != 0 && b != kBlocks / 5 && b != kBlocks / 2 && b != kBlocks - 1) {
      continue;
    }
    for (std::size_t i = 0; i < block / 10; ++i) {
      const auto n = static_cast<long double>(b * block + i);
      const long double cycles =
          std::fmod(n * static_cast<long double>(freq),
                    static_cast<long double>(fs)) /
          static_cast<long double>(fs);
      const long double angle = 2.0L * std::numbers::pi_v<long double> * cycles;
      const double err = static_cast<double>(std::hypot(
          static_cast<long double>(buf[i].real()) - std::cos(angle),
          static_cast<long double>(buf[i].imag()) - std::sin(angle)));
      max_err = std::max(max_err, err);
    }
  }
  return max_err;
}

TEST(Mixer, TracksExactPhasorOverLongRuns) {
  // Float rounding alone reaches sqrt(2) * 2^-25 ~ 4.2e-8; the bound leaves
  // the DDS under 2e-8 of drift after 100 s at either sample rate.
  for (const double f : {200000.0, 400000.0, 600000.0}) {
    EXPECT_LE(max_rotator_error(f, 2400000.0), 6e-8) << f;
    EXPECT_LE(max_rotator_error(-f, 2400000.0), 6e-8) << -f;
  }
  EXPECT_LE(max_rotator_error(57000.0, 240000.0), 6e-8);
  EXPECT_LE(max_rotator_error(12345.6, 240000.0), 6e-8);
}

// A call may start at any offset k0 of the mixer's 16-sample span and run
// any length: the span product then takes the vector kernel for whole
// groups of four and the scalar loop for the rest, and must give the bytes
// of one sample per call (the scalar loop alone). 1024 - 20 puts the runs
// across a re-seed.
TEST(Mixer, EverySpanOffsetAndLengthMatchesSampleBySample) {
  const cvec x = [] {
    std::mt19937 rng(72);
    std::uniform_real_distribution<float> u(-1.0F, 1.0F);
    cvec v(1100);
    for (auto& s : v) s = cfloat(u(rng), u(rng));
    return v;
  }();
  for (const std::size_t start : {std::size_t{0}, std::size_t{1024 - 20}}) {
    for (std::size_t k0 = 0; k0 < 16; ++k0) {
      for (std::size_t len = 0; len <= 16; ++len) {
        const std::size_t total = start + k0 + len;
        Mixer one_by_one(437123.5, 2.4e6, 0.3);
        cvec ref(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(total));
        for (auto& s : ref) one_by_one.process_inplace({&s, 1});
        Mixer mixer(437123.5, 2.4e6, 0.3);
        cvec got(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(total));
        for (std::size_t i = 0; i < start + k0; ++i) {
          mixer.process_inplace({&got[i], 1});
        }
        mixer.process_inplace(std::span(got).subspan(start + k0));
        ASSERT_TRUE(total == 0 || std::memcmp(got.data(), ref.data(),
                                              total * sizeof(cfloat)) == 0)
            << "start " << start << " k0 " << k0 << " len " << len;
      }
    }
  }
}

TEST(Mixer, Validation) {
  EXPECT_THROW(Mixer(100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Mixer(std::nan(""), 48000.0), std::invalid_argument);
  EXPECT_THROW(Mixer(100.0, 48000.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::dsp
