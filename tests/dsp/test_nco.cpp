#include "dsp/nco.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
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

/// Mixes x in one call and again cut into calls of the given sizes (cycled
/// to the end of x); asserts the two outputs match bit for bit.
void expect_same_when_cut(double freq, double fs, double phase, const cvec& x,
                          const std::vector<std::size_t>& sizes) {
  Mixer whole(freq, fs, phase);
  const cvec ref = test::run_stage(whole, x);
  Mixer chunked(freq, fs, phase);
  cvec got;
  std::size_t next = 0;
  for (std::size_t start = 0; start < x.size();) {
    const std::size_t len =
        std::min(sizes[next++ % sizes.size()], x.size() - start);
    const cvec part = test::run_stage(
        chunked, std::span<const cfloat>(x.data() + start, len));
    got.insert(got.end(), part.begin(), part.end());
    start += len;
  }
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i], ref[i]) << "f=" << freq << " phase=" << phase
                              << " i=" << i << " first cut=" << sizes[0];
  }
}

TEST(Mixer, PhaseContinuousAcrossBlocks) {
  // Reseeds and span steps sit on the absolute sample index, so however the
  // stream is cut into calls the output is bit-identical to one call. At
  // zero initial phase both frequencies put the rotator exactly on an axis
  // at some samples; a real input passes its near-zero component (rounding
  // residue, representable in float) straight to the output, where any
  // change in the arithmetic path shows.
  cvec x(60000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = cfloat(1.0F + 0.5F * std::cos(0.001F * static_cast<float>(i)),
                  0.0F);
  }
  const std::vector<std::vector<std::size_t>> cuts = {
      {41}, {1, 7, 1000, 2400, 24000}, {24000, 2400, 1000, 7, 1}};
  for (const auto& sizes : cuts) {
    expect_same_when_cut(1234.0, 48000.0, 0.0, x, sizes);
    expect_same_when_cut(-400000.0, 2400000.0, 0.0, x, sizes);
    expect_same_when_cut(-400000.0, 2400000.0, 1.0, x, sizes);
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

TEST(Mixer, Validation) {
  EXPECT_THROW(Mixer(100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Mixer(std::nan(""), 48000.0), std::invalid_argument);
  EXPECT_THROW(Mixer(100.0, 48000.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::dsp
