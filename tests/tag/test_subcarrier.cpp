#include "tag/subcarrier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "dsp/math_util.h"
#include "dsp/spectrum.h"
#include "support/run_stage.h"

namespace fmbs::tag {
namespace {

// Complex band power helper: power of B(t) within [lo, hi] Hz (positive
// frequencies only, via the real part for real waveforms).
double real_band_power(const dsp::cvec& x, double rate, double lo, double hi) {
  std::vector<float> re(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) re[i] = x[i].real();
  return dsp::band_power(re, rate, lo, hi);
}

TEST(Subcarrier, IdleToneSitsAtShiftFrequency) {
  SubcarrierConfig cfg;
  SubcarrierGenerator gen(cfg);
  const std::vector<float> silence(24000, 0.0F);
  const dsp::cvec b = test::run_stage(gen, silence);
  ASSERT_EQ(b.size(), 240000U);
  const double p_at_shift = real_band_power(b, cfg.rf_rate, 595000.0, 605000.0);
  const double p_elsewhere = real_band_power(b, cfg.rf_rate, 100000.0, 500000.0);
  EXPECT_GT(p_at_shift, 100.0 * p_elsewhere);
}

TEST(Subcarrier, FundamentalAmplitudeIsFourOverPi) {
  SubcarrierConfig cfg;
  SubcarrierGenerator gen(cfg);
  const std::vector<float> silence(24000, 0.0F);
  const dsp::cvec b = test::run_stage(gen, silence);
  // Power of (4/pi) cos = (4/pi)^2 / 2 = 0.811.
  double p = 0.0;
  for (const auto& v : b) p += std::norm(v);
  p /= static_cast<double>(b.size());
  EXPECT_NEAR(p, 0.811, 0.02);
}

TEST(Subcarrier, BasebandShiftsInstantaneousFrequency) {
  // Full-scale positive baseband -> tone at shift + deviation.
  SubcarrierConfig cfg;
  SubcarrierGenerator gen(cfg);
  const std::vector<float> high(24000, 1.0F);
  const dsp::cvec b = test::run_stage(gen, high);
  const double p_at_dev = real_band_power(b, cfg.rf_rate, 670000.0, 680000.0);
  const double p_at_center = real_band_power(b, cfg.rf_rate, 595000.0, 605000.0);
  EXPECT_GT(p_at_dev, 30.0 * p_at_center);
}

TEST(Subcarrier, HardSquareIsPlusMinusOne) {
  SubcarrierConfig cfg;
  cfg.mode = SubcarrierMode::kHardSquare;
  SubcarrierGenerator gen(cfg);
  const std::vector<float> silence(2400, 0.0F);
  const dsp::cvec b = test::run_stage(gen, silence);
  for (const auto& v : b) {
    EXPECT_EQ(std::abs(v.real()), 1.0F);
    EXPECT_EQ(v.imag(), 0.0F);
  }
}

TEST(Subcarrier, SsbIsComplexWithConstantModulus) {
  SubcarrierConfig cfg;
  cfg.mode = SubcarrierMode::kSingleSideband;
  SubcarrierGenerator gen(cfg);
  const std::vector<float> silence(2400, 0.0F);
  const dsp::cvec b = test::run_stage(gen, silence);
  for (const auto& v : b) {
    EXPECT_NEAR(std::abs(v), static_cast<float>(2.0 / dsp::kPi), 1e-3F);
  }
}

TEST(Subcarrier, SsbSuppressesMirror) {
  // Real square wave has energy at -f_back (mirror); SSB must not. Measure
  // via the analytic signal: correlate with e^{+j2 pi f t} and e^{-j2 pi f t}.
  SubcarrierConfig cfg;
  cfg.mode = SubcarrierMode::kSingleSideband;
  SubcarrierGenerator gen(cfg);
  const std::vector<float> silence(24000, 0.0F);
  const dsp::cvec b = test::run_stage(gen, silence);
  std::complex<double> pos{0.0, 0.0}, neg{0.0, 0.0};
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double ph = dsp::kTwoPi * 600000.0 * static_cast<double>(i) / cfg.rf_rate;
    const std::complex<double> e(std::cos(ph), std::sin(ph));
    const std::complex<double> v(b[i].real(), b[i].imag());
    pos += v * std::conj(e);
    neg += v * e;
  }
  EXPECT_GT(std::abs(pos), 100.0 * std::abs(neg));
}

TEST(Subcarrier, DcoQuantizationAddsSpurs) {
  SubcarrierConfig ideal;
  SubcarrierConfig coarse;
  coarse.dco_bits = 3;  // very coarse quantizer
  SubcarrierGenerator g1(ideal);
  SubcarrierGenerator g2(coarse);
  // A slow ramp exercises many quantization levels.
  std::vector<float> ramp(24000);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<float>(std::sin(dsp::kTwoPi * 0.0005 * i));
  }
  const dsp::cvec b1 = test::run_stage(g1, ramp);
  const dsp::cvec b2 = test::run_stage(g2, ramp);
  // Out-of-band spur power (well away from the subcarrier band).
  const double spur1 = real_band_power(b1, ideal.rf_rate, 100000.0, 400000.0);
  const double spur2 = real_band_power(b2, ideal.rf_rate, 100000.0, 400000.0);
  EXPECT_GT(spur2, spur1);
}

TEST(Subcarrier, EightBitDcoIsNearIdeal) {
  // The IC's 8-bit capacitor bank: quantization effects should be tiny.
  SubcarrierConfig ideal;
  SubcarrierConfig ic;
  ic.dco_bits = 8;
  SubcarrierGenerator g1(ideal);
  SubcarrierGenerator g2(ic);
  std::vector<float> ramp(24000);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<float>(std::sin(dsp::kTwoPi * 0.0005 * i));
  }
  const dsp::cvec b1 = test::run_stage(g1, ramp);
  const dsp::cvec b2 = test::run_stage(g2, ramp);
  const double band1 = real_band_power(b1, ideal.rf_rate, 520000.0, 680000.0);
  const double band2 = real_band_power(b2, ideal.rf_rate, 520000.0, 680000.0);
  EXPECT_NEAR(band2 / band1, 1.0, 0.05);
}

TEST(Subcarrier, StreamingPhaseContinuity) {
  SubcarrierConfig cfg;
  SubcarrierGenerator whole(cfg);
  SubcarrierGenerator chunked(cfg);
  const std::vector<float> silence(4800, 0.0F);
  const dsp::cvec ref = test::run_stage(whole, silence);
  dsp::cvec got;
  for (std::size_t start = 0; start < silence.size(); start += 1200) {
    const auto part = test::run_stage(
        chunked, std::span<const float>(silence.data() + start, 1200));
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i].real(), ref[i].real(), 1e-4F) << "discontinuity at " << i;
  }
}

// The scene renderer composes reflections a sub-block at a time through
// process_into: cut on multiples of four RF samples (the vector sincos
// groups), the stream must match one whole-block call bit for bit.
TEST(Subcarrier, ProcessIntoSubBlocksIsBitIdentical) {
  std::vector<float> baseband(4800);
  for (std::size_t i = 0; i < baseband.size(); ++i) {
    baseband[i] = 0.8F * std::sin(0.01F * static_cast<float>(i));
  }
  for (const SubcarrierMode mode :
       {SubcarrierMode::kBandlimitedSquare, SubcarrierMode::kSingleSideband,
        SubcarrierMode::kHardSquare}) {
    SubcarrierConfig cfg;
    cfg.mode = mode;
    SubcarrierGenerator whole(cfg);
    SubcarrierGenerator chunked(cfg);
    const dsp::cvec ref = test::run_stage(whole, baseband);
    dsp::cvec got(ref.size());
    constexpr std::size_t kChunk = 480;
    for (std::size_t at = 0; at < baseband.size(); at += kChunk) {
      chunked.process_into(
          std::span<const float>(baseband).subspan(at, kChunk),
          std::span<dsp::cfloat>(got).subspan(at * 10, kChunk * 10));
    }
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          ref.size() * sizeof(dsp::cfloat)),
              0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(Subcarrier, Validation) {
  SubcarrierConfig bad;
  bad.shift = units::Hertz{0.0};
  EXPECT_THROW(SubcarrierGenerator{bad}, std::invalid_argument);
  SubcarrierConfig too_fast;
  too_fast.shift = units::Hertz{1.3e6};  // 1.3 MHz + 75 kHz >= 1.2 MHz Nyquist
  EXPECT_THROW(SubcarrierGenerator{too_fast}, std::invalid_argument);
  SubcarrierConfig bad_rate;
  bad_rate.baseband_rate = 100000.0;  // 2.4 MHz / 100 kHz = 24 OK; use odd rate
  bad_rate.rf_rate = 250000.0;        // 2.5x -> not integer
  EXPECT_THROW(SubcarrierGenerator{bad_rate}, std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::tag
