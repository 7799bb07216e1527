#include "rx/tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "channel/awgn.h"
#include "dsp/math_util.h"
#include "dsp/nco.h"
#include "dsp/spectrum.h"
#include "support/run_stage.h"

namespace fmbs::rx {
namespace {

TEST(Tuner, DecimationFactor) {
  Tuner t{TunerConfig{}};
  EXPECT_EQ(t.decimation(), 10U);
}

TEST(Tuner, ShiftsWantedChannelToDc) {
  TunerConfig cfg;  // offset 600 kHz
  Tuner tuner(cfg);
  // A tone exactly at the offset becomes DC after tuning.
  dsp::Oscillator osc(600000.0, cfg.rf_rate);
  const dsp::cvec rf = osc.block_complex(240000);
  const dsp::cvec out = test::run_stage(tuner, rf);
  ASSERT_EQ(out.size(), 24000U);
  // After settle, the output should be constant (DC) with near-unity power.
  double p = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) p += std::norm(out[i]);
  p /= static_cast<double>(out.size() / 2);
  EXPECT_NEAR(p, 1.0, 0.05);
  for (std::size_t i = out.size() / 2 + 1; i < out.size(); ++i) {
    EXPECT_NEAR(std::abs(out[i] - out[i - 1]), 0.0F, 1e-2F);
  }
}

TEST(Tuner, RejectsAdjacentChannel) {
  // A strong signal at DC (the ambient station, 600 kHz away from the
  // backscatter channel) must be suppressed by the tuner's selectivity.
  TunerConfig cfg;
  Tuner tuner(cfg);
  dsp::cvec rf(240000, dsp::cfloat(1.0F, 0.0F));  // carrier at 0 Hz
  const dsp::cvec out = test::run_stage(tuner, rf);
  double p = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) p += std::norm(out[i]);
  p /= static_cast<double>(out.size() / 2);
  EXPECT_LT(dsp::db_from_power_ratio(p), -60.0)
      << "adjacent-channel suppression too weak";
}

TEST(Tuner, PassbandIsFlatEnough) {
  // A tone at offset + 80 kHz (inside the channel) keeps its power.
  TunerConfig cfg;
  Tuner tuner(cfg);
  dsp::Oscillator osc(680000.0, cfg.rf_rate);
  const dsp::cvec rf = osc.block_complex(240000);
  const dsp::cvec out = test::run_stage(tuner, rf);
  double p = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) p += std::norm(out[i]);
  p /= static_cast<double>(out.size() / 2);
  EXPECT_NEAR(p, 1.0, 0.1);
}

TEST(Tuner, BlockSizeValidation) {
  Tuner tuner{TunerConfig{}};
  dsp::cvec bad(1001);
  EXPECT_THROW(test::run_stage(tuner, bad), std::invalid_argument);
  dsp::cvec out(100);
  EXPECT_THROW(tuner.process_into(bad, out), std::invalid_argument);
}

// The scene renderer tunes each receiver a sub-block at a time, mixing its
// scratch superposition in place: the stream must match one whole-block
// call bit for bit, on a shifted channel and on one already at DC.
TEST(Tuner, ProcessIntoSubBlocksIsBitIdentical) {
  for (const double offset_hz : {600000.0, 0.0}) {
    TunerConfig cfg;
    cfg.offset_hz = offset_hz;
    Tuner whole(cfg);
    Tuner chunked(cfg);
    dsp::Oscillator a(590000.0, cfg.rf_rate);
    dsp::Oscillator b(-230000.0, cfg.rf_rate);
    dsp::cvec rf(48000);
    for (dsp::cfloat& v : rf) v = a.next_complex() + 0.3F * b.next_complex();
    const dsp::cvec ref = test::run_stage(whole, rf);
    dsp::cvec got(ref.size());
    constexpr std::size_t kChunk = 4800;
    dsp::cvec scratch(kChunk);
    for (std::size_t at = 0; at < rf.size(); at += kChunk) {
      std::copy_n(rf.begin() + static_cast<std::ptrdiff_t>(at), kChunk,
                  scratch.begin());
      chunked.process_into(scratch,
                           std::span<dsp::cfloat>(got).subspan(at / 10,
                                                               kChunk / 10));
    }
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          ref.size() * sizeof(dsp::cfloat)),
              0)
        << "offset " << offset_hz;
  }
}

TEST(Tuner, RateValidation) {
  TunerConfig cfg;
  cfg.output_rate = 210000.0;  // not an integer divisor
  EXPECT_THROW(Tuner{cfg}, std::invalid_argument);
}

// ---- Equivalent-baseband noise model ----------------------------------------
// The scenario engines draw receiver noise at the tuned MPX rate and add it
// after the channel filter. That is only legitimate if white noise drawn at
// the RF rate and pushed through the tuner is, within the channel, the same
// process: same total power and the same in-band density. These checks pin
// that equivalence at several tune offsets (the mixer must not matter), for
// plain white tuned-rate noise and for the noise the engines actually add
// (colored by Tuner::noise_shaping_taps, which also reproduces the channel
// filter's roll-off at the band edge).

constexpr double kSubBandHz = 20e3;

struct NoiseStats {
  double total_power = 0.0;          ///< mean |x|^2 per complex sample
  std::vector<double> band_density;  ///< W/Hz per 20 kHz sub-band, 0..120 kHz
};

/// Mean complex power and the PSD of complex `x` at `rate`, averaged over
/// 20 kHz sub-bands up to the output Nyquist edge. welch_psd takes real
/// input: I and Q each give a one-sided PSD, and their sum is the complex
/// PSD folded onto f >= 0 — all a comparison of spectra symmetric in f needs.
NoiseStats noise_stats(const dsp::cvec& x, double rate) {
  NoiseStats s;
  std::vector<float> re(x.size());
  std::vector<float> im(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    s.total_power += std::norm(x[i]);
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  s.total_power /= static_cast<double>(x.size());
  const dsp::Psd psd_re = dsp::welch_psd(re, rate, 1024);
  const dsp::Psd psd_im = dsp::welch_psd(im, rate, 1024);
  for (double lo = 0.0; lo < rate / 2.0 - 1.0; lo += kSubBandHz) {
    const double hi = lo + kSubBandHz;
    s.band_density.push_back(
        (psd_re.band_power(lo, hi) + psd_im.band_power(lo, hi)) / kSubBandHz);
  }
  return s;
}

double db_ratio(double a, double b) { return dsp::db_from_power_ratio(a / b); }

TEST(Tuner, RfRateNoiseThroughTunerMatchesTunedRateNoise) {
  const units::Dbm floor{-100.0};
  const units::Hertz ref_bw{fm::kChannelSpacingHz};
  constexpr std::size_t kOutSamples = 240000;  // 1 s at the MPX rate
  constexpr std::size_t kBlockOut = 24000;
  constexpr std::size_t kSettle = 240;  // skip the filters' start-up
  for (const double offset_hz : {0.0, 200e3, 400e3}) {
    SCOPED_TRACE(offset_hz);
    TunerConfig cfg;
    cfg.offset_hz = offset_hz;
    Tuner tuner(cfg);
    channel::AwgnSource rf_noise(floor, ref_bw, fm::kRfRate, 11);
    channel::AwgnSource white(floor, ref_bw, fm::kMpxRate, 12);
    channel::AwgnSource shaped(floor, ref_bw, fm::kMpxRate, 13,
                               tuner.noise_shaping_taps());
    dsp::cvec through_tuner;
    dsp::cvec direct_white(kOutSamples);
    dsp::cvec direct_shaped(kOutSamples);
    dsp::cvec rf(kBlockOut * tuner.decimation());
    for (std::size_t n = 0; n < kOutSamples; n += kBlockOut) {
      std::fill(rf.begin(), rf.end(), dsp::cfloat{});
      rf_noise.add_to(rf);
      const dsp::cvec out = test::run_stage(tuner, rf);
      through_tuner.insert(through_tuner.end(), out.begin(), out.end());
      shaped.add_to(
          std::span<dsp::cfloat>(direct_shaped.data() + n, kBlockOut));
    }
    white.add_to(direct_white);
    for (dsp::cvec* v : {&through_tuner, &direct_white, &direct_shaped}) {
      v->erase(v->begin(), v->begin() + kSettle);
    }

    const NoiseStats ref = noise_stats(through_tuner, fm::kMpxRate);
    const NoiseStats w = noise_stats(direct_white, fm::kMpxRate);
    const NoiseStats s = noise_stats(direct_shaped, fm::kMpxRate);
    ASSERT_EQ(ref.band_density.size(), 6U);
    // White noise at the tuned rate: right total power, right density
    // inside the channel (|f| <= 100 kHz).
    EXPECT_NEAR(db_ratio(ref.total_power, w.total_power), 0.0, 0.2);
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_NEAR(db_ratio(ref.band_density[k], w.band_density[k]), 0.0, 0.25)
          << "white, sub-band " << k;
    }
    // Shaped noise: also the channel filter's roll-off between 100 and
    // 120 kHz (about -0.5 dB, which white noise misses) to within 0.15 dB.
    EXPECT_NEAR(db_ratio(ref.total_power, s.total_power), 0.0, 0.05);
    for (std::size_t k = 0; k < ref.band_density.size(); ++k) {
      EXPECT_NEAR(db_ratio(ref.band_density[k], s.band_density[k]), 0.0, 0.15)
          << "shaped, sub-band " << k;
    }
  }
}

TEST(Tuner, NoiseShapingIsUnityInBand) {
  // The shaper keeps the per-200 kHz floor: unity gain at DC, and below
  // unity overall only by the channel filter's edge roll-off.
  const Tuner tuner{TunerConfig{}};
  const std::vector<float>& g = tuner.noise_shaping_taps();
  ASSERT_EQ(g.size() % 2, 1U);
  double dc = 0.0;
  double energy = 0.0;
  for (std::size_t t = 0; t < g.size(); ++t) {
    dc += g[t];
    energy += static_cast<double>(g[t]) * g[t];
    EXPECT_FLOAT_EQ(g[t], g[g.size() - 1 - t]) << "zero-phase taps";
  }
  EXPECT_NEAR(dc, 1.0, 0.005);
  EXPECT_LT(dsp::db_from_power_ratio(energy), 0.0);
  EXPECT_GT(dsp::db_from_power_ratio(energy), -0.3);
}

TEST(Tuner, StreamingContinuity) {
  TunerConfig cfg;
  Tuner whole(cfg);
  Tuner chunked(cfg);
  dsp::Oscillator osc1(612000.0, cfg.rf_rate);
  const dsp::cvec rf = osc1.block_complex(120000);
  const dsp::cvec ref = test::run_stage(whole, rf);
  dsp::cvec got;
  for (std::size_t start = 0; start < rf.size(); start += 24000) {
    const auto part = test::run_stage(
        chunked, std::span<const dsp::cfloat>(rf.data() + start, 24000));
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i].real(), ref[i].real(), 1e-4F);
    EXPECT_NEAR(got[i].imag(), ref[i].imag(), 1e-4F);
  }
}

}  // namespace
}  // namespace fmbs::rx
