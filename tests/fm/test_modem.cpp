#include <gtest/gtest.h>

#include <cmath>

#include "audio/tone.h"
#include "dsp/math_util.h"
#include "dsp/spectrum.h"
#include "fm/demodulator.h"
#include "fm/modulator.h"
#include "support/run_stage.h"

namespace fmbs::fm {
namespace {

using audio::make_tone;

TEST(FmModulator, UnitEnvelope) {
  FmModulator mod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  const auto t = make_tone(1000.0, 0.8, 0.1, kMpxRate);
  const auto iq = test::run_stage(mod, t.samples);
  for (const auto& v : iq) {
    EXPECT_NEAR(std::abs(v), 1.0F, 1e-4F);
  }
}

TEST(FmModulator, CarsonBandwidth) {
  // Eq. 1 + Carson's rule: a 15 kHz tone at full deviation occupies about
  // 2(75+15) = 180 kHz.
  FmModulator mod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  const auto t = make_tone(15000.0, 1.0, 0.5, kMpxRate);
  const auto iq = test::run_stage(mod, t.samples);
  // Measure occupied bandwidth from the complex spectrum: power outside
  // +-120 kHz should be tiny, power inside +-90 kHz nearly total.
  std::vector<float> re(iq.size());
  for (std::size_t i = 0; i < iq.size(); ++i) re[i] = iq[i].real();
  const double total = dsp::band_power(re, kMpxRate, 0.0, 120000.0);
  const double inside = dsp::band_power(re, kMpxRate, 0.0, 95000.0);
  EXPECT_GT(inside / total, 0.98);
}

TEST(FmModulator, Validation) {
  EXPECT_THROW(FmModulator( units::Hertz{0.0}, kMpxRate), std::invalid_argument);
  EXPECT_THROW(FmModulator( units::Hertz{75000.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(FmModulator( units::Hertz{200000.0}, 240000.0), std::invalid_argument);
}

TEST(FmModem, RoundTripRecoversBaseband) {
  FmModulator mod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  QuadratureDemodulator demod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  const auto t = make_tone(7000.0, 0.7, 0.2, kMpxRate);
  const auto iq = test::run_stage(mod, t.samples);
  const auto back = test::run_stage(demod, iq);
  ASSERT_EQ(back.size(), t.samples.size());
  // The discriminator measures the phase increment between samples, so its
  // output is the baseband delayed by exactly one sample.
  for (std::size_t i = 10; i < back.size(); ++i) {
    EXPECT_NEAR(back[i], t.samples[i - 1], 0.01F) << "at " << i;
  }
}

TEST(FmModem, AmplitudeProportionalToDeviation) {
  // Paper section 3.2: "the amplitude of the decoded baseband audio signal
  // is scaled by the frequency deviation; larger frequency deviations result
  // in a louder audio signal."
  const auto t = make_tone(1000.0, 0.5, 0.1, kMpxRate);
  FmModulator mod_full( units::Hertz{75000.0}, kMpxRate);
  FmModulator mod_half( units::Hertz{37500.0}, kMpxRate);
  // Demodulate both with the same receiver assumption (75 kHz).
  QuadratureDemodulator demod1( units::Hertz{75000.0}, kMpxRate);
  QuadratureDemodulator demod2( units::Hertz{75000.0}, kMpxRate);
  const auto out_full =
      test::run_stage(demod1, test::run_stage(mod_full, t.samples));
  const auto out_half =
      test::run_stage(demod2, test::run_stage(mod_half, t.samples));
  const double rms_full = dsp::rms({out_full.data() + 100, out_full.size() - 100});
  const double rms_half = dsp::rms({out_half.data() + 100, out_half.size() - 100});
  EXPECT_NEAR(rms_full / rms_half, 2.0, 0.05);
}

TEST(FmModem, FrequencyAdditionBecomesBasebandAddition) {
  // The core backscatter identity at the modem level: modulating with
  // (a + b) yields demodulated (a + b) — FM turns frequency offsets into
  // additive baseband.
  const auto a = make_tone(2000.0, 0.4, 0.2, kMpxRate);
  const auto b = make_tone(9000.0, 0.3, 0.2, kMpxRate);
  std::vector<float> sum(a.size());
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = a.samples[i] + b.samples[i];
  FmModulator mod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  QuadratureDemodulator demod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  const auto back = test::run_stage(demod, test::run_stage(mod, sum));
  for (std::size_t i = 10; i < back.size(); ++i) {
    EXPECT_NEAR(back[i], sum[i - 1], 0.02F);
  }
}

TEST(FmModem, SurvivesPhaseRotation) {
  // A constant channel phase must not affect the demodulated audio.
  FmModulator mod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  QuadratureDemodulator demod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  const auto t = make_tone(3000.0, 0.6, 0.1, kMpxRate);
  auto iq = test::run_stage(mod, t.samples);
  const dsp::cfloat rot(std::cos(1.234F), std::sin(1.234F));
  for (auto& v : iq) v *= rot;
  const auto back = test::run_stage(demod, iq);
  for (std::size_t i = 10; i < back.size(); ++i) {
    EXPECT_NEAR(back[i], t.samples[i - 1], 0.01F);
  }
}

TEST(FmModem, SurvivesAmplitudeScaling) {
  // FM is constant-envelope: receiver output is amplitude independent.
  FmModulator mod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  QuadratureDemodulator demod( units::Hertz{kMaxDeviationHz}, kMpxRate);
  const auto t = make_tone(3000.0, 0.6, 0.1, kMpxRate);
  auto iq = test::run_stage(mod, t.samples);
  for (auto& v : iq) v *= 0.001F;
  const auto back = test::run_stage(demod, iq);
  for (std::size_t i = 10; i < back.size(); ++i) {
    EXPECT_NEAR(back[i], t.samples[i - 1], 0.01F);
  }
}

TEST(QuadratureDemodulator, Validation) {
  EXPECT_THROW(QuadratureDemodulator( units::Hertz{0.0}, kMpxRate), std::invalid_argument);
  EXPECT_THROW(QuadratureDemodulator( units::Hertz{75000.0}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::fm
