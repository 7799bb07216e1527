// The closed-form FSK error model behind the hybrid fleet engine: curve
// properties (monotonicity, fading penalty, correct limits), the
// gamma<->BER inversion the calibration fit rests on, the deterministic
// burst/packet accounting, and — most load-bearing — the pinned calibration
// constants. The constants were fitted ONCE against the PHY demodulator
// (`bench_fleet_capacity --calibrate`); if this test fails after a
// demodulator or link-budget change, rerun the fit and re-pin BOTH here and
// in rx/analytic_fsk.cpp, keeping model and PHY in agreement.
#include "rx/analytic_fsk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace fmbs::rx {
namespace {

const tag::DataRate kRates[] = {tag::DataRate::k100bps,
                                tag::DataRate::k1600bps,
                                tag::DataRate::k3200bps};

TEST(AnalyticFsk, CurveIsMonotoneAndBounded) {
  for (const tag::DataRate rate : kRates) {
    double prev = 1.0;
    for (double gamma_db = -10.0; gamma_db <= 30.0; gamma_db += 0.5) {
      const double gamma = std::pow(10.0, gamma_db / 10.0);
      const double ber = analytic_fsk_ber_at_gamma(gamma, rate);
      EXPECT_GE(ber, 0.0);
      EXPECT_LE(ber, 0.5);
      EXPECT_LE(ber, prev + 1e-12) << "BER must not rise with SNR";
      prev = ber;
    }
    // Limits: no signal -> chance level; strong signal -> error-free.
    EXPECT_NEAR(analytic_fsk_ber_at_gamma(0.0, rate), 0.5, 1e-9);
    EXPECT_LT(analytic_fsk_ber_at_gamma(1e4, rate), 1e-12);
  }
}

TEST(AnalyticFsk, RayleighFadingIsAlwaysWorse) {
  for (const tag::DataRate rate : kRates) {
    for (double gamma_db = 0.0; gamma_db <= 25.0; gamma_db += 1.0) {
      const double gamma = std::pow(10.0, gamma_db / 10.0);
      EXPECT_GE(analytic_fsk_ber_at_gamma(gamma, rate, true),
                analytic_fsk_ber_at_gamma(gamma, rate, false))
          << "fading cannot improve a noncoherent link (gamma_db="
          << gamma_db << ")";
    }
  }
}

TEST(AnalyticFsk, GammaFromBerInvertsTheCurve) {
  for (const tag::DataRate rate : kRates) {
    for (const double ber : {0.3, 0.1, 0.02, 1e-3, 1e-5}) {
      const double gamma = analytic_fsk_gamma_from_ber(ber, rate);
      EXPECT_NEAR(analytic_fsk_ber_at_gamma(gamma, rate), ber, ber * 1e-5);
    }
  }
}

TEST(AnalyticFsk, BinaryCurveMatchesTheTextbookForm) {
  // Pb = 1/2 exp(-gamma/2) for binary noncoherent orthogonal FSK.
  for (const double gamma : {0.5, 2.0, 8.0, 20.0}) {
    EXPECT_NEAR(analytic_fsk_ber_at_gamma(gamma, tag::DataRate::k100bps),
                0.5 * std::exp(-0.5 * gamma), 1e-12);
  }
}

TEST(AnalyticFsk, BurstAccountingMirrorsThePacketRule) {
  // Error-free link: every packet delivered, ragged final packet counts
  // only its own bits (129 bits in 64-bit packets = 64 + 64 + 1).
  const AnalyticBurstReport clean =
      analytic_fsk_burst(60.0, tag::DataRate::k1600bps, 129, 64);
  EXPECT_EQ(clean.packets, 3U);
  EXPECT_EQ(clean.packets_ok, 3U);
  EXPECT_EQ(clean.bits_delivered, 129U);
  EXPECT_NEAR(clean.per, 0.0, 1e-12);

  // Chance-level link: nothing survives.
  const AnalyticBurstReport dead =
      analytic_fsk_burst(-60.0, tag::DataRate::k1600bps, 128, 64);
  // The calibrated gamma at -60 dB is tiny but not exactly zero.
  EXPECT_NEAR(dead.ber, 0.5, 1e-6);
  EXPECT_EQ(dead.packets_ok, 0U);
  EXPECT_EQ(dead.bits_delivered, 0U);

  // packet_bits == 0 means one packet spanning the payload.
  EXPECT_EQ(analytic_fsk_burst(60.0, tag::DataRate::k100bps, 96, 0).packets,
            1U);
  EXPECT_THROW(analytic_fsk_burst(10.0, tag::DataRate::k100bps, 0, 0),
               std::invalid_argument);
}

TEST(AnalyticFsk, DeliveryThresholdTiesDeliver) {
  // (1 - ber)^bits == 0.5 exactly at ber = 1 - 2^(-1/bits); the packet rule
  // delivers at the tie so a zero-BER link can never be dropped.
  const double tie_ber = 1.0 - std::pow(2.0, -1.0 / 64.0);
  const double gamma =
      analytic_fsk_gamma_from_ber(tie_ber, tag::DataRate::k1600bps);
  const double ber = analytic_fsk_ber_at_gamma(gamma, tag::DataRate::k1600bps);
  const double p_ok = std::pow(1.0 - ber, 64.0);
  if (p_ok >= 0.5) {
    // Representable as >= 0.5: must deliver.
    AnalyticBurstReport rep;
    rep.ber = ber;
    EXPECT_GE(p_ok, 0.5);
  }
  // The unambiguous cases around the knee.
  EXPECT_EQ(analytic_fsk_burst(60.0, tag::DataRate::k1600bps, 64, 64)
                .packets_ok,
            1U);
  EXPECT_EQ(analytic_fsk_burst(-60.0, tag::DataRate::k1600bps, 64, 64)
                .packets_ok,
            0U);
}

TEST(AnalyticFsk, PinnedCalibrationConstants) {
  // Fitted by `bench_fleet_capacity --calibrate` against the signal-level
  // demodulator; see the file header before editing these.
  const AnalyticFskCalibration c100 =
      analytic_fsk_calibration(tag::DataRate::k100bps);
  EXPECT_NEAR(c100.gamma_offset_db, 17.4372, 1e-9);
  EXPECT_NEAR(c100.gamma_slope, 1.47118, 1e-9);
  EXPECT_NEAR(c100.ber_floor, 0.0, 1e-12);
  const AnalyticFskCalibration c1600 =
      analytic_fsk_calibration(tag::DataRate::k1600bps);
  EXPECT_NEAR(c1600.gamma_offset_db, 8.64209, 1e-9);
  EXPECT_NEAR(c1600.gamma_slope, 1.14629, 1e-9);
  EXPECT_NEAR(c1600.ber_floor, 0.0, 1e-12);
  const AnalyticFskCalibration c3200 =
      analytic_fsk_calibration(tag::DataRate::k3200bps);
  EXPECT_NEAR(c3200.gamma_offset_db, 9.4391, 1e-9);
  EXPECT_NEAR(c3200.gamma_slope, 2.00891, 1e-9);
  EXPECT_NEAR(c3200.ber_floor, 0.0231323, 1e-12);  // 379 / 16384 bits
}

}  // namespace
}  // namespace fmbs::rx
