#include "rx/analytic_fsk.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmbs::rx {

namespace {

/// Chance-level BER of each curve (all information destroyed).
double ber_floor_ceiling(tag::DataRate rate) {
  return rate == tag::DataRate::k100bps ? 0.5 : 0.5;  // (2/3) * 0.75 = 0.5
}

}  // namespace

AnalyticFskCalibration analytic_fsk_calibration(tag::DataRate rate) {
  // Fitted once against the PHY demodulator (kNews station, one tag at
  // 4 ft, receiver noise floor swept through the waterfall, every point
  // pooled over 32 seeds; `bench_fleet_capacity --calibrate` reproduces the
  // fit) and pinned by tests/rx/test_analytic_fsk.cpp. Receiver noise is
  // added at the tuned rate. 100 bps is clean above -5 dB and falls
  // steeply to 0.4 at -13 dB; 1600 bps runs from 1e-3 near +3 dB to chance
  // below -9 dB. 3200 bps adds an SNR-independent residual floor of ~2.3% of
  // bits from timing-search edge effects at the shortest symbol.
  switch (rate) {
    case tag::DataRate::k100bps:
      return {17.4372, 1.47118, 0.0};
    case tag::DataRate::k1600bps:
      return {8.64209, 1.14629, 0.0};
    case tag::DataRate::k3200bps:
      return {9.4391, 2.00891, 0.0231323};
  }
  return {};
}

double analytic_fsk_ber_at_gamma(double gamma_s, tag::DataRate rate,
                                 bool rayleigh_fading) {
  if (gamma_s < 0.0) gamma_s = 0.0;
  double pb;
  if (rate == tag::DataRate::k100bps) {
    // Binary noncoherent orthogonal FSK.
    pb = rayleigh_fading ? 0.5 / (1.0 + 0.5 * gamma_s)
                         : 0.5 * std::exp(-0.5 * gamma_s);
  } else {
    // One FDM-4FSK tone group: 4-ary noncoherent orthogonal detection.
    static constexpr double kChoose3[] = {3.0, 3.0, 1.0};  // C(3, k)
    double ps = 0.0;
    for (int k = 1; k <= 3; ++k) {
      const double a = static_cast<double>(k) / (k + 1.0);
      const double avg_exp =
          rayleigh_fading ? 1.0 / (1.0 + a * gamma_s) : std::exp(-a * gamma_s);
      ps += (k % 2 == 1 ? 1.0 : -1.0) * kChoose3[k - 1] * avg_exp / (k + 1.0);
    }
    pb = (2.0 / 3.0) * std::clamp(ps, 0.0, 0.75);
  }
  return std::clamp(pb, 0.0, ber_floor_ceiling(rate));
}

double analytic_fsk_gamma_from_ber(double ber, tag::DataRate rate) {
  const double ceiling = ber_floor_ceiling(rate);
  ber = std::clamp(ber, 1e-12, ceiling * (1.0 - 1e-9));
  // The AWGN curve is strictly decreasing in gamma: bisect.
  double lo = 0.0;
  double hi = 1.0;
  while (analytic_fsk_ber_at_gamma(hi, rate) > ber && hi < 1e9) hi *= 2.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (analytic_fsk_ber_at_gamma(mid, rate) > ber) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double analytic_fsk_ber(double snr_db, tag::DataRate rate,
                        bool rayleigh_fading) {
  const AnalyticFskCalibration cal = analytic_fsk_calibration(rate);
  const double gamma_db = cal.gamma_offset_db + cal.gamma_slope * snr_db;
  const double gamma_s = std::pow(10.0, gamma_db / 10.0);
  const double curve = analytic_fsk_ber_at_gamma(gamma_s, rate, rayleigh_fading);
  // The floor mixes in as an independent error source so chance level stays
  // exactly 1/2: floor + (1 - 2*floor) * curve.
  return cal.ber_floor + (1.0 - 2.0 * cal.ber_floor) * curve;
}

AnalyticBurstReport analytic_fsk_burst(double snr_db, tag::DataRate rate,
                                       std::size_t num_bits,
                                       std::size_t packet_bits,
                                       bool rayleigh_fading) {
  if (num_bits == 0) {
    throw std::invalid_argument("analytic_fsk_burst: empty payload");
  }
  AnalyticBurstReport report;
  report.ber = analytic_fsk_ber(snr_db, rate, rayleigh_fading);
  const std::size_t pbits =
      packet_bits > 0 ? std::min(packet_bits, num_bits) : num_bits;
  for (std::size_t p = 0; p * pbits < num_bits; ++p) {
    const std::size_t lo = p * pbits;
    const std::size_t hi = std::min(lo + pbits, num_bits);
    ++report.packets;
    // Deterministic expectation threshold; ties (exactly 1/2) deliver, so a
    // noiseless link (ber == 0) is always clean.
    const double p_ok =
        std::pow(1.0 - report.ber, static_cast<double>(hi - lo));
    if (p_ok >= 0.5) {
      ++report.packets_ok;
      report.bits_delivered += hi - lo;
    }
  }
  report.per = 1.0 - static_cast<double>(report.packets_ok) /
                         static_cast<double>(report.packets);
  return report;
}

}  // namespace fmbs::rx
