#include "channel/link_budget.h"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::channel {

units::Db friis_path_loss(units::Meters distance, units::Hertz frequency) {
  if (distance.raw() <= 0.0 || frequency.raw() <= 0.0) {
    throw std::invalid_argument("friis_path_loss: bad distance or frequency");
  }
  const double lambda = frequency.wavelength().raw();
  // Clamp inside the near field: FSPL below lambda/(2 pi) is not physical;
  // treat very small ranges as the near-field boundary.
  const double d = std::max(distance.raw(), lambda / (2.0 * dsp::kPi));
  return units::Db{20.0 * std::log10(4.0 * dsp::kPi * d / lambda)};
}

units::Db two_ray_path_loss(units::Meters distance, units::Hertz frequency,
                            units::Meters tx_height, units::Meters rx_height) {
  if (distance.raw() <= 0.0 || frequency.raw() <= 0.0 ||
      tx_height.raw() <= 0.0 || rx_height.raw() <= 0.0) {
    throw std::invalid_argument("two_ray_path_loss: bad parameters");
  }
  const double lambda = frequency.wavelength().raw();
  const double d = std::max(distance.raw(), lambda / (2.0 * dsp::kPi));
  // Exact two-ray field sum with a -1 ground reflection coefficient.
  const double d_los = std::hypot(d, tx_height.raw() - rx_height.raw());
  const double d_gnd = std::hypot(d, tx_height.raw() + rx_height.raw());
  const double k = dsp::kTwoPi / lambda;
  const std::complex<double> e_los =
      std::polar(1.0 / d_los, -k * d_los);
  const std::complex<double> e_gnd =
      -std::polar(1.0 / d_gnd, -k * d_gnd);
  const double field = std::abs(e_los + e_gnd);
  // Normalize against the free-space field 1/d at the same range.
  const double rel = field * d_los;
  const units::Db fspl = friis_path_loss(units::Meters{d_los}, frequency);
  return fspl - units::Db::from_amplitude_ratio(std::max(rel, 1e-6));
}

LinkBudget compute_link_budget(units::Dbm tag_power,
                               std::optional<units::Dbm> direct_power,
                               units::Meters tag_rx_distance,
                               const LinkBudgetConfig& config) {
  const units::Dbm direct = direct_power.value_or(tag_power);
  LinkBudget out;

  const units::Db fspl =
      config.use_two_ray
          ? two_ray_path_loss(tag_rx_distance, config.carrier,
                              config.tag_height, config.rx_height)
          : friis_path_loss(tag_rx_distance, config.carrier);
  const units::Db refl =
      units::Db::from_amplitude_ratio(config.reflection_amplitude);
  // P_rx(backscatter channel, excluding the 4/pi modulation factor carried
  // by the subcarrier waveform itself):
  const units::Dbm p_back = tag_power + refl + config.tag_antenna_gain +
                            config.rx_antenna_gain -
                            config.implementation_loss - fspl;
  out.backscatter_gain = p_back - tag_power;
  // The simulated station waveform has unit mean-square amplitude, so a
  // component of power P watts is represented with amplitude sqrt(P).
  out.backscatter_amplitude = std::sqrt(p_back.to_watts().raw());
  out.direct_amplitude = std::sqrt(direct.to_watts().raw());
  return out;
}

BackscatterPath compute_backscatter_path(units::Dbm tag_power,
                                         std::optional<units::Dbm> direct_power,
                                         units::Meters tag_rx_distance,
                                         const LinkBudgetConfig& config) {
  BackscatterPath out;
  out.budget =
      compute_link_budget(tag_power, direct_power, tag_rx_distance, config);
  // One sideband of the square wave carries (2/pi)^2 of the reflection.
  out.sideband = units::Watts{out.budget.backscatter_amplitude *
                              out.budget.backscatter_amplitude *
                              (2.0 / dsp::kPi) * (2.0 / dsp::kPi)};
  out.sideband_power = out.sideband.to_dbm();
  return out;
}

}  // namespace fmbs::channel
