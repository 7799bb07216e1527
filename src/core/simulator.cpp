#include "core/simulator.h"

#include <stdexcept>
#include <utility>

#include "core/scenario.h"
#include "dsp/math_util.h"

namespace fmbs::core {

SimulationResult simulate(const SystemConfig& config, const dsp::rvec& tag_baseband,
                          units::Seconds duration) {
  if (duration.raw() <= 0.0) {
    throw std::invalid_argument("simulate: duration must be > 0");
  }
  // Thin bridge onto the one physics path: build the equivalent one-tag
  // Scenario and run it through the ScenarioEngine. Sample-for-sample
  // bit-identical to the historical hand-rolled simulator loop (verified by
  // tests/core/test_scenario_engine.cpp and the committed golden traces).
  ScenarioResult rendered = ScenarioEngine().run(
      scenario_from_system(config, tag_baseband, duration));

  SimulationResult result;
  result.station = std::move(rendered.station);
  result.backscatter_rx = std::move(rendered.receivers[0].capture);
  if (config.capture_ambient_receiver) {
    result.ambient_rx = std::move(rendered.receivers[1].capture);
  }

  // Scene gains, reported exactly as the legacy simulator computed them.
  channel::LinkBudgetConfig link = config.scene.link;
  link.tag_antenna_gain = units::Db{config.tag.antenna.effective_gain_db()};
  result.budget = channel::compute_link_budget(
      config.scene.tag_power, config.scene.direct_power,
      config.scene.tag_rx_distance.to_meters(), link);
  // In-channel backscatter power: one sideband of the square wave carries
  // (2/pi)^2 of the reflected power.
  const double g_back = result.budget.backscatter_amplitude;
  result.backscatter_rx_power_dbm = dsp::dbm_from_watts(
      g_back * g_back * (2.0 / dsp::kPi) * (2.0 / dsp::kPi));
  return result;
}

}  // namespace fmbs::core
