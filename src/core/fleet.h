// Hybrid PHY/analytic fleet engine — the paper's section-8 metro-scale
// story at 10^4..10^5 tags, where rendering every tag through the
// signal-level ScenarioEngine is off the table (10^5 tags x 60 s of
// 2.4 MHz complex baseband is days of synthesis for one capacity point).
//
// The observation that makes the hybrid exact-enough: at city scale almost
// every burst's fate is decided before any signal exists. The whole-city
// MAC schedule resolves deterministically up front (resolve_scenario_plan),
// after which each (tag, receiver) link falls into one of three buckets:
//
//  * uncontested — no temporal/spectral contact with any other burst, or
//    every contact is captured (the interferer sits >= the capture margin
//    below this link at the receiver and folds into the SINR). Resolved by
//    the calibrated closed-form FSK curve (rx/analytic_fsk.h) on the same
//    link-budget SINR the scene would have realized.
//  * certainly lost — a payload overlap of at least one symbol with an
//    interferer the capture margin cannot save it from. Counted as a
//    collision loss without rendering a sample.
//  * contested — grazing overlaps and near-capture collisions, where the
//    outcome genuinely depends on waveforms. Only these drop into the
//    signal-level ScenarioEngine, as minimal sub-scenes covering one
//    collision cluster each, with every seed pinned from the plan.
//
// Everything is deterministic: the plan, the classification, the analytic
// curve and the sub-scene seeds are pure functions of the Scenario, so a
// fleet sweep is bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scenario.h"
#include "core/sweep_runner.h"

namespace fmbs::core {

/// How one (tag, receiver) link was resolved.
enum class FleetLinkResolution {
  /// No contention (or all interferers captured): calibrated analytic FSK
  /// curve on the link-budget SINR.
  kAnalyticClear,
  /// Payload collision beyond capture: certain loss, no PHY needed.
  kAnalyticCollision,
  /// Contested: resolved by a signal-level sub-scene render.
  kPhyCluster,
};

/// Outcome of one (tag, receiver) link.
struct FleetLink {
  std::size_t tag_index = 0;
  std::size_t receiver_index = 0;
  FleetLinkResolution resolution = FleetLinkResolution::kAnalyticClear;
  bool delivered = false;  ///< every packet (RDS: block) decoded clean
  double ber = 0.0;        ///< bit error rate (RDS links: block error rate)
  /// In-channel SINR the analytic curve consumed (sideband power over noise
  /// + co-channel stations + captured interferers); for PHY links the
  /// interference-free SNR, for reference.
  double snr_db = 0.0;
  double rx_power_dbm = 0.0;  ///< in-channel sideband power at this receiver
  std::size_t bits_delivered = 0;
  double goodput_bps = 0.0;  ///< correct payload bits per scenario second
  /// MAC queueing delay (resolved start minus nominal start) plus the burst
  /// on-air time: how long the tag's data took to arrive.
  double latency_seconds = 0.0;
};

/// What the hybrid split looked like for one run — the bench derives its
/// speedup accounting from these.
struct FleetStats {
  std::size_t links_total = 0;
  std::size_t analytic_clear = 0;
  std::size_t analytic_collision = 0;
  std::size_t phy_links = 0;
  std::size_t phy_clusters = 0;        ///< sub-scenes rendered
  std::size_t phy_tags_rendered = 0;   ///< tag copies placed in sub-scenes
  double phy_subscene_seconds = 0.0;   ///< summed sub-scene durations
};

/// The capture margin (18 dB) and its 6 dB ambiguity band are fixed in
/// fleet.cpp; PHY sub-scenes run the default ScenarioEngine without captures.
struct FleetEngineConfig {
  /// Sub-scene durations round up to this quantum so collision clusters of
  /// similar span share one fm::StationCache render per station.
  units::Seconds subscene_quantum{0.25};
};

struct FleetResult {
  /// MAC outcome per tag, exactly as ScenarioEngine would report it (the
  /// schedule is shared through resolve_scenario_plan).
  std::vector<TagMacReport> mac;
  /// Every audible (tag, receiver) link.
  std::vector<FleetLink> links;
  /// Best (lowest-BER) link per tag; tags heard by no receiver are absent.
  std::vector<FleetLink> best_per_tag;
  /// Sum of best-per-tag goodput: the deployment's delivered bit rate.
  double aggregate_goodput_bps = 0.0;
  /// Mean latency over delivered best links (0 when none delivered).
  double mean_delivery_latency_seconds = 0.0;
  FleetStats stats;
};

/// The hybrid engine. Stateless between runs, like ScenarioEngine.
/// Restrictions versus the full engine: custom-baseband tags are rejected
/// (they have no analytic error model and no burst to classify), and RDS
/// tags always resolve through a PHY sub-scene (no closed-form BLER curve).
class FleetEngine {
 public:
  explicit FleetEngine(FleetEngineConfig config = {}) : config_(config) {}

  const FleetEngineConfig& config() const { return config_; }

  /// Runs one fleet scenario. Throws std::invalid_argument on scenarios the
  /// hybrid cannot represent (custom-baseband tags) and on everything
  /// resolve_scenario_plan rejects.
  FleetResult run(const Scenario& scenario) const;

 private:
  FleetEngineConfig config_;
};

/// Runs fleet scenarios across the runner's pool after applying the sweep
/// seed policy to each (the exact counterpart of run_scenario_sweep).
/// Ordered and bit-identical at any thread count.
std::vector<FleetResult> run_fleet_sweep(SweepRunner& runner,
                                         const FleetEngine& engine,
                                         std::vector<Scenario> scenarios);

}  // namespace fmbs::core
