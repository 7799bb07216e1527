// fleet_metro and fleet_saturated: capacity points of core::FleetEngine over
// the Boston band's gateway slots, as a closed loop of whole-fleet runs.
// fleet_metro (N = 333 in a 10 s window, the density of 1000 tags in 30 s)
// populates all three link buckets and spends its time in PHY sub-scenes;
// fleet_saturated (N = 100,000 in 30 s) resolves every link analytically,
// so planning, MAC resolution and contact classification do all the work.
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/fleet.h"
#include "fm/station_cache.h"
#include "scenes.h"

namespace perfbench {

namespace {

using namespace fmbs;

std::string digest_of(const core::FleetResult& result) {
  Digest d;
  for (const core::FleetLink& l : result.links) {
    d.add(std::uint64_t{l.tag_index});
    d.add(std::uint64_t{l.receiver_index});
    d.add(std::uint64_t{static_cast<std::uint64_t>(l.resolution)});
    d.add(std::uint64_t{l.delivered ? 1U : 0U});
    d.add(l.ber);
    d.add(std::uint64_t{l.bits_delivered});
  }
  return d.hex();
}

/// Invariant-level checks that hold under any RNG: the buckets partition the
/// links, no more tags deliver than transmitted, goodput stays under the
/// offered load, and the workload exercises the buckets it was chosen for.
void check_fleet(Report& report, const std::string& name,
                 const core::Scenario& sc, const core::FleetResult& result,
                 bool saturated) {
  const core::FleetStats& st = result.stats;
  report.check(st.analytic_clear + st.analytic_collision + st.phy_links ==
                       st.links_total &&
                   st.links_total == result.links.size(),
               name + ": link buckets do not sum to the link count");
  std::size_t transmitted = 0;
  for (const core::TagMacReport& m : result.mac) transmitted += m.transmitted;
  std::size_t delivered = 0;
  for (const core::FleetLink& l : result.best_per_tag) delivered += l.delivered;
  report.check(delivered <= transmitted,
               name + ": more tags delivered than transmitted");
  double offered_bps = 0.0;
  for (const core::ScenarioTag& t : sc.tags) {
    offered_bps += static_cast<double>(t.num_bits) / sc.duration.raw();
  }
  report.check(result.aggregate_goodput_bps <= offered_bps * (1.0 + 1e-12),
               name + ": goodput exceeds the offered load");
  if (saturated) {
    report.check(st.phy_links == 0, name + ": PHY links at saturation (" +
                                        std::to_string(st.phy_links) + ")");
  } else {
    report.check(st.analytic_clear > 0 && st.analytic_collision > 0 &&
                     st.phy_links > 0,
                 name + ": a link bucket is empty");
  }
}

/// Renders the band's stations at the lengths of the shortest PHY
/// sub-scenes (the engine's 0.08 s receiver settle plus one or two
/// sub-scene quanta), which is where nearly every collision cluster lands.
void warm_subscene_renders(const core::Scenario& sc,
                           const core::FleetEngineConfig& config) {
  constexpr double kSubsceneSettleSeconds = 0.08;
  for (const double quanta : {1.0, 2.0}) {
    const units::Seconds length{kSubsceneSettleSeconds +
                                quanta * config.subscene_quantum.raw()};
    for (const core::ScenarioStation& st : sc.stations) {
      (void)fm::StationCache::instance().render(st.config, length);
    }
  }
}

/// Closed loop of capacity points, each a run of the same fleet: one burst
/// schedule, so every point does the same work and the run's points are
/// samples of one time.
Report run_fleet(const Options& opt, const std::string& name,
                 std::size_t num_tags, double window_seconds, bool saturated) {
  Report report;
  core::Scenario sc;
  const core::FleetEngine engine;

  // Set-up from a cleared cache: scene construction, plan resolution and
  // (when links go to the PHY) the sub-scene station renders.
  std::vector<double> setup_s, plan_s;
  const auto time_set_up = [&] {
    fm::StationCache::instance().clear();
    const double t0 = wall_now();
    sc = fleet_scene(opt.seed, num_tags, window_seconds);
    const double p0 = wall_now();
    (void)core::resolve_scenario_plan(sc);
    plan_s.push_back(wall_now() - p0);
    if (!saturated) warm_subscene_renders(sc, engine.config());
    setup_s.push_back(wall_now() - t0);
  };
  while (more_setups(setup_s, 0.5)) time_set_up();
  fm::StationCache::instance().reset_stats();

  std::vector<double> point_s;
  std::vector<LoopUnit> units;
  core::FleetStats st;
  std::string digest;
  double phy_sim_s = 0.0;
  const double loop_t0 = wall_now();
  while (point_s.empty() || wall_now() - loop_t0 < opt.seconds) {
    const double t0 = wall_now();
    const double c0 = cpu_now();
    const core::FleetResult result = engine.run(sc);
    point_s.push_back(wall_now() - t0);
    units.push_back({point_s.back(), cpu_now() - c0, window_seconds});
    check_fleet(report, name, sc, result, saturated);
    const std::string d = digest_of(result);
    report.check(digest.empty() || d == digest,
                 name + ": results differ between identical runs");
    digest = d;
    st = result.stats;
    phy_sim_s += result.stats.phy_subscene_seconds;
  }
  const fm::StationCache::Stats cache = fm::StationCache::instance().stats();
  // The other half of the set-ups, now that the loop's cache is read.
  while (more_setups(setup_s, 1.0)) time_set_up();

  report.note(name + ": " + std::to_string(num_tags) + " tags, " +
              std::to_string(sc.receivers.size()) + " gateways; links " +
              std::to_string(st.links_total) + " (clear " +
              std::to_string(st.analytic_clear) + ", collision " +
              std::to_string(st.analytic_collision) + ", phy " +
              std::to_string(st.phy_links) + " in " +
              std::to_string(st.phy_clusters) + " clusters)");
  report.note("fleet results digest (informational): " + digest);

  if (!opt.trace) {
    report_points(report, point_s, units);
    report.metric("setup_s", fast_time(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return report;
  }
  const double plan = median(plan_s);
  const double nonplan = median(point_s) - plan;
  report.metric("core.plan_s", plan, "s");
  report.metric("core.fleet_nonplan_s", nonplan, "s");
  double loop_nonplan = 0.0;
  for (const double p : point_s) loop_nonplan += p - plan;
  report.metric("core.fleet_host_s_per_phy_sim_s",
                phy_sim_s > 0.0 ? loop_nonplan / phy_sim_s : 0.0, "s/s");
  report.metric("core.fleet_links_analytic_clear",
                static_cast<double>(st.analytic_clear), "count");
  report.metric("core.fleet_links_analytic_collision",
                static_cast<double>(st.analytic_collision), "count");
  report.metric("core.fleet_links_phy", static_cast<double>(st.phy_links),
                "count");
  report.metric("core.fleet_phy_clusters", static_cast<double>(st.phy_clusters),
                "count");
  report.metric("core.fleet_phy_subscene_sim_s", st.phy_subscene_seconds, "s");
  report_cache_stats(report, cache.hits, cache.misses);
  return report;
}

}  // namespace

Report run_fleet_metro(const Options& opt) {
  // 2 s capacity points: short units let fast_time see past the host's
  // slow bursts.
  return run_fleet(opt, "fleet_metro", 333, 10.0, false);
}

Report run_fleet_saturated(const Options& opt) {
  return run_fleet(opt, "fleet_saturated", opt.smoke ? 20000 : 100000, 30.0,
                   true);
}

}  // namespace perfbench
