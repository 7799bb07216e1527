// sweep_fig08: the Fig. 8 BER grid (3 rates x 5 powers x 7 distances = 105
// one-tag, single-station scenes) on a core::SweepRunner pool running two
// points at a time and sharing one cached station render per rate, as a
// closed loop of sweep batches: one batch per distance (every rate and
// power at it), so every batch renders the same simulated seconds. Each
// point's ScenarioEngine::run is timed on its worker thread.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "core/rng.h"
#include "core/scenario.h"
#include "fm/station_cache.h"
#include "scenes.h"

namespace perfbench {

namespace {

using namespace fmbs;

struct PointOutcome {
  double ber = 1.0;
  double seconds = 0.0;
};

/// Every BER is a probability, and the paper's near-field anchors hold
/// (Fig. 8): 100 bps is near-zero to 6 ft at every power, and 1.6/3.2 kbps
/// keep a low BER to 16 ft from -40 dBm up.
void check_grid(Report& report, const std::vector<Fig08Cell>& cells,
                const std::vector<PointOutcome>& out) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Fig08Cell& c = cells[i];
    const double ber = out[i].ber;
    const std::string where =
        "sweep_fig08: " + std::to_string(tag::bits_per_second(c.rate)) +
        " bps @ " + std::to_string(c.power_dbm) + " dBm, " +
        std::to_string(c.distance_ft) + " ft: BER " + std::to_string(ber);
    report.check(ber >= 0.0 && ber <= 1.0, where + " outside [0,1]");
    if (c.rate == tag::DataRate::k100bps) {
      if (c.distance_ft <= 6.0) {
        report.check(ber <= 0.01, where + " misses the near-zero anchor");
      }
    } else if (c.power_dbm >= -40.0 && c.distance_ft <= 16.0) {
      report.check(ber <= 0.05, where + " misses the low-BER anchor");
    }
  }
}

}  // namespace

Report run_sweep_fig08(const Options& opt) {
  Report report;
  core::SweepConfig sweep_cfg;
  // parallel_for runs on the pool's workers plus the calling thread: one
  // worker gives two concurrent points. Two, not nproc: a run that fills
  // every CPU of a shared host times its neighbours as much as the sweep.
  constexpr std::size_t concurrency = 2;
  sweep_cfg.threads = concurrency - 1;
  sweep_cfg.base_seed = core::derive_seed(opt.seed, 4);
  const core::ScenarioEngine engine({.keep_captures = false});

  // Set-up from a cleared cache: the grid's scenes under the sweep seed
  // policy, their plans, and one station render per distinct duration.
  std::vector<Fig08Cell> cells;
  std::vector<core::Scenario> scenes;
  std::vector<double> setup_s, plan_s, render_s;
  const auto time_set_up = [&] {
    fm::StationCache::instance().clear();
    const double t0 = wall_now();
    scenes = fig08_scenes(cells, opt.smoke);
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      core::apply_scenario_seed_policy(scenes[i], i, sweep_cfg);
    }
    const double p0 = wall_now();
    for (const core::Scenario& sc : scenes) (void)core::resolve_scenario_plan(sc);
    plan_s.push_back(wall_now() - p0);
    const double r0 = wall_now();
    std::set<double> rendered;
    for (const core::Scenario& sc : scenes) {
      const double total = sc.settle.raw() + sc.duration.raw();
      if (rendered.insert(total).second) {
        (void)fm::StationCache::instance().render(sc.station,
                                                  units::Seconds{total});
      }
    }
    render_s.push_back(wall_now() - r0);
    setup_s.push_back(wall_now() - t0);
  };
  while (more_setups(setup_s, 0.5)) time_set_up();
  core::SweepRunner runner(sweep_cfg);

  // One batch per distance: every rate and power at it. The batches render
  // equal simulated seconds, so their rates are samples of one quantity.
  std::map<double, std::vector<std::size_t>> by_distance;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    by_distance[cells[i].distance_ft].push_back(i);
  }
  struct Batch {
    std::vector<Fig08Cell> cells;
    std::vector<core::Scenario> scenes;
    double sim_s = 0.0;
    std::string digest;
  };
  std::vector<Batch> batches;
  for (const auto& [distance, members] : by_distance) {
    Batch b;
    for (const std::size_t i : members) {
      b.cells.push_back(cells[i]);
      b.scenes.push_back(scenes[i]);
      b.sim_s += scenes[i].settle.raw() + scenes[i].duration.raw();
    }
    batches.push_back(std::move(b));
  }
  fm::StationCache::instance().reset_stats();

  // At least one whole grid, so every cell is checked.
  std::vector<double> point_s, busy_s, utilization;
  std::vector<LoopUnit> units;
  const double loop_t0 = wall_now();
  while (units.size() < batches.size() ||
         wall_now() - loop_t0 < opt.seconds) {
    Batch& batch = batches[units.size() % batches.size()];
    const double b0 = wall_now();
    const double c0 = cpu_now();
    const std::vector<PointOutcome> out =
        runner.map(batch.scenes, [&engine](const core::Scenario& sc) {
          const double t0 = wall_now();
          const core::ScenarioResult result = engine.run(sc);
          PointOutcome o;
          o.seconds = wall_now() - t0;
          o.ber = result.best_per_tag.empty()
                      ? 1.0
                      : result.best_per_tag[0].burst.ber.ber;
          return o;
        });
    const double wall = wall_now() - b0;
    units.push_back({wall, cpu_now() - c0, batch.sim_s, out.size()});
    double busy = 0.0;
    Digest d;
    for (const PointOutcome& o : out) {
      point_s.push_back(o.seconds);
      busy += o.seconds;
      d.add(o.ber);
    }
    busy_s.push_back(busy / static_cast<double>(out.size()));
    utilization.push_back(busy / (static_cast<double>(concurrency) * wall));
    check_grid(report, batch.cells, out);
    report.check(batch.digest.empty() || d.hex() == batch.digest,
                 "sweep_fig08: BERs differ between identical batches");
    batch.digest = d.hex();
  }
  const fm::StationCache::Stats cache = fm::StationCache::instance().stats();
  // The other half of the set-ups, now that the loop's cache is read.
  while (more_setups(setup_s, 1.0)) time_set_up();
  Digest grid_digest;
  for (const Batch& b : batches) grid_digest.add(b.digest);
  report.note("sweep_fig08: " + std::to_string(scenes.size()) + " points in " +
              std::to_string(batches.size()) + " batches of " +
              std::to_string(batches[0].sim_s) + " simulated s, " +
              std::to_string(concurrency) + " at a time; " +
              std::to_string(units.size()) + " batches run");
  report.note("BER digest (informational): " + grid_digest.hex());

  if (!opt.trace) {
    report_points(report, point_s, units);
    report.metric("setup_s", fast_time(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return report;
  }
  report.metric("core.sweep_point_busy_s", median(busy_s), "s");
  report.metric("core.sweep_pool_utilization", median(utilization), "ratio");
  report.metric("core.sweep_point_p90_s", quantile(point_s, 0.9), "s");
  report.metric("core.sweep_slowest_point_s",
                *std::max_element(point_s.begin(), point_s.end()), "s");
  report.metric("core.plan_s", median(plan_s), "s");
  report.metric("fm.station_render_s", median(render_s), "s");
  report_cache_stats(report, cache.hits, cache.misses);
  return report;
}

}  // namespace perfbench
