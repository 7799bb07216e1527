// SweepRunner: the parallel, cached execution engine behind every figure
// bench. A paper figure is a grid of ExperimentPoints (run_grid) or of
// whole Scenarios (core::run_scenario_grid); either way the sweep
//   * executes the grid across a worker thread pool (core/thread_pool.h),
//   * derives each point's RNG seed from (base_seed, grid index) via
//     core/rng.h — never from scheduling — so results are bit-identical at
//     any thread count,
//   * pins every point's station_seed to the sweep's base seed, so the
//     fm::StationCache shares one read-only station render across all
//     points of a sweep instead of re-synthesizing it per point.
//
// Typical figure bench (see bench_fig07_snr_distance.cpp):
//
//   core::SweepRunner runner;
//   std::vector<core::GridRow> rows;
//   for (double p : powers_dbm)
//     rows.push_back({label(p),
//                     [p](double d) { /* point at power p, distance d */ },
//                     [](const core::ExperimentPoint& pt, double) {
//                       return core::run_overlay_ber(pt, rate, bits).ber;
//                     }});
//   const auto series = runner.run_grid(rows, distances_ft);
//   core::print_table(std::cout, title, "dist_ft", distances_ft, series);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiment.h"
#include "core/rng.h"
#include "core/thread_pool.h"

namespace fmbs::core {

struct SweepConfig {
  /// Worker threads; 0 = one per hardware thread.
  std::size_t threads = 0;
  /// Root of per-point seed derivation, and the station seed every point
  /// shares (one cached station render per sweep).
  std::uint64_t base_seed = 1;
};

/// One row of a figure grid: the label print_table shows, a factory that
/// builds the row's ExperimentPoint for an x value, and the measurement to
/// run at that point (eval receives the x value again for procedures whose
/// knob is not an ExperimentPoint field, e.g. the Fig. 6 tone frequency).
struct GridRow {
  std::string label;
  std::function<ExperimentPoint(double x)> make_point;
  std::function<double(const ExperimentPoint& point, double x)> eval;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config = {});

  const SweepConfig& config() const { return config_; }

  /// Ordered parallel map: out[i] == fn(items[i]) regardless of thread
  /// count. All randomness must come from the item itself.
  template <typename In, typename Fn>
  auto map(const std::vector<In>& items, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const In&>>> {
    using Out = std::decay_t<std::invoke_result_t<Fn&, const In&>>;
    // vector<bool> bit-packs: concurrent out[i] writes would race. Return
    // int/char from the callback instead.
    static_assert(!std::is_same_v<Out, bool>,
                  "SweepRunner::map cannot return bool (vector<bool> is not "
                  "thread-safe element-wise)");
    std::vector<Out> out(items.size());
    pool_->parallel_for(items.size(),
                        [&](std::size_t i) { out[i] = fn(items[i]); });
    return out;
  }

  /// Applies the sweep's seed policy: point i gets seed derive_seed(base, i)
  /// and station_seed = base_seed. Scheduling-independent by construction.
  /// Points that pre-set station_seed keep it.
  std::vector<ExperimentPoint> seed_points(
      std::vector<ExperimentPoint> points) const;

  /// Full figure grid of experiment procedures (see run_cells).
  std::vector<Series> run_grid(const std::vector<GridRow>& rows,
                               const std::vector<double>& xs);

  /// The grid engine behind run_grid and core::run_scenario_grid. Builds one
  /// task per (row, x) cell in row-major order with task_of(row, x, index)
  /// — serially, so a cell's seeds depend only on its grid position — runs
  /// the tasks as one flattened work list, so narrow rows still fill the
  /// pool, and reshapes their values into one Series per row.
  template <typename Row, typename TaskOf>
  std::vector<Series> run_cells(const std::vector<Row>& rows,
                                const std::vector<double>& xs,
                                TaskOf&& task_of) {
    using Task =
        std::invoke_result_t<TaskOf&, const Row&, double, std::size_t>;
    std::vector<Task> tasks;
    for (const Row& row : rows) {
      for (const double x : xs) tasks.push_back(task_of(row, x, tasks.size()));
    }
    const std::vector<double> values =
        map(tasks, [](const Task& task) { return task(); });
    std::vector<Series> series;
    auto first = values.begin();
    for (const Row& row : rows) {
      const auto last = first + static_cast<std::ptrdiff_t>(xs.size());
      series.push_back(Series{row.label, {first, last}});
      first = last;
    }
    return series;
  }

 private:
  void apply_seed_policy(ExperimentPoint& point, std::size_t index) const;

  SweepConfig config_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fmbs::core
