#include "core/sweep_runner.h"

#include <stdexcept>

namespace fmbs::core {

SweepRunner::SweepRunner(SweepConfig config)
    : config_(config),
      pool_(std::make_unique<ThreadPool>(config.threads)) {
  if (config_.base_seed == 0) {
    // 0 is ExperimentPoint::station_seed's "follow seed" sentinel; allowing
    // it here would silently disable the shared station render.
    throw std::invalid_argument("SweepConfig::base_seed must be nonzero");
  }
}

void SweepRunner::apply_seed_policy(ExperimentPoint& point,
                                    std::size_t index) const {
  point.seed = derive_seed(config_.base_seed, index);
  if (point.station_seed == 0) point.station_seed = config_.base_seed;
}

std::vector<ExperimentPoint> SweepRunner::seed_points(
    std::vector<ExperimentPoint> points) const {
  for (std::size_t i = 0; i < points.size(); ++i) apply_seed_policy(points[i], i);
  return points;
}

std::vector<Series> SweepRunner::run_grid(const std::vector<GridRow>& rows,
                                          const std::vector<double>& xs) {
  for (const GridRow& row : rows) {
    if (!row.make_point || !row.eval) {
      throw std::invalid_argument("run_grid: row needs make_point and eval");
    }
  }
  return run_cells(
      rows, xs, [this](const GridRow& row, double x, std::size_t index) {
        ExperimentPoint point = row.make_point(x);
        apply_seed_policy(point, index);
        return [point, &row, x] { return row.eval(point, x); };
      });
}

}  // namespace fmbs::core
