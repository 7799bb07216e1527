// Fig. 9 — BER with maximal-ratio combining at 1.6 kbps, -40 dBm (paper:
// combining two transmissions already reduces BER significantly; the
// ambient program acts as uncorrelated noise across repetitions).
//
// Each grid cell runs core::run_overlay_ber_mrc (480 bits sent N times in
// one capture, combined, then demodulated) through SweepRunner::run_grid —
// per-cell seeds derive from the grid position and every cell shares one
// cached station render.
#include <iostream>

#include "core/sweep_runner.h"

int main() {
  using namespace fmbs;

  const std::vector<double> distances_ft{4, 8, 12, 16, 20};
  const std::vector<std::size_t> repetitions{1, 2, 3, 4};

  std::vector<core::GridRow> rows;
  for (const std::size_t reps : repetitions) {
    rows.push_back({reps == 1 ? "No MRC" : std::to_string(reps) + "x MRC",
                    [](double d) {
                      core::ExperimentPoint point;
                      point.tag_power = units::Dbm{-40.0};
                      point.distance = units::Feet{d};
                      return point;
                    },
                    [reps](const core::ExperimentPoint& pt, double) {
                      return core::run_overlay_ber_mrc(
                                 pt, tag::DataRate::k1600bps, 480, reps)
                          .ber;
                    }});
  }
  core::SweepRunner runner;
  const auto series = runner.run_grid(rows, distances_ft);

  std::cout << "Fig. 9: BER with MRC, 1.6 kbps @ -40 dBm\n"
               "(paper: 2x combining already gives most of the gain)\n\n";
  core::print_table(std::cout, "Fig 9: BER vs distance with MRC", "dist_ft",
                    distances_ft, series, 4);
  return 0;
}
