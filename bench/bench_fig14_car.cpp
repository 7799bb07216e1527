// Fig. 14 — Overlay backscatter received by a car radio, 20-80 ft (paper:
// the car's antenna and ground plane outperform a phone; the system works
// to 60 ft; audio re-recorded by a microphone in the running cabin).
//
// Each grid cell runs a core::experiment procedure with ReceiverKind::kCar
// (whip antenna, car noise floor, two-ray ground propagation, cabin
// playback) on a mono station through SweepRunner::run_grid: run_tone_snr
// (a 1 kHz tone over an unmodulated carrier, 1 s) for the SNR panel and
// run_overlay_pesq (tag speech over news, 2.5 s) for the PESQ panel.
#include <iostream>

#include "core/sweep_runner.h"

int main() {
  using namespace fmbs;

  const std::vector<double> distances_ft{20, 30, 40, 50, 60, 70, 80};
  const std::vector<double> powers_dbm{-20, -30};

  std::vector<core::GridRow> snr_rows, pesq_rows;
  for (const double p : powers_dbm) {
    const std::string label = std::to_string(static_cast<int>(p)) + "dBm";
    const auto make_point = [p](double d) {
      core::ExperimentPoint point;
      point.tag_power = units::Dbm{p};
      point.distance = units::Feet{d};
      point.stereo_station = false;
      point.receiver = core::ReceiverKind::kCar;
      return point;
    };
    snr_rows.push_back({label, make_point,
                        [](const core::ExperimentPoint& pt, double) {
                          return core::run_tone_snr(pt, units::Hertz{1000.0},
                                                    /*stereo_band=*/false,
                                                    units::Seconds{1.0});
                        }});
    pesq_rows.push_back({label, make_point,
                         [](const core::ExperimentPoint& pt, double) {
                           return core::run_overlay_pesq(pt,
                                                         units::Seconds{2.5});
                         }});
  }
  core::SweepRunner runner;
  const auto snr_series = runner.run_grid(snr_rows, distances_ft);
  const auto pesq_series = runner.run_grid(pesq_rows, distances_ft);

  std::cout << "Fig. 14: overlay backscatter into a car receiver\n"
               "(paper: works well to 60 ft; SNR 15-45 dB over 20-80 ft)\n\n";
  core::print_table(std::cout, "Fig 14a: SNR (dB) vs distance", "dist_ft",
                    distances_ft, snr_series, 1);
  std::cout << "\n";
  core::print_table(std::cout, "Fig 14b: PESQ vs distance", "dist_ft",
                    distances_ft, pesq_series, 2);
  return 0;
}
