// Experiment harness: the measurement procedures of the paper's evaluation
// (section 5), each implemented once. Every function builds the point's
// one-tag scene (core::make_scenario in core/scenario.h), runs it through
// the ScenarioEngine and applies the paper's measurement methodology for
// that figure. The figure benches run them over SweepRunner::run_grid, and
// tests/golden/test_experiment_pins.cpp pins their exact outputs.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "audio/pesq_like.h"
#include "audio/program.h"
#include "channel/fading.h"
#include "core/units.h"
#include "rx/fsk_demod.h"
#include "tag/coding.h"
#include "tag/fsk.h"

namespace fmbs::core {

/// Which device decodes the backscatter channel.
enum class ReceiverKind { kPhone, kCar };

/// Tag content level relative to full deviation for overlay content.
inline constexpr double kOverlayLevel = 0.95;

/// Common experiment knobs (one struct so benches read like the paper).
struct ExperimentPoint {
  units::Dbm tag_power{-30.0};
  units::Feet distance{4.0};
  audio::ProgramGenre genre = audio::ProgramGenre::kNews;
  bool stereo_station = true;
  ReceiverKind receiver = ReceiverKind::kPhone;
  std::uint64_t seed = 1;
  /// Station content seed; 0 follows `seed`. SweepRunner pins this to the
  /// sweep's base seed so every point shares one cached station render while
  /// tag content and channel noise (derived from `seed`) stay independent.
  std::uint64_t station_seed = 0;
};

// ---- Micro-benchmarks (Fig. 6 / Fig. 7 / Fig. 14a) ------------------------

/// Backscatters a single tone over an unmodulated carrier and returns the
/// received audio SNR (dB) — the paper's Fig. 6 ratio P_tone / (P_band -
/// P_tone). stereo_band places the tone in the L-R stream (with pilot).
double run_tone_snr(const ExperimentPoint& point, units::Hertz tone,
                    bool stereo_band = false,
                    units::Seconds duration = units::Seconds{1.5});

// ---- Data (Fig. 8 / Fig. 9 / Fig. 10 / Fig. 17b) ---------------------------

/// Overlay-backscatter BER at a rate over a program-playing station.
rx::BerResult run_overlay_ber(const ExperimentPoint& point, tag::DataRate rate,
                              std::size_t num_bits);

/// Overlay BER with N-fold repetition + maximal-ratio combining (N >= 1).
rx::BerResult run_overlay_ber_mrc(const ExperimentPoint& point, tag::DataRate rate,
                                  std::size_t num_bits, std::size_t repetitions);

/// Stereo-backscatter BER: data rides the L-R stream. When
/// `point.stereo_station` is false the tag also injects the 19 kHz pilot
/// (mono-to-stereo conversion).
rx::BerResult run_stereo_ber(const ExperimentPoint& point, tag::DataRate rate,
                             std::size_t num_bits);

/// Overlay BER with forward error correction (the paper's section-8 range
/// extension). The payload is FEC-encoded + interleaved before modulation;
/// the returned BER is measured on the decoded payload.
rx::BerResult run_overlay_ber_coded(const ExperimentPoint& point,
                                    tag::DataRate rate, std::size_t payload_bits,
                                    tag::FecScheme scheme);

// ---- Audio quality (Fig. 11 / Fig. 12 / Fig. 13 / Fig. 14b) ---------------

/// Overlay audio: tag speech over the station program; returns the
/// PESQ-like score of the received mono audio against the tag's speech.
double run_overlay_pesq(const ExperimentPoint& point,
                        units::Seconds duration = units::Seconds{3.0});

/// Stereo audio backscatter PESQ (Fig. 13a/b depending on stereo_station).
double run_stereo_pesq(const ExperimentPoint& point,
                       units::Seconds duration = units::Seconds{3.0});

/// Cooperative backscatter PESQ: two phones, MIMO cancellation (Fig. 12).
double run_cooperative_pesq(const ExperimentPoint& point,
                            units::Seconds duration = units::Seconds{3.0});

// ---- Smart fabric (Fig. 17b) ----------------------------------------------

/// BER with the t-shirt antenna under a mobility pattern; `mrc_repetitions`
/// of 1 disables combining, 0 throws (the paper's 1.6 kbps bar uses 2x MRC).
/// `station_seed` of 0 follows `seed` (see ExperimentPoint::station_seed).
rx::BerResult run_fabric_ber(channel::Mobility mobility, tag::DataRate rate,
                             std::size_t num_bits, std::size_t mrc_repetitions,
                             std::uint64_t seed = 1,
                             std::uint64_t station_seed = 0);

// ---- Output formatting ------------------------------------------------------

/// One plotted series: label + y values (parallel to the x axis).
struct Series {
  std::string label;
  std::vector<double> values;
};

/// Prints a paper-style table: header, x column, one column per series.
void print_table(std::ostream& os, const std::string& title,
                 const std::string& x_label, const std::vector<double>& xs,
                 const std::vector<Series>& series, int precision = 3);

}  // namespace fmbs::core
