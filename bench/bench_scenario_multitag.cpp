// Multi-tag coexistence bench (paper section 8): the signal-level
// ScenarioEngine driving the two deployment strategies the paper proposes
// for concurrent tags, with core::run_scenario_sweep parallelizing the
// scenarios across the SweepRunner pool (every scenario here pins its own
// seeds, so the sweep seed policy passes them through untouched).
//
//  1. Channel spreading: N tags on the planner's disjoint channels — per-tag
//     BER stays flat and aggregate goodput scales ~linearly with N.
//  2. Channel sharing: a fixed channel at rising ALOHA offered load — the
//     PHY-measured success probability tracks the analytic e^{-2G}, which
//     the repo could previously only assert from the Monte-Carlo MAC model.
//  3. City scale: the surveyed Boston band with hundreds of deployed tags,
//     timed dense (render everything) vs sparse (demand-driven rendering,
//     the engine default) from a cold station cache — the headline
//     scaling number committed to BENCH_scenario.json at the repo root
//     (regenerated by CI's bench-baselines job via `--json <path>`).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fmbs.h"
#include "fm/station_cache.h"
#include "survey/spectrum_db.h"

namespace {

using namespace fmbs;

core::Scenario spreading_scenario(std::size_t num_tags) {
  core::Scenario sc;
  sc.name = "spread" + std::to_string(num_tags);
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.station.program.stereo = false;
  sc.station.seed = 2;
  sc.seed = 2;
  sc.duration = units::Seconds{0.25};
  const auto plan = tag::plan_subcarrier_channels(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    core::ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.subcarrier = plan[i].subcarrier;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 256;
    t.packet_bits = 64;
    t.tag_power = units::Dbm{-30.0};
    t.distance_override = units::Feet{5.0};
    sc.tags.push_back(std::move(t));
    sc.receivers.push_back(core::phone_listening_to(plan[i].subcarrier));
  }
  return sc;
}

constexpr double kFrame = 96.0 / 1600.0;  // one shared-channel burst

std::vector<double> poisson_starts(std::size_t attempts, double window_seconds,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> at(0.0, window_seconds - kFrame);
  std::vector<double> starts(attempts);
  for (auto& s : starts) s = at(rng);
  return starts;
}

core::Scenario sharing_scenario(const std::vector<double>& starts,
                                double window_seconds, std::uint64_t seed) {
  core::Scenario sc;
  sc.name = "share-" + std::to_string(seed);
  sc.station.program.genre = audio::ProgramGenre::kSilence;
  sc.station.program.stereo = false;
  sc.station.seed = seed;
  sc.seed = seed;
  sc.duration = units::Seconds{window_seconds};
  for (std::size_t i = 0; i < starts.size(); ++i) {
    core::ScenarioTag t;
    t.name = "burst" + std::to_string(i);
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 96;
    t.tag_power = units::Dbm{-25.0};
    t.distance_override = units::Feet{3.0};
    t.start = units::Seconds{starts[i]};
    sc.tags.push_back(std::move(t));
  }
  sc.receivers.push_back(core::phone_listening_to(tag::SubcarrierConfig{}));
  return sc;
}

/// The ALOHA vulnerability rule on a schedule: a burst survives when no
/// other switch-on window touches its payload.
std::size_t schedule_survivors(const std::vector<double>& starts) {
  constexpr double kGuard = core::kBurstGuardSeconds;  // engine's switch-on guard
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    bool clear = true;
    for (std::size_t j = 0; clear && j < starts.size(); ++j) {
      if (j == i) continue;
      clear = starts[j] - kGuard >= starts[i] + kFrame ||
              starts[j] + kFrame + kGuard <= starts[i];
    }
    if (clear) ++survivors;
  }
  return survivors;
}

// ---- 3. City scale: Boston band, hundreds of tags ---------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The surveyed Boston band at its densest in-scene slice, carrying
/// `num_tags` deployed tags on a coordinated channel plan. Backscatter
/// channels live on the slice's FREE 100 kHz slots — a tag whose product
/// channel sits on (or right against) a licensed carrier is swamped by tens
/// of dB of co-channel FM and can never decode, so a real deployment only
/// uses slots >= one channel spacing clear of every carrier. Each free slot
/// is fed by whichever stations can reach it with a legal SSB shift (the
/// paper's footnote-2 switch: 400 kHz Carson clearance, <= 1 MHz). One
/// walk-up phone stands at a poster cluster parked on the quietest outermost
/// free slot; the coordinator keeps every OTHER cluster out of that
/// listener's tuner neighborhood (a second cluster one channel over would
/// wreck the walk-up user's SNR, so the plan spreads clusters apart).
/// Demand-driven rendering therefore synthesizes one cluster and three
/// stations, while the dense engine pays for the whole city.
core::Scenario city_scale_scenario(std::size_t num_tags,
                                   std::size_t* band_channels) {
  const auto cities = survey::builtin_city_spectra();
  const survey::CitySpectrum* boston = nullptr;
  for (const auto& city : cities) {
    if (city.name == "Boston") boston = &city;
  }
  if (boston == nullptr) throw std::runtime_error("no Boston survey");
  if (band_channels != nullptr) {
    *band_channels = boston->detectable_channels.size();
  }
  // The scene window is +-1.1 MHz around the listen channel; park it on the
  // slice of the band with the most co-resident stations.
  core::SurveySceneReport report;
  for (const int channel : boston->detectable_channels) {
    core::SurveySceneReport candidate =
        core::stations_from_survey_report(*boston, channel);
    if (candidate.stations.size() > report.stations.size()) {
      report = std::move(candidate);
    }
  }

  core::Scenario sc;
  sc.name = "boston" + std::to_string(num_tags);
  sc.stations = report.stations;
  sc.seed = 3;
  sc.duration = units::Seconds{0.17};

  // Free slots: the 100 kHz grid positions inside the scene that are at
  // least one channel spacing away from every licensed carrier.
  const double cap = core::kMaxStationOffsetHz;
  std::vector<double> free_slots;
  for (double c = -1000e3; c <= 1000e3 + 1.0; c += 100e3) {
    if (std::abs(c) > cap) continue;
    double min_dist = 1e12;
    for (const auto& st : sc.stations) {
      min_dist = std::min(min_dist, std::abs(c - st.offset.raw()));
    }
    if (min_dist >= fm::kChannelSpacingHz - 1e-6) free_slots.push_back(c);
  }
  // Stations that can legally reach a slot: SSB shift of 400 kHz..1 MHz.
  const auto feeders = [&](double slot) {
    std::vector<std::size_t> out;
    for (std::size_t s = 0; s < sc.stations.size(); ++s) {
      const double shift = slot - sc.stations[s].offset.raw();
      if (std::abs(shift) >= 400e3 - 1e-6 && std::abs(shift) <= 1000e3 + 1e-6) {
        out.push_back(s);
      }
    }
    return out;
  };
  // The walk-up cluster takes the outermost reachable free slot; the other
  // clusters stay outside that listener's pruning neighborhood.
  double poster_slot = 0.0;
  for (const double slot : free_slots) {
    if (!feeders(slot).empty() && std::abs(slot) > std::abs(poster_slot)) {
      poster_slot = slot;
    }
  }
  std::vector<double> city_slots;
  for (const double slot : free_slots) {
    if (std::abs(slot - poster_slot) > core::kSceneNeighborhoodHz + 1e3 &&
        !feeders(slot).empty()) {
      city_slots.push_back(slot);
    }
  }
  if (city_slots.empty()) throw std::runtime_error("no free city slots");

  // Two walk-up posters share the cluster slot back to back (their bursts
  // are disjoint in time — same-slot posters that talk over each other
  // garble both, so the cluster interleaves).
  constexpr std::size_t kPosterClusterTags = 2;
  for (std::size_t i = 0; i < num_tags; ++i) {
    const bool poster = i < kPosterClusterTags;
    const double slot = poster ? poster_slot
                               : city_slots[i % city_slots.size()];
    const auto f = feeders(slot);
    const std::size_t s = f[i % f.size()];
    core::ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.station_index = static_cast<int>(s);
    t.subcarrier.shift = units::Hertz{slot - sc.stations[s].offset.raw()};
    t.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 128;  // 0.08 s burst
    t.packet_bits = 64;
    t.distance_override = units::Feet{4.0};
    t.start = units::Seconds{poster ? 0.085 * static_cast<double>(i)
                             : 0.005 * static_cast<double>(i % 15)};
    sc.tags.push_back(std::move(t));
  }
  core::ScenarioReceiver phone;
  phone.name = "walkup-phone";
  phone.kind = core::ReceiverKind::kPhone;
  phone.tune_offset = units::Hertz{poster_slot};
  sc.receivers.push_back(std::move(phone));
  return sc;
}

struct CityTiming {
  double seconds = 0.0;
  core::SceneRenderStats scene;
  std::size_t links = 0;
  std::size_t links_ok = 0;  // packets decoded clean at the walk-up phone
};

CityTiming time_city_run(const core::Scenario& sc, core::SceneRendering mode) {
  fm::StationCache::instance().clear();  // cold cache: render cost counts
  const core::ScenarioEngine engine(
      {.keep_captures = false, .scene_rendering = mode});
  const double t0 = now_seconds();
  const core::ScenarioResult result = engine.run(sc);
  CityTiming out;
  out.seconds = now_seconds() - t0;
  out.scene = result.scene;
  for (const auto& link : result.receivers[0].links) {
    ++out.links;
    if (link.burst.packets_ok == link.burst.packets &&
        link.burst.packets > 0) {
      ++out.links_ok;
    }
  }
  return out;
}

int run_city_scale(const std::string& json_path) {
  std::size_t band_channels = 0;
  const core::Scenario sc = city_scale_scenario(220, &band_channels);
  std::cout << "City scale: Boston band (" << band_channels
            << " surveyed channels, " << sc.stations.size()
            << " in scene), " << sc.tags.size() << " tags, "
            << sc.receivers.size() << " receiver\n";

  const CityTiming dense = time_city_run(sc, core::SceneRendering::kDense);
  const CityTiming sparse = time_city_run(sc, core::SceneRendering::kSparse);
  const double speedup = dense.seconds / sparse.seconds;

  std::cout << "  dense : " << dense.seconds << " s  ("
            << dense.scene.stations_rendered << "/"
            << dense.scene.stations_total << " stations, "
            << dense.scene.tags_rendered << "/" << dense.scene.tags_total
            << " tags rendered)\n";
  std::cout << "  sparse: " << sparse.seconds << " s  ("
            << sparse.scene.stations_rendered << "/"
            << sparse.scene.stations_total << " stations, "
            << sparse.scene.tags_rendered << "/" << sparse.scene.tags_total
            << " tags rendered)\n";
  std::cout << "  speedup: " << speedup << "x  ("
            << 1.0 / dense.seconds << " -> " << 1.0 / sparse.seconds
            << " points/sec)\n";
  std::cout << "  phone : " << sparse.links_ok << "/" << sparse.links
            << " poster bursts decoded clean (sparse), " << dense.links_ok
            << "/" << dense.links << " (dense)\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"scenario\": \"" << sc.name << "\",\n"
        << "  \"band_channels_surveyed\": " << band_channels << ",\n"
        << "  \"stations_in_scene\": " << sparse.scene.stations_total << ",\n"
        << "  \"tags\": " << sparse.scene.tags_total << ",\n"
        << "  \"dense_seconds\": " << dense.seconds << ",\n"
        << "  \"sparse_seconds\": " << sparse.seconds << ",\n"
        << "  \"dense_points_per_sec\": " << 1.0 / dense.seconds << ",\n"
        << "  \"sparse_points_per_sec\": " << 1.0 / sparse.seconds << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"sparse_stations_rendered\": "
        << sparse.scene.stations_rendered << ",\n"
        << "  \"sparse_tags_rendered\": " << sparse.scene.tags_rendered
        << ",\n"
        << "  \"phone_links\": " << sparse.links << ",\n"
        << "  \"phone_links_decoded_clean\": " << sparse.links_ok << "\n"
        << "}\n";
    std::cout << "  wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--json <path>` (CI's bench-baselines job): run the city-scale
  // dense-vs-sparse comparison only and write its numbers as JSON.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return run_city_scale(argv[i + 1]);
    }
  }

  core::SweepRunner runner;
  const core::ScenarioEngine engine({.keep_captures = false});

  // ---- 1. Disjoint-channel spreading --------------------------------------
  const std::vector<double> tag_counts{1, 2, 4, 6, 8};
  std::vector<core::Scenario> spread;
  spread.reserve(tag_counts.size());
  for (const double n : tag_counts) {
    spread.push_back(spreading_scenario(static_cast<std::size_t>(n)));
  }
  const auto spread_results = core::run_scenario_sweep(runner, engine, spread);

  std::vector<core::Series> series(2);
  series[0].label = "worst_ber";
  series[1].label = "agg_kbps";
  for (const auto& result : spread_results) {
    double worst = 0.0;
    for (const auto& link : result.best_per_tag) {
      worst = std::max(worst, link.burst.ber.ber);
    }
    series[0].values.push_back(worst);
    series[1].values.push_back(result.aggregate_goodput_bps / 1000.0);
  }
  core::print_table(std::cout, "Channel spreading: N tags on disjoint channels",
                    "tags", tag_counts, series, 4);
  std::cout << "(per-tag BER should stay flat while goodput scales with N;\n"
               " beyond 4 tags the planner switches everyone to SSB switches)\n\n";

  // ---- 2. Shared-channel ALOHA vs the analytic model -----------------------
  // Each load point pools several independent schedules (run in parallel by
  // run_scenario_sweep) so the PHY estimate has enough attempts behind it;
  // the `sched` column applies the analytic vulnerability rule to the exact
  // same schedules, separating sampling noise from PHY disagreement.
  constexpr double kWindow = 1.8;
  constexpr std::size_t kSchedulesPerLoad = 3;
  const double frames = kWindow / kFrame;
  const std::vector<double> attempt_counts{4, 8, 15, 24};

  std::vector<core::Scenario> share;
  std::vector<std::vector<double>> schedules;
  for (std::size_t i = 0; i < attempt_counts.size(); ++i) {
    for (std::size_t k = 0; k < kSchedulesPerLoad; ++k) {
      const std::uint64_t seed = 1000 + 10 * i + k;
      schedules.push_back(poisson_starts(
          static_cast<std::size_t>(attempt_counts[i]), kWindow, seed));
      share.push_back(sharing_scenario(schedules.back(), kWindow, seed));
    }
  }
  const auto share_results = core::run_scenario_sweep(runner, engine, share);

  std::vector<double> offered_load;
  std::vector<core::Series> aloha(4);
  aloha[0].label = "phy_success";
  aloha[1].label = "sched_rule";
  aloha[2].label = "pure_e^-2G";
  aloha[3].label = "mc_aloha";
  for (std::size_t i = 0; i < attempt_counts.size(); ++i) {
    std::size_t delivered = 0, predicted = 0, attempts = 0;
    for (std::size_t k = 0; k < kSchedulesPerLoad; ++k) {
      const std::size_t idx = i * kSchedulesPerLoad + k;
      for (const auto& link : share_results[idx].best_per_tag) {
        if (link.burst.packets_ok == link.burst.packets) ++delivered;
      }
      predicted += schedule_survivors(schedules[idx]);
      attempts += schedules[idx].size();
    }
    const double g = attempt_counts[i] / frames;
    offered_load.push_back(g);
    const auto n = static_cast<double>(attempts);
    aloha[0].values.push_back(static_cast<double>(delivered) / n);
    aloha[1].values.push_back(static_cast<double>(predicted) / n);
    aloha[2].values.push_back(std::exp(-2.0 * g));
    core::AlohaConfig mc;
    mc.frame = units::Seconds{kFrame};
    mc.duration = units::Seconds{3600.0};
    mc.num_tags = static_cast<std::size_t>(attempt_counts[i]);
    mc.per_tag_rate = units::Hertz{g / (kFrame * static_cast<double>(mc.num_tags))};
    aloha[3].values.push_back(core::simulate_aloha(mc).success_probability);
  }
  core::print_table(std::cout,
                    "Channel sharing: PHY ALOHA vs analytic vs Monte-Carlo",
                    "G", offered_load, aloha, 3);
  std::cout << "(phy_success tracking sched_rule means the PHY agrees with\n"
               " the vulnerability model; e^-2G and the MAC Monte-Carlo are\n"
               " its expectation over schedules)\n\n";

  return run_city_scale("");
}
