#include "scenes.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/rng.h"

namespace perfbench {

using namespace fmbs;

double uniform01(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(core::derive_seed(seed, index) >> 11) *
         0x1.0p-53;
}

std::vector<core::ScenarioStation> boston_band(std::uint64_t seed) {
  const auto cities = survey::builtin_city_spectra();
  const survey::CitySpectrum* boston = nullptr;
  for (const auto& city : cities) {
    if (city.name == "Boston") boston = &city;
  }
  if (boston == nullptr) throw std::runtime_error("no Boston survey");
  core::SurveySceneReport report;
  for (const int channel : boston->detectable_channels) {
    core::SurveySceneReport candidate = core::stations_from_survey_report(
        *boston, channel, units::Hertz{core::kMaxStationOffsetHz}, seed);
    if (candidate.stations.size() > report.stations.size()) {
      report = std::move(candidate);
    }
  }
  return report.stations;
}

namespace {

/// Distance from `c` to the nearest licensed carrier of the band.
double nearest_carrier_hz(const std::vector<core::ScenarioStation>& band,
                          double c) {
  double d = 1e12;
  for (const auto& st : band) d = std::min(d, std::abs(c - st.offset.raw()));
  return d;
}

struct GatewaySlot {
  double offset_hz = 0.0;
  std::vector<std::size_t> feeders;  ///< stations with a legal SSB shift here
};

/// 100 kHz grid positions a full channel clear of every carrier, reachable
/// by some station with a 400 kHz..1 MHz shift, pairwise a channel apart.
std::vector<GatewaySlot> gateway_slots(
    const std::vector<core::ScenarioStation>& band) {
  std::vector<GatewaySlot> slots;
  for (double c = -1000e3; c <= 1000e3 + 1.0; c += 100e3) {
    if (std::abs(c) > core::kMaxStationOffsetHz) continue;
    if (nearest_carrier_hz(band, c) < fm::kChannelSpacingHz - 1e-6) continue;
    GatewaySlot slot;
    slot.offset_hz = c;
    for (std::size_t s = 0; s < band.size(); ++s) {
      const double shift = std::abs(c - band[s].offset.raw());
      if (shift >= 400e3 - 1e-6 && shift <= 1000e3 + 1e-6) {
        slot.feeders.push_back(s);
      }
    }
    if (slot.feeders.empty()) continue;
    if (!slots.empty() &&
        std::abs(c - slots.back().offset_hz) < fm::kChannelSpacingHz - 1e-6) {
      continue;
    }
    slots.push_back(std::move(slot));
  }
  if (slots.empty()) throw std::runtime_error("no gateway slots in the band");
  return slots;
}

}  // namespace

core::Scenario city_scene(std::uint64_t seed, double duration_seconds) {
  core::Scenario sc;
  sc.name = "boston-streaming";
  sc.stations = boston_band(core::derive_seed(seed, 1));
  sc.duration = units::Seconds{duration_seconds};
  sc.seed = core::derive_seed(seed, 2);

  // The first 100 kHz position from 400 kHz up that is a full channel clear
  // of every carrier: a legal SSB shift off the scene-center station.
  double slot_hz = 0.0;
  for (double c = 400e3; c <= 1000e3 + 1.0; c += 100e3) {
    if (nearest_carrier_hz(sc.stations, c) >= fm::kChannelSpacingHz - 1e-6) {
      slot_hz = c;
      break;
    }
  }
  if (slot_hz == 0.0) throw std::runtime_error("no clear gateway slot");

  for (std::size_t i = 0; i < 2; ++i) {
    core::ScenarioTag t;
    t.name = "poster" + std::to_string(i);
    t.station_index = 0;
    t.subcarrier.shift = units::Hertz{slot_hz};
    t.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 128;
    t.packet_bits = 64;
    t.distance_override = units::Feet{4.0 + 2.0 * static_cast<double>(i)};
    // Both bursts inside the first station horizon. The starts are fixed:
    // burst timing is not what this workload varies.
    t.start = units::Seconds{0.3 + 0.7 * static_cast<double>(i)};
    sc.tags.push_back(std::move(t));
  }

  core::ScenarioReceiver phone;
  phone.name = "gateway";
  phone.kind = core::ReceiverKind::kPhone;
  phone.tune_offset = units::Hertz{slot_hz};
  sc.receivers.push_back(std::move(phone));

  core::ScenarioReceiver car;
  car.name = "car";
  car.kind = core::ReceiverKind::kCar;
  car.tune_offset = units::Hertz{0.0};
  sc.receivers.push_back(std::move(car));
  return sc;
}

core::Scenario fleet_scene(std::uint64_t seed, std::size_t num_tags,
                           double window_seconds) {
  core::Scenario sc;
  sc.name = "fleet" + std::to_string(num_tags);
  sc.stations = boston_band(core::derive_seed(seed, 1));
  const std::uint64_t fleet_seed = core::derive_seed(seed, 100);
  sc.seed = core::derive_seed(fleet_seed, 2);
  sc.duration = units::Seconds{window_seconds};
  const std::vector<GatewaySlot> slots = gateway_slots(sc.stations);

  // Burst start times: one uniform draw per tag from a fixed stream, then
  // shuffled among the tags of each gateway slot by the seed. Every seed thus sees the same per-slot contention (how
  // many bursts overlap, and when) while which poster — distance and
  // feeder station — sits in each overlap is the seed's. The PHY share of a
  // capacity point then repeats from seed to seed instead of swinging with
  // the Poisson count of contested clusters.
  const double burst_seconds = tag::fsk_burst_seconds(
      kFleetBurstBits, tag::DataRate::k1600bps, fm::kMpxRate);
  const double latest_start =
      window_seconds - burst_seconds - 2.0 * core::kBurstGuardSeconds;
  const std::uint64_t schedule_stream = core::derive_seed(0x5eed, 0);
  std::vector<double> starts(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    starts[i] = latest_start * uniform01(schedule_stream, i);
  }
  const std::uint64_t shuffle_stream = core::derive_seed(fleet_seed, 3);
  std::uint64_t draw = 0;
  for (std::size_t j = 0; j < slots.size(); ++j) {
    std::vector<std::size_t> members;
    for (std::size_t i = j; i < num_tags; i += slots.size()) {
      members.push_back(i);
    }
    for (std::size_t k = members.size(); k > 1; --k) {
      const auto pick = static_cast<std::size_t>(
          uniform01(shuffle_stream, draw++) * static_cast<double>(k));
      std::swap(starts[members[k - 1]], starts[members[pick]]);
    }
  }

  sc.tags.reserve(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    const GatewaySlot& slot = slots[i % slots.size()];
    const std::size_t s =
        slot.feeders[(i / slots.size()) % slot.feeders.size()];
    core::ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.station_index = static_cast<int>(s);
    t.subcarrier.shift =
        units::Hertz{slot.offset_hz - sc.stations[s].offset.raw()};
    t.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = kFleetBurstBits;
    t.packet_bits = 64;
    // Walk-up distances 4..8 ft, so same-slot bursts arrive at distinct
    // powers.
    t.distance_override = units::Feet{4.0 + static_cast<double>(i % 5)};
    t.start = units::Seconds{starts[i]};
    sc.tags.push_back(std::move(t));
  }
  for (const GatewaySlot& slot : slots) {
    core::ScenarioReceiver phone;
    phone.name = "gateway@" + std::to_string(slot.offset_hz / 1e3) + "kHz";
    phone.kind = core::ReceiverKind::kPhone;
    phone.tune_offset = units::Hertz{slot.offset_hz};
    sc.receivers.push_back(std::move(phone));
  }
  return sc;
}

std::vector<core::Scenario> fig08_scenes(std::vector<Fig08Cell>& cells,
                                         bool smoke) {
  struct RatePlan {
    tag::DataRate rate;
    std::size_t bits;
  };
  std::vector<RatePlan> plans{{tag::DataRate::k100bps, 200},
                              {tag::DataRate::k1600bps, 640},
                              {tag::DataRate::k3200bps, 960}};
  std::vector<double> powers_dbm{-20, -30, -40, -50, -60};
  std::vector<double> distances_ft{2, 4, 6, 8, 12, 16, 20};
  if (smoke) {
    plans.erase(plans.begin());
    powers_dbm = {-30};
    distances_ft = {2, 20};
  }
  std::vector<core::Scenario> scenes;
  cells.clear();
  for (const RatePlan& plan : plans) {
    for (const double p : powers_dbm) {
      for (const double d : distances_ft) {
        core::Scenario sc;
        sc.name = "fig08";
        sc.seed = 0;          // derived per cell by the sweep seed policy
        sc.station.seed = 0;  // pinned sweep-wide: one shared station render
        sc.station.program.genre = audio::ProgramGenre::kNews;
        sc.duration = units::Seconds{static_cast<double>(plan.bits) /
                                         tag::bits_per_second(plan.rate) +
                                     0.15};
        core::ScenarioTag t;
        t.name = "tag";
        t.rate = plan.rate;
        t.num_bits = plan.bits;
        t.tag_power = units::Dbm{p};
        t.distance_override = units::Feet{d};
        sc.tags.push_back(std::move(t));
        sc.receivers.push_back(
            core::phone_listening_to(sc.tags[0].subcarrier));
        scenes.push_back(std::move(sc));
        cells.push_back(Fig08Cell{plan.rate, p, d});
      }
    }
  }
  return scenes;
}

}  // namespace perfbench
