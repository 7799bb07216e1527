// The benchmark's inputs, each generated from the workload seed: the Boston
// city streaming scene, the metro fleet over the Boston band's gateway
// slots, and the Fig. 8 BER grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scenario.h"

namespace perfbench {

/// Uniform double in [0, 1) from draw `index` of the stream rooted at `seed`
/// (SplitMix64 through core::derive_seed: portable across toolchains).
double uniform01(std::uint64_t seed, std::uint64_t index);

/// Densest in-scene slice of the surveyed Boston band; station program
/// content is seeded from `seed`.
std::vector<fmbs::core::ScenarioStation> boston_band(std::uint64_t seed);

/// The Boston streaming scene: the full band, two SSB posters on the
/// scene-center station backscattering into a clear gateway slot, a phone on
/// that slot and a car radio on the broadcast itself.
fmbs::core::Scenario city_scene(std::uint64_t seed, double duration_seconds);

/// Bits per fleet burst (0.08 s at 1.6 kbps).
inline constexpr std::size_t kFleetBurstBits = 128;

/// `num_tags` pure-ALOHA posters spread round-robin over the band's gateway
/// slots (one gateway phone per slot), each bursting once at a uniformly
/// random time in a window of `window_seconds`.
fmbs::core::Scenario fleet_scene(std::uint64_t seed, std::size_t num_tags,
                                 double window_seconds);

/// One Fig. 8 grid cell.
struct Fig08Cell {
  fmbs::tag::DataRate rate = fmbs::tag::DataRate::k100bps;
  double power_dbm = 0.0;
  double distance_ft = 0.0;
};

/// The Fig. 8 grid (3 rates x 5 powers x 7 distances) as one-tag scenes
/// with seed 0 and station seed 0, to be pinned by the sweep seed policy.
/// `cells` receives the grid coordinates, parallel to the scenes.
std::vector<fmbs::core::Scenario> fig08_scenes(std::vector<Fig08Cell>& cells,
                                               bool smoke);

}  // namespace perfbench
