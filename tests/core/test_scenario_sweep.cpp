// Scenario-level sweeps: run_scenario_sweep / run_scenario_grid put whole
// Scenarios through the SweepRunner pool with the same two guarantees the
// point-level engine has — bit-identical results at any thread count
// (seeds derive from grid position, never scheduling) and one shared
// fm::StationCache render per station across every point of the sweep.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fm/station_cache.h"
#include "support/determinism.h"

namespace fmbs::core {
namespace {

Scenario one_tag_scenario(double power_dbm, double distance_ft) {
  Scenario sc;
  sc.name = "sweep-point";
  sc.seed = 0;          // derived per grid cell by the seed policy
  sc.station.seed = 0;  // pinned sweep-wide: one shared render
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.station.program.stereo = false;
  sc.duration = units::Seconds{0.1};
  ScenarioTag t;
  t.name = "tag";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 64;
  t.tag_power = units::Dbm{power_dbm};
  t.distance_override = units::Feet{distance_ft};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

TEST(ScenarioSweep, SeedPolicyDerivesScenarioAndPinsStationSeeds) {
  SweepConfig config{.threads = 1, .base_seed = 55};
  Scenario sc = one_tag_scenario(-30.0, 4.0);
  sc.stations.push_back(ScenarioStation{});
  sc.stations[0].config.seed = 0;  // the "derive me" sentinel
  sc.stations.push_back(ScenarioStation{});
  sc.stations[1].config.seed = 777;  // explicit seed must survive
  apply_scenario_seed_policy(sc, 3, config);
  EXPECT_EQ(sc.seed, derive_seed(55, 3));
  EXPECT_EQ(sc.station.seed, 55U);  // legacy station pinned to base
  EXPECT_NE(sc.stations[0].config.seed, 0U);
  EXPECT_EQ(sc.stations[1].config.seed, 777U);

  // The same point index always derives the same seeds (and distinct scene
  // stations get distinct content).
  Scenario again = one_tag_scenario(-30.0, 4.0);
  again.stations.push_back(ScenarioStation{});
  again.stations[0].config.seed = 0;
  apply_scenario_seed_policy(again, 3, config);
  EXPECT_EQ(again.seed, sc.seed);
  EXPECT_EQ(again.stations[0].config.seed, sc.stations[0].config.seed);
  EXPECT_NE(again.stations[0].config.seed, again.station.seed);

  // Explicit scenario seeds pass through untouched.
  Scenario pinned = one_tag_scenario(-30.0, 4.0);
  pinned.seed = 9;
  apply_scenario_seed_policy(pinned, 3, config);
  EXPECT_EQ(pinned.seed, 9U);
}

// The acceptance property: the same scenario grid is bit-identical at 1, 2
// and 8 threads.
TEST(ScenarioSweep, GridIsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> distances{3.0, 6.0};
  const std::vector<double> powers{-25.0, -40.0};

  test::ExpectBitIdenticalAcrossThreads(
      [&](std::size_t threads) {
        SweepRunner runner(SweepConfig{.threads = threads, .base_seed = 13});
        const ScenarioEngine engine({.keep_captures = false});
        std::vector<ScenarioGridRow> rows;
        for (const double p : powers) {
          rows.push_back({std::to_string(static_cast<int>(p)) + "dBm",
                          [p](double d) { return one_tag_scenario(p, d); },
                          [](const ScenarioResult& r, double) {
                            return r.best_per_tag.empty()
                                       ? -1.0
                                       : r.best_per_tag[0].burst.ber.ber;
                          }});
        }
        return run_scenario_grid(runner, engine, rows, distances);
      },
      [&](const auto& serial, const auto& other, std::size_t threads) {
        ASSERT_EQ(serial.size(), 2U);
        ASSERT_EQ(other.size(), serial.size());
        for (std::size_t r = 0; r < serial.size(); ++r) {
          ASSERT_EQ(serial[r].values.size(), distances.size());
          for (std::size_t i = 0; i < serial[r].values.size(); ++i) {
            EXPECT_GE(serial[r].values[i], 0.0) << "tag went unheard";
            EXPECT_EQ(serial[r].values[i], other[r].values[i])
                << threads << "t," << r << "," << i;
          }
        }
      });
}

// The satellite guarantee for city scenes: a repeated multi-station sweep
// reuses its station renders instead of thrashing the cache — hits at least
// match misses even though every point of every repeat renders 3 stations.
TEST(ScenarioSweep, RepeatedMultiStationSweepHitsAtLeastMisses) {
  auto& cache = fm::StationCache::instance();
  cache.clear();
  cache.reset_stats();

  auto make_scene = [] {
    Scenario sc = one_tag_scenario(-30.0, 4.0);
    for (int s = 0; s < 3; ++s) {
      ScenarioStation st;
      st.name = "st" + std::to_string(s);
      st.offset = units::Hertz{s * 400e3};
      st.power = units::Dbm{-30.0 - s};
      st.config.program.genre = audio::ProgramGenre::kSilence;
      st.config.program.stereo = false;
      st.config.seed = 0;  // pinned sweep-wide by the seed policy
      sc.stations.push_back(std::move(st));
    }
    return sc;
  };

  SweepRunner runner(SweepConfig{.threads = 2, .base_seed = 19});
  const ScenarioEngine engine({.keep_captures = false});
  for (int repeat = 0; repeat < 2; ++repeat) {
    std::vector<Scenario> points;
    for (int i = 0; i < 2; ++i) points.push_back(make_scene());
    const auto results = run_scenario_sweep(runner, engine, std::move(points));
    ASSERT_EQ(results.size(), 2U);
    ASSERT_EQ(results[0].station_renders.size(), 3U);
  }

  const auto stats = cache.stats();
  // 3 distinct stations rendered once each; the other 3 runs hit: 9 vs 3.
  EXPECT_EQ(stats.misses, 3U);
  EXPECT_GE(stats.hits, stats.misses);
  cache.clear();
}

// ---- Segmented (timeline) sweeps --------------------------------------------

/// A two-station scene with a walking carrier-sense tag on a 0.1 s
/// timeline: everything the segmented engine adds (mobility, handoff, MAC
/// deferral) in one sweep point.
Scenario segmented_mobile_scene(double walk_span_m) {
  Scenario sc;
  sc.name = "segmented-point";
  sc.seed = 0;  // derived per point by the seed policy
  sc.duration = units::Seconds{0.4};
  sc.timeline.segment = units::Seconds{0.1};
  for (int s = 0; s < 2; ++s) {
    ScenarioStation st;
    st.name = s == 0 ? "west" : "east";
    st.offset = units::Hertz{s * 800e3};
    st.power = units::Dbm{s == 0 ? -28.0 : -30.0};
    st.position = ScenePosition{s == 0 ? -60.0 : 60.0, 0.0};
    st.config.program.genre = audio::ProgramGenre::kNews;
    st.config.program.stereo = false;
    st.config.seed = 0;  // pinned sweep-wide by the seed policy
    sc.stations.push_back(std::move(st));
  }
  ScenarioTag t;
  t.name = "walker";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 96;
  t.position = {-walk_span_m, 0.0};
  t.waypoints = {{walk_span_m, 0.0}};
  t.distance_override = units::Feet{4.0};
  t.mac.kind = tag::MacKind::kCarrierSense;
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

// The tentpole acceptance property: sweeps over segmented, mobile,
// MAC-resolved scenarios are still bit-identical at 1, 2 and 8 threads.
TEST(ScenarioSweep, SegmentedSweepIsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> spans{10.0, 20.0, 30.0};

  test::ExpectBitIdenticalAcrossThreads(
      [&](std::size_t threads) {
        SweepRunner runner(SweepConfig{.threads = threads, .base_seed = 29});
        const ScenarioEngine engine({.keep_captures = false});
        std::vector<Scenario> points;
        for (const double s : spans) {
          points.push_back(segmented_mobile_scene(s));
        }
        return run_scenario_sweep(runner, engine, std::move(points));
      },
      [&](const auto& serial, const auto& other, std::size_t threads) {
        ASSERT_EQ(serial.size(), spans.size());
        ASSERT_EQ(other.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
          ASSERT_EQ(serial[i].segments.size(), 5U);
          ASSERT_EQ(serial[i].best_per_tag.size(), 1U) << "tag went unheard";
          EXPECT_EQ(serial[i].best_per_tag[0].burst.ber.ber,
                    other[i].best_per_tag[0].burst.ber.ber)
              << threads << "t," << i;
          EXPECT_EQ(serial[i].mac[0].start_seconds,
                    other[i].mac[0].start_seconds)
              << threads << "t," << i;
          for (std::size_t k = 0; k < serial[i].segments.size(); ++k) {
            EXPECT_EQ(serial[i].segments[k].selected_station,
                      other[i].segments[k].selected_station)
                << threads << "t," << i << "," << k;
          }
        }
        // The walk really produces handoffs (the sweep is not testing
        // statics).
        EXPECT_NE(serial[2].segments.front().selected_station,
                  serial[2].segments.back().selected_station);
      });
}

/// A scene where demand-driven rendering genuinely prunes: five stations,
/// but the receiver's neighborhood around the tag's +600 kHz channel covers
/// only station 0 (always rendered), +200 kHz (exactly at the 400 kHz
/// pruning boundary) and +800 kHz — the −800 kHz and −1 MHz stations are
/// never synthesized. Lazy renders then hit fm::StationCache concurrently
/// from the sweep pool, which is exactly the path this thread-identity test
/// (and its TSan lane) must cover.
Scenario pruned_city_scene(double distance_ft) {
  Scenario sc = one_tag_scenario(-30.0, distance_ft);
  sc.name = "pruned-point";
  const double offsets[5] = {0.0, 200e3, -800e3, 800e3, -1000e3};
  for (int s = 0; s < 5; ++s) {
    ScenarioStation st;
    st.name = "st" + std::to_string(s);
    st.offset = units::Hertz{offsets[s]};
    st.power = units::Dbm{-28.0 - s};
    st.config.program.genre = audio::ProgramGenre::kNews;
    st.config.program.stereo = false;
    st.config.seed = 0;  // pinned sweep-wide by the seed policy
    sc.stations.push_back(std::move(st));
  }
  sc.tags[0].station_index = 0;  // pin: selection must not rescue far stations
  return sc;
}

// Demand-driven rendering under the sweep pool: pruning decisions and the
// lazily-rendered scene must be bit-identical at 1, 2 and 8 threads even
// though the lazy renders race through the shared StationCache.
TEST(ScenarioSweep, SparseLazyRenderIsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> distances{3.0, 4.0, 6.0, 8.0};

  test::ExpectBitIdenticalAcrossThreads(
      [&](std::size_t threads) {
        SweepRunner runner(SweepConfig{.threads = threads, .base_seed = 43});
        const ScenarioEngine engine({.keep_captures = false});
        std::vector<Scenario> points;
        for (const double d : distances) {
          points.push_back(pruned_city_scene(d));
        }
        return run_scenario_sweep(runner, engine, std::move(points));
      },
      [&](const auto& serial, const auto& other, std::size_t threads) {
        ASSERT_EQ(serial.size(), distances.size());
        ASSERT_EQ(other.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
          // The pruning decision itself is part of the contract.
          EXPECT_EQ(serial[i].scene.stations_total, 5U);
          EXPECT_EQ(serial[i].scene.stations_rendered, 3U) << i;
          EXPECT_EQ(other[i].scene.stations_rendered,
                    serial[i].scene.stations_rendered)
              << threads << "t," << i;
          ASSERT_EQ(serial[i].best_per_tag.size(), 1U) << "tag went unheard";
          ASSERT_EQ(other[i].best_per_tag.size(), 1U);
          EXPECT_EQ(serial[i].best_per_tag[0].burst.ber.ber,
                    other[i].best_per_tag[0].burst.ber.ber)
              << threads << "t," << i;
          EXPECT_EQ(serial[i].best_per_tag[0].goodput_bps,
                    other[i].best_per_tag[0].goodput_bps)
              << threads << "t," << i;
          EXPECT_EQ(serial[i].selected_station, other[i].selected_station)
              << threads << "t," << i;
        }
      });
}

// Station renders are reused ACROSS segments (one render per station per
// run, never one per segment) and across sweep points: sweeping a 5-segment
// scene must keep the cache hit-rate at or above the miss count.
TEST(ScenarioSweep, MultiSegmentSweepReusesRendersAcrossSegments) {
  auto& cache = fm::StationCache::instance();
  cache.clear();
  cache.reset_stats();

  SweepRunner runner(SweepConfig{.threads = 2, .base_seed = 31});
  const ScenarioEngine engine({.keep_captures = false});
  std::vector<Scenario> points;
  for (int i = 0; i < 4; ++i) points.push_back(segmented_mobile_scene(15.0));
  const auto results = run_scenario_sweep(runner, engine, std::move(points));
  ASSERT_EQ(results.size(), 4U);
  ASSERT_EQ(results[0].segments.size(), 5U);

  const auto stats = cache.stats();
  // 2 stations x 4 points x 5 segments of use, but only 2 renders: one miss
  // per distinct station, hits for every other (point, station) lookup.
  EXPECT_EQ(stats.misses, 2U);
  EXPECT_EQ(stats.hits, 6U);
  EXPECT_GE(stats.hits, stats.misses);
  cache.clear();
}

}  // namespace
}  // namespace fmbs::core
