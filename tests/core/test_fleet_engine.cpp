// The hybrid fleet engine's contract (threaded label: run_fleet_sweep
// exercises the SweepRunner pool, and the PHY sub-scenes go through the
// shared StationCache):
//  * it shares the signal-level engine's MAC schedule exactly,
//  * uncontested links agree with the full PHY — identical delivery
//    outcome, BER within tolerance — while never rendering a sample,
//  * deep same-power payload collisions resolve analytically as certain
//    losses (no sub-scene), grazing overlaps drop into a PHY cluster,
//  * a fleet sweep is bit-identical at 1/2/8 threads.
#include "core/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "support/determinism.h"
#include "tag/channel_plan.h"

namespace fmbs::core {
namespace {

constexpr std::size_t kBits = 64;  // 0.04 s burst at 1.6 kbps
constexpr double kBurst = 0.04;

/// Tags on disjoint planned channels — no contention by construction — at
/// per-tag ambient powers spanning a clean link, a comfortable link and a
/// hopeless one, with one phone per channel.
Scenario spread_scenario(std::uint64_t seed) {
  Scenario sc;
  sc.name = "fleet-spread";
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.station.program.stereo = false;
  sc.station.seed = 5;
  sc.seed = seed;
  sc.duration = units::Seconds{0.2};
  const auto plan = tag::plan_subcarrier_channels(3);
  // Two saturated-clean links and one hopeless one (-85 dBm is far below
  // the demodulator's sync cliff, so PHY and analytic both sit at chance
  // level; mid-waterfall powers would compare a meaningful analytic BER
  // against a failed-sync PHY decode, which is noise-vs-noise).
  const double powers[] = {-30.0, -35.0, -85.0};
  for (std::size_t i = 0; i < 3; ++i) {
    ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.subcarrier = plan[i].subcarrier;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = kBits;
    t.packet_bits = 32;
    t.tag_power = units::Dbm{powers[i]};
    t.distance_override = units::Feet{4.0};
    t.start = units::Seconds{0.02};
    sc.tags.push_back(std::move(t));
    sc.receivers.push_back(phone_listening_to(plan[i].subcarrier));
  }
  return sc;
}

/// Two equal-power tags talking over each other on one channel (full
/// payload overlap), plus a third well clear of both.
Scenario collision_scenario(std::uint64_t seed, double second_start) {
  Scenario sc;
  sc.name = "fleet-collision";
  sc.station.program.genre = audio::ProgramGenre::kSilence;
  sc.station.program.stereo = false;
  sc.station.seed = 5;
  sc.seed = seed;
  sc.duration = units::Seconds{0.45};
  for (std::size_t i = 0; i < 3; ++i) {
    ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = kBits;
    t.packet_bits = 32;
    t.tag_power = units::Dbm{-25.0};
    t.distance_override = units::Feet{3.0};
    t.start = units::Seconds{i == 0 ? 0.0 : (i == 1 ? second_start : 0.3)};
    sc.tags.push_back(std::move(t));
  }
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

const FleetLink* link_of_tag(const FleetResult& result, std::size_t tag) {
  for (const FleetLink& link : result.best_per_tag) {
    if (link.tag_index == tag) return &link;
  }
  return nullptr;
}

TEST(FleetEngine, SharesTheScenarioEnginesMacSchedule) {
  const Scenario sc = spread_scenario(21);
  const FleetResult fleet = FleetEngine().run(sc);
  const ScenarioResult phy = ScenarioEngine({.keep_captures = false}).run(sc);
  ASSERT_EQ(fleet.mac.size(), phy.mac.size());
  for (std::size_t i = 0; i < fleet.mac.size(); ++i) {
    EXPECT_EQ(fleet.mac[i].transmitted, phy.mac[i].transmitted);
    EXPECT_EQ(fleet.mac[i].deferrals, phy.mac[i].deferrals);
    EXPECT_EQ(fleet.mac[i].start_seconds, phy.mac[i].start_seconds);
    EXPECT_EQ(fleet.mac[i].last_sensed_dbm, phy.mac[i].last_sensed_dbm);
  }
}

TEST(FleetEngine, HybridMatchesPhyAtSmallN) {
  const Scenario sc = spread_scenario(21);
  const FleetResult fleet = FleetEngine().run(sc);
  const ScenarioResult phy = ScenarioEngine({.keep_captures = false}).run(sc);

  // Disjoint channels: every link must resolve analytically, no sub-scene.
  EXPECT_EQ(fleet.stats.phy_clusters, 0U);
  EXPECT_EQ(fleet.stats.phy_links, 0U);
  EXPECT_EQ(fleet.stats.analytic_collision, 0U);
  ASSERT_EQ(fleet.best_per_tag.size(), 3U);
  ASSERT_EQ(phy.best_per_tag.size(), 3U);

  for (std::size_t i = 0; i < 3; ++i) {
    const FleetLink* fl = link_of_tag(fleet, i);
    ASSERT_NE(fl, nullptr);
    const TagLinkReport* pl = nullptr;
    for (const TagLinkReport& link : phy.best_per_tag) {
      if (link.tag_index == i) pl = &link;
    }
    ASSERT_NE(pl, nullptr);
    const bool phy_delivered =
        pl->burst.packets > 0 && pl->burst.packets_ok == pl->burst.packets;
    EXPECT_EQ(fl->delivered, phy_delivered)
        << "tag " << i << ": hybrid and PHY disagree on delivery";
    EXPECT_NEAR(fl->ber, pl->burst.ber.ber, 0.1)
        << "tag " << i << ": analytic BER drifted from the demodulator";
    // The analytic SNR comes from the same link table the engine renders
    // with, so the reported in-channel power must match exactly.
    EXPECT_EQ(fl->rx_power_dbm, pl->backscatter_rx_power_dbm);
  }
  // Strong link delivers, hopeless link cannot.
  EXPECT_TRUE(link_of_tag(fleet, 0)->delivered);
  EXPECT_FALSE(link_of_tag(fleet, 2)->delivered);
  EXPECT_GT(link_of_tag(fleet, 2)->ber, 0.3);
}

TEST(FleetEngine, SamePowerPayloadCollisionIsAnalyticCertainLoss) {
  // Tag 1 starts one symbol into tag 0's payload: both bursts lose more
  // than a symbol to a same-power interferer — certain loss, no cluster.
  const Scenario sc = collision_scenario(22, 0.01);
  const FleetResult fleet = FleetEngine().run(sc);
  EXPECT_EQ(fleet.stats.phy_clusters, 0U);
  const FleetLink* t0 = link_of_tag(fleet, 0);
  const FleetLink* t1 = link_of_tag(fleet, 1);
  const FleetLink* t2 = link_of_tag(fleet, 2);
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t0->resolution, FleetLinkResolution::kAnalyticCollision);
  EXPECT_EQ(t1->resolution, FleetLinkResolution::kAnalyticCollision);
  EXPECT_FALSE(t0->delivered);
  EXPECT_FALSE(t1->delivered);
  EXPECT_EQ(t0->bits_delivered, 0U);
  // The clear bystander is untouched by the collision.
  EXPECT_EQ(t2->resolution, FleetLinkResolution::kAnalyticClear);
  EXPECT_TRUE(t2->delivered);

  // The signal-level engine agrees about all three.
  const ScenarioResult phy = ScenarioEngine({.keep_captures = false}).run(sc);
  for (const TagLinkReport& link : phy.best_per_tag) {
    const bool delivered =
        link.burst.packets > 0 && link.burst.packets_ok == link.burst.packets;
    EXPECT_EQ(delivered, link.tag_index == 2)
        << "PHY disagrees for tag " << link.tag_index;
  }
}

TEST(FleetEngine, GrazingOverlapDropsIntoAPhyCluster) {
  // Tag 1 starts 2 ms before tag 0's payload ends: a sub-symbol graze the
  // analytic rule refuses to call — the pair goes to the PHY.
  const Scenario sc = collision_scenario(23, kBurst - 0.002);
  const FleetResult fleet = FleetEngine().run(sc);
  EXPECT_EQ(fleet.stats.phy_clusters, 1U);
  EXPECT_EQ(fleet.stats.phy_tags_rendered, 2U);
  EXPECT_GT(fleet.stats.phy_subscene_seconds, 0.0);
  const FleetLink* t0 = link_of_tag(fleet, 0);
  const FleetLink* t1 = link_of_tag(fleet, 1);
  const FleetLink* t2 = link_of_tag(fleet, 2);
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t0->resolution, FleetLinkResolution::kPhyCluster);
  EXPECT_EQ(t1->resolution, FleetLinkResolution::kPhyCluster);
  EXPECT_EQ(t2->resolution, FleetLinkResolution::kAnalyticClear);
  EXPECT_TRUE(t2->delivered);
  // The sub-scene really decoded the grazed bursts: BERs are in range and
  // the reports carry the demodulator's packet accounting.
  EXPECT_GE(t0->ber, 0.0);
  EXPECT_LE(t0->ber, 0.55);
  EXPECT_GE(t1->ber, 0.0);
  EXPECT_LE(t1->ber, 0.55);
}

TEST(FleetEngine, RejectsCustomBasebandTags) {
  Scenario sc = collision_scenario(24, 0.3);
  sc.tags[0].custom_baseband.assign(480, 0.1F);
  EXPECT_THROW((void)FleetEngine().run(sc), std::invalid_argument);
}

// The analytic links never build a station modulator, so only the plan can
// reject a deviation the signal-level engine cannot modulate.
TEST(FleetEngine, RejectsOutOfRangeStationDeviation) {
  for (const double v : {-75e3, 0.0, 200e3}) {
    Scenario sc = spread_scenario(25);
    sc.station.deviation = units::Hertz{v};
    EXPECT_THROW((void)FleetEngine().run(sc), std::invalid_argument)
        << "station.deviation = " << v;
  }
}

// A tag subcarrier the generator cannot synthesize used to pass the plan:
// ScenarioEngine threw only after it had rendered the stations, and
// FleetEngine's analytic path, which builds no generator, reported a
// delivered link. The plan now applies the generator's own rule.
TEST(FleetEngine, RejectsTagSubcarriersTheGeneratorCannotSynthesize) {
  Scenario base = spread_scenario(25);
  base.tags.resize(1);
  base.receivers.resize(1);
  ASSERT_NO_THROW((void)resolve_scenario_plan(base));
  const double nyquist = fm::kRfRate / 2.0;
  const struct {
    const char* what;
    double shift;
    double deviation;
  } cases[] = {
      {"deviation 0", 400e3, 0.0},
      {"deviation -75 kHz", 400e3, -75e3},
      {"shift 0", 0.0, 75e3},
      {"|shift| + deviation at Nyquist", nyquist - 75e3, 75e3},
      {"|shift| + deviation past Nyquist", -(nyquist - 50e3), 75e3},
  };
  for (const auto& c : cases) {
    Scenario sc = base;
    sc.tags[0].subcarrier.shift = units::Hertz{c.shift};
    sc.tags[0].subcarrier.deviation = units::Hertz{c.deviation};
    EXPECT_THROW((void)resolve_scenario_plan(sc), std::invalid_argument)
        << c.what;
    EXPECT_THROW((void)ScenarioEngine({.keep_captures = false}).run(sc),
                 std::invalid_argument)
        << c.what;
    EXPECT_THROW((void)FleetEngine().run(sc), std::invalid_argument)
        << c.what;
  }
}

TEST(FleetEngine, FleetSweepBitIdenticalAcrossThreads) {
  const auto make_sweep = [] {
    std::vector<Scenario> sweep;
    for (std::uint64_t k = 0; k < 3; ++k) {
      Scenario spread = spread_scenario(0);  // seed derived by the policy
      spread.name += "-" + std::to_string(k);
      spread.tags[0].tag_power = units::Dbm{-30.0 - static_cast<double>(k)};
      sweep.push_back(std::move(spread));
      // Include a graze point so sub-scene rendering is inside the
      // bit-identity contract, not just the analytic path.
      Scenario graze = collision_scenario(0, kBurst - 0.002);
      graze.name += "-" + std::to_string(k);
      sweep.push_back(std::move(graze));
    }
    return sweep;
  };

  const auto run_at = [&](std::size_t threads) {
    SweepRunner runner({.threads = threads, .base_seed = 99});
    const FleetEngine engine;
    return run_fleet_sweep(runner, engine, make_sweep());
  };
  const auto compare = [](const std::vector<FleetResult>& ref,
                          const std::vector<FleetResult>& other,
                          std::size_t threads) {
    ASSERT_EQ(ref.size(), other.size()) << threads << " threads";
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const FleetResult& a = ref[i];
      const FleetResult& b = other[i];
      EXPECT_EQ(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
      EXPECT_EQ(a.mean_delivery_latency_seconds,
                b.mean_delivery_latency_seconds);
      ASSERT_EQ(a.links.size(), b.links.size());
      for (std::size_t l = 0; l < a.links.size(); ++l) {
        EXPECT_EQ(a.links[l].tag_index, b.links[l].tag_index);
        EXPECT_EQ(a.links[l].receiver_index, b.links[l].receiver_index);
        EXPECT_EQ(a.links[l].resolution, b.links[l].resolution);
        EXPECT_EQ(a.links[l].delivered, b.links[l].delivered);
        EXPECT_EQ(a.links[l].ber, b.links[l].ber);
        EXPECT_EQ(a.links[l].snr_db, b.links[l].snr_db);
        EXPECT_EQ(a.links[l].rx_power_dbm, b.links[l].rx_power_dbm);
        EXPECT_EQ(a.links[l].bits_delivered, b.links[l].bits_delivered);
        EXPECT_EQ(a.links[l].latency_seconds, b.links[l].latency_seconds);
      }
      ASSERT_EQ(a.mac.size(), b.mac.size());
      for (std::size_t t = 0; t < a.mac.size(); ++t) {
        EXPECT_EQ(a.mac[t].start_seconds, b.mac[t].start_seconds);
        EXPECT_EQ(a.mac[t].transmitted, b.mac[t].transmitted);
      }
    }
  };
  test::ExpectBitIdenticalAcrossThreads(run_at, compare);
}

}  // namespace
}  // namespace fmbs::core
