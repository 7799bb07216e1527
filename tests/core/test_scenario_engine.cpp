// Property tests for the multi-tag scenario engine:
//  * K tags on K disjoint channels each decode exactly as they do solo
//    (spectrum separation really isolates them),
//  * the demod router, channel planner and audibility rules behave,
//  * inconsistent or non-finite scenarios are rejected before rendering.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/fleet.h"
#include "core/streaming.h"
#include "fm/station_cache.h"
#include "tag/baseband.h"
#include "tag/channel_plan.h"

namespace fmbs::core {
namespace {

// ---- Disjoint channels isolate tags ----------------------------------------

Scenario disjoint_scenario(std::size_t num_tags) {
  Scenario sc;
  sc.name = "disjoint";
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.station.program.stereo = false;
  sc.station.seed = 33;
  sc.seed = 33;
  sc.duration = units::Seconds{0.25};
  const auto plan = tag::plan_subcarrier_channels(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.subcarrier = plan[i].subcarrier;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 96;
    t.tag_power = units::Dbm{-35.0};
    t.distance_override = units::Feet{6.0};
    sc.tags.push_back(std::move(t));
    sc.receivers.push_back(phone_listening_to(plan[i].subcarrier));
  }
  return sc;
}

TEST(ScenarioEngine, DisjointChannelTagsMatchTheirSoloRuns) {
  constexpr std::size_t kTags = 3;
  const Scenario all = disjoint_scenario(kTags);
  const ScenarioEngine engine;
  const ScenarioResult together = engine.run(all);
  ASSERT_EQ(together.best_per_tag.size(), kTags);

  for (std::size_t i = 0; i < kTags; ++i) {
    // Solo run: same tag, same seeds (explicitly pinned to the multi-run
    // derived values so content and noise draws are unchanged), same rx.
    Scenario solo = all;
    solo.tags = {all.tags[i]};
    solo.tags[0].seed = derive_seed(all.seed, 0x1000 + i);
    solo.receivers = {all.receivers[i]};
    solo.receivers[0].noise_seed = derive_seed(all.seed, 0x3000 + i);
    const ScenarioResult alone = engine.run(solo);
    ASSERT_EQ(alone.best_per_tag.size(), 1U);

    const auto& multi = together.best_per_tag[i];
    const auto& single = alone.best_per_tag[0];
    EXPECT_EQ(multi.tag_index, i);
    // Spectrum separation: adjacent-channel leakage must not flip any bit
    // relative to the tag running alone.
    EXPECT_EQ(multi.burst.ber.bit_errors, single.burst.ber.bit_errors) << i;
    EXPECT_EQ(multi.burst.ber.bits_compared, single.burst.ber.bits_compared) << i;
    EXPECT_EQ(multi.burst.ber.bit_errors, 0U) << "link should be clean at -35 dBm";
  }
}

// ---- Same-channel collision is physical ------------------------------------

TEST(ScenarioEngine, SameChannelOverlapCollidesAndStaggerRecovers) {
  Scenario sc;
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.station.program.stereo = false;
  sc.station.seed = 21;  // a quiet program stretch under the burst window
  sc.seed = 21;
  sc.duration = units::Seconds{0.35};
  for (int i = 0; i < 2; ++i) {
    ScenarioTag t;
    t.name = i == 0 ? "a" : "b";
    t.rate = tag::DataRate::k1600bps;  // robust solo at this power/range
    t.num_bits = 128;
    t.tag_power = units::Dbm{-20.0};
    t.distance_override = units::Feet{3.0};
    t.start = units::Seconds{0.0};  // fully overlapping bursts
    sc.tags.push_back(std::move(t));
  }
  ScenarioReceiver rx;
  rx.tune_offset = units::Hertz{sc.tags[0].subcarrier.shift.raw()};
  sc.receivers.push_back(rx);

  const ScenarioEngine engine;
  const ScenarioResult collided = engine.run(sc);
  ASSERT_EQ(collided.best_per_tag.size(), 2U);
  // Equal-power overlap on one channel destroys both packets.
  for (const auto& link : collided.best_per_tag) {
    EXPECT_GT(link.burst.ber.ber, 0.08) << "collision should corrupt the payload";
    EXPECT_EQ(link.burst.packets_ok, 0U);
  }

  // Stagger the second tag clear of the first: both decode cleanly.
  Scenario staggered = sc;
  staggered.tags[1].start = units::Seconds{0.15};  // 128 bits @ 1.6 kbps = 80 ms
  const ScenarioResult apart = engine.run(staggered);
  ASSERT_EQ(apart.best_per_tag.size(), 2U);
  for (const auto& link : apart.best_per_tag) {
    EXPECT_EQ(link.burst.ber.bit_errors, 0U)
        << "staggered burst should be clean, tag " << link.tag_index;
  }
  EXPECT_GT(apart.aggregate_goodput_bps, collided.aggregate_goodput_bps);
}

// ---- Channel planner -------------------------------------------------------

TEST(ChannelPlan, DisjointUpToCapacityThenShared) {
  const auto four = tag::plan_subcarrier_channels(4);
  for (const auto& a : four) {
    EXPECT_EQ(a.subcarrier.mode, tag::SubcarrierMode::kBandlimitedSquare);
    EXPECT_FALSE(a.shared);
    EXPECT_GE(std::abs(a.subcarrier.shift.raw()), 400000.0);
  }

  const auto eight = tag::plan_subcarrier_channels(8);
  std::set<double> shifts;
  for (const auto& a : eight) {
    EXPECT_EQ(a.subcarrier.mode, tag::SubcarrierMode::kSingleSideband);
    EXPECT_FALSE(a.shared);
    shifts.insert(a.subcarrier.shift.raw());
  }
  // All distinct signed channels: 4 raster channels x 2 signs fill the
  // 2.4 MHz scene.
  EXPECT_EQ(shifts.size(), 8U);

  const auto ten = tag::plan_subcarrier_channels(10);
  EXPECT_FALSE(ten[7].shared);
  EXPECT_TRUE(ten[8].shared);  // band full: round-robin reuse
  EXPECT_TRUE(ten[9].shared);
  EXPECT_EQ(ten[8].subcarrier.shift.raw(), ten[0].subcarrier.shift.raw());

  EXPECT_THROW(tag::plan_subcarrier_channels(0), std::invalid_argument);
}

TEST(ChannelPlan, AudibilityFollowsWaveformMirrors) {
  ScenarioTag square;
  square.subcarrier.shift = units::Hertz{600000.0};
  square.subcarrier.mode = tag::SubcarrierMode::kBandlimitedSquare;
  EXPECT_TRUE(tag_audible_at(square, units::Hertz{600000.0}));
  EXPECT_TRUE(tag_audible_at(square, units::Hertz{-600000.0}));  // mirror copy
  EXPECT_FALSE(tag_audible_at(square, units::Hertz{400000.0}));
  EXPECT_FALSE(tag_audible_at(square, units::Hertz{0.0}));  // ambient rx hears no tag data

  ScenarioTag ssb = square;
  ssb.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
  EXPECT_TRUE(tag_audible_at(ssb, units::Hertz{600000.0}));
  EXPECT_FALSE(tag_audible_at(ssb, units::Hertz{-600000.0}));  // mirror suppressed
}

// ---- Multi-station scenes ---------------------------------------------------

ScenarioStation make_station(const std::string& name, double offset_hz,
                             double power_dbm, std::uint64_t seed,
                             audio::ProgramGenre genre) {
  ScenarioStation st;
  st.name = name;
  st.offset = units::Hertz{offset_hz};
  st.power = units::Dbm{power_dbm};
  st.config.program.genre = genre;
  st.config.program.stereo = false;
  st.config.seed = seed;
  return st;
}

TEST(ScenarioMultiStation, StationPowerFollowsGeometry) {
  ScenarioStation far = make_station("far", 0.0, -30.0, 1,
                                     audio::ProgramGenre::kNews);
  // Far field: uniform everywhere.
  EXPECT_DOUBLE_EQ(station_power_at(far, {0.0, 0.0}).raw(), -30.0);
  EXPECT_DOUBLE_EQ(station_power_at(far, {500.0, -200.0}).raw(), -30.0);

  ScenarioStation near = far;
  near.position = ScenePosition{100.0, 0.0};
  // At the origin the reference power holds; half the distance = +6 dB.
  EXPECT_NEAR(station_power_at(near, {0.0, 0.0}).raw(), -30.0, 1e-12);
  EXPECT_NEAR(station_power_at(near, {50.0, 0.0}).raw(),
              -30.0 + 20.0 * std::log10(2.0),
              1e-9);
  EXPECT_LT(station_power_at(near, {-100.0, 0.0}).raw(), -36.0);
}

TEST(ScenarioMultiStation, TagsSelectTheStrongestStation) {
  Scenario sc;
  sc.seed = 91;
  ScenarioStation a =
      make_station("west", 0.0, -28.0, 91, audio::ProgramGenre::kNews);
  a.position = ScenePosition{-60.0, 0.0};
  ScenarioStation b =
      make_station("east", 800e3, -30.0, 92, audio::ProgramGenre::kPop);
  b.position = ScenePosition{60.0, 0.0};
  sc.stations = {a, b};
  sc.settle = units::Seconds{0.0};
  sc.duration = units::Seconds{0.05};
  for (const double x : {-10.0, 10.0}) {
    ScenarioTag t;
    t.name = x < 0 ? "west-tag" : "east-tag";
    t.position = {x, 0.0};
    t.custom_baseband = dsp::rvec(1, 0.0F);  // unmodulated: selection only
    sc.tags.push_back(std::move(t));
  }
  // A third tag pinned against the geometric choice.
  ScenarioTag pinned = sc.tags[1];
  pinned.name = "pinned-west";
  pinned.station_index = 0;
  sc.tags.push_back(std::move(pinned));
  sc.receivers.emplace_back();

  const ScenarioResult r = ScenarioEngine({.keep_captures = false}).run(sc);
  ASSERT_EQ(r.selected_station.size(), 3U);
  EXPECT_EQ(r.selected_station[0], 0);  // west tag hears the west station best
  EXPECT_EQ(r.selected_station[1], 1);  // east tag flips to the east station
  EXPECT_EQ(r.selected_station[2], 0);  // explicit index wins
  ASSERT_EQ(r.station_renders.size(), 2U);
  EXPECT_EQ(r.station, r.station_renders[0]);
}

// The acceptance property of the multi-station scene: spectrally disjoint
// stations superpose linearly — each receiver's capture matches the
// corresponding single-station run to within the tuner's adjacent-channel
// leakage (the only path by which the other station can reach it).
TEST(ScenarioMultiStation, DisjointStationsSuperposeWithinTunerLeakage) {
  const ScenarioStation a =
      make_station("A", 0.0, -30.0, 61, audio::ProgramGenre::kNews);
  const ScenarioStation b =
      make_station("B", 800e3, -33.0, 62, audio::ProgramGenre::kPop);

  Scenario both;
  both.name = "two-station";
  both.seed = 61;
  both.stations = {a, b};
  both.duration = units::Seconds{0.25};
  ScenarioTag t;
  t.name = "tag";
  t.subcarrier.shift = units::Hertz{400e3};  // station A's tag, channel at +400 kHz
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 96;
  t.distance_override = units::Feet{4.0};
  t.seed = 777;  // pinned so the solo run reuses the same content
  both.tags = {t};
  ScenarioReceiver rx_tag = phone_listening_to(t.subcarrier);
  rx_tag.name = "tag-rx";
  rx_tag.noise_seed = 5001;
  ScenarioReceiver rx_b;
  rx_b.name = "b-rx";
  rx_b.tune_offset = units::Hertz{b.offset.raw()};  // parked on station B's carrier
  rx_b.noise_seed = 5002;
  both.receivers = {rx_tag, rx_b};

  const ScenarioEngine engine;
  const ScenarioResult r_both = engine.run(both);

  Scenario only_a = both;
  only_a.stations = {a};
  only_a.receivers = {rx_tag};
  const ScenarioResult r_a = engine.run(only_a);

  Scenario only_b = both;
  only_b.stations = {b};
  only_b.tags.clear();  // the tag belongs to station A's scene
  only_b.receivers = {rx_b};
  const ScenarioResult r_b = engine.run(only_b);

  // The tag decodes identically with and without the far station on air.
  ASSERT_EQ(r_both.best_per_tag.size(), 1U);
  ASSERT_EQ(r_a.best_per_tag.size(), 1U);
  EXPECT_EQ(r_both.best_per_tag[0].burst.ber.bit_errors,
            r_a.best_per_tag[0].burst.ber.bit_errors);
  EXPECT_EQ(r_both.best_per_tag[0].burst.ber.bit_errors, 0U);

  // Relative RMS error over [t0, t1): comparisons are windowed to where a
  // deterministic signal dominates the channel — outside a burst the FM
  // demodulator outputs pure receiver noise, which is chaotic under any
  // perturbation and says nothing about superposition.
  auto rel_rms_diff = [](const audio::MonoBuffer& x, const audio::MonoBuffer& y,
                         double t0, double t1) {
    EXPECT_EQ(x.size(), y.size());
    const auto i0 = static_cast<std::size_t>(t0 * fm::kAudioRate);
    const auto i1 = std::min(static_cast<std::size_t>(t1 * fm::kAudioRate),
                             std::min(x.size(), y.size()));
    double err = 0.0, sig = 0.0;
    for (std::size_t i = i0; i < i1; ++i) {
      const double d =
          static_cast<double>(x.samples[i]) - static_cast<double>(y.samples[i]);
      err += d * d;
      sig += static_cast<double>(x.samples[i]) * x.samples[i];
    }
    return std::sqrt(err / std::max(sig, 1e-30));
  };
  // 70 dB of tuner stopband keeps the cross-station error orders of
  // magnitude below the wanted audio (measured ~8e-5 / ~5e-6 here).
  EXPECT_LT(rel_rms_diff(r_both.receivers[0].capture.mono,
                         r_a.receivers[0].capture.mono, 0.085, 0.14),
            1e-3);  // the tag burst window
  EXPECT_LT(rel_rms_diff(r_both.receivers[1].capture.mono,
                         r_b.receivers[0].capture.mono, 0.02, 0.33),
            1e-4);  // station B program, past the front-end warm-up
}

TEST(ScenarioMultiStation, AudibilityFollowsTheStationOffset) {
  ScenarioTag square;
  square.subcarrier.shift = units::Hertz{600e3};
  square.subcarrier.mode = tag::SubcarrierMode::kBandlimitedSquare;
  // Station at -800 kHz: mirror channels land at -200 kHz and -1.4 MHz.
  EXPECT_TRUE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{-200e3}));
  EXPECT_TRUE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{-1400e3}));
  EXPECT_FALSE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{600e3}));
  EXPECT_FALSE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{-800e3}));  // the carrier itself

  ScenarioTag ssb = square;
  ssb.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
  ssb.subcarrier.shift = units::Hertz{-600e3};
  EXPECT_TRUE(tag_audible_at(ssb, units::Hertz{800e3}, units::Hertz{200e3}));
  EXPECT_FALSE(tag_audible_at(ssb, units::Hertz{800e3}, units::Hertz{1400e3}));  // mirror suppressed
}

TEST(ScenarioMultiStation, StationsFromSurveyMapTheNeighborhood) {
  survey::CitySpectrum city;
  city.name = "Testville";
  city.detectable_channels = {48, 49, 51, 53, 90};
  city.detectable_power_dbm = {-50.0, -25.0, -60.0, -40.0, -20.0};

  const auto stations = stations_from_survey(city, 49);
  // Channel 90 is 8.2 MHz up-band: outside the 2.4 MHz scene.
  ASSERT_EQ(stations.size(), 4U);
  // Sorted by |offset|: the listen channel itself is station 0.
  EXPECT_DOUBLE_EQ(stations[0].offset.raw(), 0.0);
  EXPECT_DOUBLE_EQ(stations[0].power.raw(), -25.0);
  EXPECT_DOUBLE_EQ(stations[1].offset.raw(), -200e3);
  EXPECT_DOUBLE_EQ(stations[1].power.raw(), -50.0);
  EXPECT_DOUBLE_EQ(stations[2].offset.raw(), 400e3);
  EXPECT_DOUBLE_EQ(stations[3].offset.raw(), 800e3);
  // Distinct deterministic content per channel.
  std::set<std::uint64_t> seeds;
  for (const auto& st : stations) seeds.insert(st.config.seed);
  EXPECT_EQ(seeds.size(), stations.size());
  // A tighter cap trims the scene.
  EXPECT_EQ(stations_from_survey(city, 49, units::Hertz{300e3}).size(), 2U);
  // An empty scene is a misconfiguration, not legacy single-station mode.
  EXPECT_THROW(stations_from_survey(city, 0, units::Hertz{100e3}), std::invalid_argument);
}

// Regression: a surveyed channel outside the scene bandwidth must never be
// clamped or aliased onto a wrong in-scene carrier — it is excluded, and the
// exclusion is reported instead of silent.
TEST(ScenarioMultiStation, SurveyReportsTheStationsItCannotPlace) {
  survey::CitySpectrum city;
  city.name = "Testville";
  city.detectable_channels = {48, 49, 51, 53, 90};
  city.detectable_power_dbm = {-50.0, -25.0, -60.0, -40.0, -20.0};

  const SurveySceneReport report = stations_from_survey_report(city, 49);
  EXPECT_EQ(report.stations.size(), 4U);
  ASSERT_EQ(report.warnings.size(), 1U);  // channel 90, 8.2 MHz up-band
  EXPECT_NE(report.warnings[0].find("Testville@"), std::string::npos);
  EXPECT_NE(report.warnings[0].find("skipped"), std::string::npos);

  // A caller-supplied cap wider than the scene clamps to the scene: the
  // strong out-of-scene station stays excluded, never aliased in.
  const SurveySceneReport wide = stations_from_survey_report(city, 49, units::Hertz{100e6});
  EXPECT_EQ(wide.stations.size(), 4U);
  EXPECT_EQ(wide.warnings.size(), 1U);
  for (const ScenarioStation& st : wide.stations) {
    EXPECT_LE(std::abs(st.offset.raw()), kMaxStationOffsetHz);
  }
  // Every scene the report builds is one the engine accepts (nothing inside
  // can trip the engine's own offset validation).
  const SurveySceneReport tight = stations_from_survey_report(city, 49, units::Hertz{300e3});
  EXPECT_EQ(tight.stations.size(), 2U);
  EXPECT_EQ(tight.warnings.size(), 3U);  // channels 51, 53 and 90 trimmed

  // The plain vector API is the report's stations, warnings dropped.
  EXPECT_EQ(stations_from_survey(city, 49).size(), report.stations.size());
}

// ---- Validation ------------------------------------------------------------

TEST(ScenarioEngine, RejectsInconsistentScenarios) {
  const ScenarioEngine engine;
  Scenario sc;
  EXPECT_THROW(engine.run(sc), std::invalid_argument);  // no receivers

  sc.receivers.emplace_back();
  sc.duration = units::Seconds{0.0};
  EXPECT_THROW(engine.run(sc), std::invalid_argument);

  sc.duration = units::Seconds{0.1};
  ScenarioTag t;
  t.num_bits = 6400;  // 2 s at 3.2 kbps cannot fit in 0.1 s
  t.rate = tag::DataRate::k3200bps;
  sc.tags.push_back(t);
  EXPECT_THROW(engine.run(sc), std::invalid_argument);

  // A station carrier parked outside the 2.4 MHz scene would alias.
  Scenario wide;
  wide.receivers.emplace_back();
  wide.stations.push_back(make_station("edge", 1.2e6, -30.0, 1,
                                       audio::ProgramGenre::kSilence));
  EXPECT_THROW(engine.run(wide), std::invalid_argument);

  // A tag pinned to a station index the scene does not have.
  Scenario bad_index;
  bad_index.receivers.emplace_back();
  bad_index.stations.push_back(make_station("only", 0.0, -30.0, 1,
                                            audio::ProgramGenre::kSilence));
  ScenarioTag pinned;
  pinned.custom_baseband = dsp::rvec(1, 0.0F);
  pinned.station_index = 3;
  bad_index.tags.push_back(std::move(pinned));
  EXPECT_THROW(engine.run(bad_index), std::invalid_argument);
}

// A receiver's stereo decoder is validated up front: an audio rate whose
// Nyquist rate lies below the device chain's fixed corners (the phone's
// 13 kHz codec, the car's 14 kHz microphone) designs an unstable filter. The
// field is a plain double, so no units.h assert stands between the value and
// the engine's check in a Debug build.
TEST(ScenarioEngine, RejectsMalformedReceiverChainsInBothEngines) {
  Scenario base;
  base.duration = units::Seconds{0.2};
  base.receivers.emplace_back();
  base.stations.push_back(make_station("st", 0.0, -30.0, 1,
                                       audio::ProgramGenre::kSilence));
  const ScenarioEngine batch;
  const StreamingEngine streaming;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::string what;
    ReceiverKind kind;
    std::function<void(ScenarioReceiver&)> spoil;
  };
  std::vector<Case> cases;
  // 24 kHz divides the MPX rate, but its 12 kHz Nyquist rate lies below
  // both device chains' corners.
  for (const ReceiverKind kind : {ReceiverKind::kPhone, ReceiverKind::kCar}) {
    for (const double v : {nan, inf, 0.0, -48000.0, 50000.0, 24000.0}) {
      cases.push_back(
          {"stereo_decoder.audio_rate = " + std::to_string(v), kind,
           [v](ScenarioReceiver& r) { r.stereo_decoder.audio_rate = v; }});
    }
  }
  for (const Case& c : cases) {
    Scenario sc = base;
    sc.receivers[0].kind = c.kind;
    c.spoil(sc.receivers[0]);
    EXPECT_THROW((void)batch.run(sc), std::invalid_argument) << c.what;
    EXPECT_THROW((void)streaming.run(sc), std::invalid_argument) << c.what;
  }
}

// ---- Input domains ---------------------------------------------------------

// Every single-input range rule of the plan is one row of its domain table.
// units.h checks finiteness only with assert(), so a Release build hands NaN
// and +-inf straight to the plan, where NaN fails every comparison. Before
// the table a NaN station offset was silently pruned, a NaN tune offset or
// carrier-sense threshold left a receiver with no link, a NaN fading speed
// decoded at a BER near 0.6 and a NaN AGC target at 0.5, a station injecting
// RDS at 5x full deviation drowned its tag's link (BER 0.48), a negative
// slot was silently derived and a negative DCO width meant an ideal DCO.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A row's domain as this test states it: an interval with open or closed
/// ends.
struct Edges {
  double lo = -kInf, hi = kInf;
  bool lo_open = true, hi_open = true;
};
constexpr Edges kFinite{};
constexpr Edges kPositive{0.0, kInf, true, true};
constexpr Edges kNonNegative{0.0, kInf, false, true};
constexpr Edges kLevel{0.0, 1.0, true, false};
constexpr Edges kInjection{0.0, 1.0, false, false};
constexpr Edges kDeviation{0.0, fm::kMpxRate / 2.0, true, true};
constexpr Edges kInScene{-fm::kRfRate / 2.0, fm::kRfRate / 2.0, false, false};
constexpr Edges kStationOffset{-kMaxStationOffsetHz - 1e-6,
                               kMaxStationOffsetHz + 1e-6, false, false};

struct SceneSpoil {
  std::string path;  // entity, name and field, as the plan's error names them
  std::function<void(Scenario&, double)> apply;
  std::vector<double> outside;  // the plan must reject each
  std::vector<double> edges;    // closed finite ends: the plan accepts each
};

/// Spoils the field `field(sc)` refers to: NaN, +-inf, and the value just
/// outside each finite end (the end itself where it is open).
/// std::bit_cast skips units.h's asserting constructors, so Debug builds
/// reach the plan's check too.
template <class Field>
SceneSpoil spoil(std::string path, Field field, Edges e) {
  SceneSpoil s{std::move(path),
               [field](Scenario& sc, double v) {
                 auto& f = field(sc);
                 f = std::bit_cast<std::remove_cvref_t<decltype(f)>>(v);
               },
               {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf},
               {}};
  const auto edge = [&s](double end, bool open, double away) {
    if (!std::isfinite(end)) return;
    s.outside.push_back(open ? end : std::nextafter(end, away));
    if (!open) s.edges.push_back(end);
  };
  edge(e.lo, e.lo_open, -kInf);
  edge(e.hi, e.hi_open, kInf);
  return s;
}

/// One scene that reaches every row: two stations (one positioned), an FSK
/// tag with fading, waypoints and a distance override under slotted ALOHA,
/// an RDS tag, an always-on custom-baseband tag (last, so FleetEngine can
/// drop it), a phone with its AGC on and every optional input set, and a
/// car.
Scenario rich_scenario() {
  Scenario sc;
  sc.name = "rich";
  sc.duration = units::Seconds{0.2};
  sc.timeline.segment = units::Seconds{0.1};
  sc.stations = {
      make_station("st", 0.0, -30.0, 1, audio::ProgramGenre::kSilence),
      make_station("next", 400e3, -35.0, 2, audio::ProgramGenre::kSilence)};
  sc.stations[1].position = ScenePosition{300.0, 0.0};
  ScenarioTag fsk;
  fsk.name = "fsk";
  fsk.mac.kind = tag::MacKind::kSlottedAloha;
  fsk.fading = channel::FadingConfig{};
  fsk.waypoints = {ScenePosition{2.0, 0.0}, ScenePosition{2.0, 2.0}};
  fsk.distance_override = units::Feet{4.0};
  ScenarioTag rds;
  rds.name = "rds";
  rds.subcarrier.shift = units::Hertz{-600e3};
  rds.rds_radiotext = "AD";
  ScenarioTag poster;
  poster.name = "poster";
  poster.custom_baseband = dsp::rvec(1, 0.0F);
  sc.tags = {fsk, rds, poster};
  ScenarioReceiver phone = phone_listening_to(fsk.subcarrier);
  phone.name = "phone";
  phone.waypoints = {ScenePosition{1.0, 1.0}};
  phone.direct_power = units::Dbm{-30.0};
  phone.noise_200khz = units::Dbm{-100.0};
  phone.rx_antenna_gain = units::Db{-3.0};
  phone.phone.enable_agc = true;
  ScenarioReceiver car = car_listening_to(rds.subcarrier);
  car.name = "car";
  sc.receivers = {phone, car};
  return sc;
}

/// One spoil per row of the plan's domain table.
std::vector<SceneSpoil> scene_spoils() {
  using S = Scenario&;
  std::vector<SceneSpoil> spoils = {
      spoil("scenario \"rich\" duration",
            [](S sc) -> auto& { return sc.duration; }, kPositive),
      spoil("scenario \"rich\" settle",
            [](S sc) -> auto& { return sc.settle; }, kNonNegative),
      spoil("scenario \"rich\" timeline.segment",
            [](S sc) -> auto& { return sc.timeline.segment; }, kNonNegative),
      spoil("scenario \"rich\" station.deviation",
            [](S sc) -> auto& { return sc.station.deviation; }, kDeviation),
      spoil("scenario \"rich\" station.rds_level",
            [](S sc) -> auto& { return sc.station.rds_level; }, kInjection),
      spoil("station \"next\" offset",
            [](S sc) -> auto& { return sc.stations[1].offset; },
            kStationOffset),
      spoil("station \"st\" power",
            [](S sc) -> auto& { return sc.stations[0].power; }, kFinite),
      spoil("station \"next\" position.x_m",
            [](S sc) -> auto& { return sc.stations[1].position->x_m; },
            kFinite),
      spoil("station \"next\" position.y_m",
            [](S sc) -> auto& { return sc.stations[1].position->y_m; },
            kFinite),
      spoil("station \"next\" config.deviation",
            [](S sc) -> auto& { return sc.stations[1].config.deviation; },
            kDeviation),
      spoil("station \"next\" config.rds_level",
            [](S sc) -> auto& { return sc.stations[1].config.rds_level; },
            kInjection),
      spoil("tag \"fsk\" tag_power",
            [](S sc) -> auto& { return sc.tags[0].tag_power; }, kFinite),
      spoil("tag \"fsk\" start",
            [](S sc) -> auto& { return sc.tags[0].start; }, kNonNegative),
      spoil("tag \"poster\" start",
            [](S sc) -> auto& { return sc.tags[2].start; }, kFinite),
      spoil("tag \"fsk\" level",
            [](S sc) -> auto& { return sc.tags[0].level; }, kLevel),
      spoil("tag \"rds\" rds_level",
            [](S sc) -> auto& { return sc.tags[1].rds_level; }, kLevel),
      spoil("tag \"fsk\" subcarrier.shift",
            [](S sc) -> auto& { return sc.tags[0].subcarrier.shift; },
            kFinite),
      spoil("tag \"fsk\" subcarrier.deviation",
            [](S sc) -> auto& { return sc.tags[0].subcarrier.deviation; },
            kFinite),
      spoil("tag \"fsk\" antenna.gain_dbi",
            [](S sc) -> auto& { return sc.tags[0].antenna.gain_dbi; },
            kFinite),
      spoil("tag \"fsk\" antenna.efficiency_db",
            [](S sc) -> auto& { return sc.tags[0].antenna.efficiency_db; },
            kFinite),
      spoil("tag \"fsk\" antenna.body_loss_db",
            [](S sc) -> auto& { return sc.tags[0].antenna.body_loss_db; },
            kFinite),
      spoil("tag \"fsk\" mac.slot",
            [](S sc) -> auto& { return sc.tags[0].mac.slot; }, kNonNegative),
      spoil("tag \"rds\" mac.cs_threshold",
            [](S sc) -> auto& { return sc.tags[1].mac.cs_threshold; },
            kFinite),
      spoil("tag \"fsk\" distance_override",
            [](S sc) -> auto& { return *sc.tags[0].distance_override; },
            kFinite),
      spoil("tag \"fsk\" fading.carrier",
            [](S sc) -> auto& { return sc.tags[0].fading->carrier; }, kFinite),
      spoil("tag \"fsk\" fading.speed_mps",
            [](S sc) -> auto& { return sc.tags[0].fading->speed_mps; },
            kFinite),
      spoil("tag \"fsk\" fading.rician_k",
            [](S sc) -> auto& { return sc.tags[0].fading->rician_k; },
            kFinite),
      spoil("tag \"fsk\" fading.shadow_sigma",
            [](S sc) -> auto& { return sc.tags[0].fading->shadow_sigma; },
            kFinite),
      spoil("tag \"fsk\" fading.shadow_rate",
            [](S sc) -> auto& { return sc.tags[0].fading->shadow_rate; },
            kFinite),
      spoil("tag \"fsk\" position.x_m",
            [](S sc) -> auto& { return sc.tags[0].position.x_m; }, kFinite),
      spoil("tag \"fsk\" position.y_m",
            [](S sc) -> auto& { return sc.tags[0].position.y_m; }, kFinite),
      spoil("tag \"fsk\" waypoints.x_m",
            [](S sc) -> auto& { return sc.tags[0].waypoints[0].x_m; },
            kFinite),
      spoil("tag \"fsk\" waypoints.y_m",
            [](S sc) -> auto& { return sc.tags[0].waypoints[1].y_m; },
            kFinite),
      spoil("receiver \"phone\" tune_offset",
            [](S sc) -> auto& { return sc.receivers[0].tune_offset; },
            kInScene),
      spoil("receiver \"phone\" direct_power",
            [](S sc) -> auto& { return *sc.receivers[0].direct_power; },
            kFinite),
      spoil("receiver \"phone\" noise_200khz",
            [](S sc) -> auto& { return *sc.receivers[0].noise_200khz; },
            kFinite),
      spoil("receiver \"phone\" rx_antenna_gain",
            [](S sc) -> auto& { return *sc.receivers[0].rx_antenna_gain; },
            kFinite),
      spoil("receiver \"phone\" link.carrier",
            [](S sc) -> auto& { return sc.receivers[0].link.carrier; },
            kFinite),
      spoil("receiver \"phone\" link.tag_antenna_gain",
            [](S sc) -> auto& { return sc.receivers[0].link.tag_antenna_gain; },
            kFinite),
      spoil("receiver \"phone\" link.rx_antenna_gain",
            [](S sc) -> auto& { return sc.receivers[0].link.rx_antenna_gain; },
            kFinite),
      spoil("receiver \"phone\" link.reflection_amplitude",
            [](S sc) -> auto& {
              return sc.receivers[0].link.reflection_amplitude;
            },
            kFinite),
      spoil("receiver \"phone\" link.implementation_loss",
            [](S sc) -> auto& {
              return sc.receivers[0].link.implementation_loss;
            },
            kFinite),
      spoil("receiver \"car\" link.tag_height",
            [](S sc) -> auto& { return sc.receivers[1].link.tag_height; },
            kFinite),
      spoil("receiver \"car\" link.rx_height",
            [](S sc) -> auto& { return sc.receivers[1].link.rx_height; },
            kFinite),
      spoil("receiver \"car\" cabin.engine_noise_rms",
            [](S sc) -> auto& { return sc.receivers[1].cabin.engine_noise_rms; },
            kNonNegative),
      spoil("receiver \"phone\" phone.agc.target_rms",
            [](S sc) -> auto& { return sc.receivers[0].phone.agc.target_rms; },
            kPositive),
      spoil("receiver \"phone\" phone.agc.attack_seconds",
            [](S sc) -> auto& {
              return sc.receivers[0].phone.agc.attack_seconds;
            },
            kFinite),
      spoil("receiver \"phone\" phone.agc.release_seconds",
            [](S sc) -> auto& {
              return sc.receivers[0].phone.agc.release_seconds;
            },
            kFinite),
      spoil("receiver \"phone\" phone.agc.min_gain",
            [](S sc) -> auto& { return sc.receivers[0].phone.agc.min_gain; },
            kNonNegative),
      spoil("receiver \"phone\" phone.agc.max_gain",
            [](S sc) -> auto& { return sc.receivers[0].phone.agc.max_gain; },
            kPositive),
      spoil("receiver \"phone\" position.x_m",
            [](S sc) -> auto& { return sc.receivers[0].position.x_m; },
            kFinite),
      spoil("receiver \"phone\" position.y_m",
            [](S sc) -> auto& { return sc.receivers[0].position.y_m; },
            kFinite),
      spoil("receiver \"phone\" waypoints.x_m",
            [](S sc) -> auto& { return sc.receivers[0].waypoints[0].x_m; },
            kFinite),
      spoil("receiver \"phone\" waypoints.y_m",
            [](S sc) -> auto& { return sc.receivers[0].waypoints[0].y_m; },
            kFinite)};
  spoils.push_back({"scenario \"rich\" receivers.size()",
                    [](S sc, double) { sc.receivers.clear(); },
                    {0.0},
                    {}});
  // The DCO width is an int: only integers lie outside its domain.
  spoils.push_back({"tag \"fsk\" subcarrier.dco_bits",
                    [](S sc, double v) {
                      sc.tags[0].subcarrier.dco_bits = static_cast<int>(v);
                    },
                    {-1.0, static_cast<double>(INT_MIN)},
                    {0.0}});
  return spoils;
}

// The plan, both signal-level engines and FleetEngine, whose analytic links
// render nothing, all reject a value outside its row's domain and name the
// row; a closed end itself passes.
TEST(ScenarioEngine, RejectsEveryInputOutsideItsDomain) {
  const Scenario base = rich_scenario();
  ASSERT_NO_THROW(resolve_scenario_plan(base));
  const ScenarioEngine batch({.keep_captures = false});
  const StreamingEngine streaming;
  const FleetEngine fleet;
  const auto expect_rejects = [](const SceneSpoil& s, double v,
                                 const char* by, const auto& run) {
    try {
      run();
      ADD_FAILURE() << by << " accepted " << s.path << " = " << v;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(s.path), std::string::npos)
          << by << " on " << s.path << " = " << v << ": " << e.what();
    }
  };
  for (const SceneSpoil& s : scene_spoils()) {
    for (const double v : s.edges) {
      Scenario sc = base;
      s.apply(sc, v);
      EXPECT_NO_THROW(resolve_scenario_plan(sc)) << s.path << " = " << v;
    }
    for (const double v : s.outside) {
      Scenario sc = base;
      s.apply(sc, v);
      expect_rejects(s, v, "plan", [&] { (void)resolve_scenario_plan(sc); });
      expect_rejects(s, v, "ScenarioEngine", [&] { (void)batch.run(sc); });
      expect_rejects(s, v, "StreamingEngine",
                     [&] { (void)streaming.run(sc); });
      if (s.path.starts_with("tag \"poster\"")) continue;
      sc.tags.pop_back();  // FleetEngine rejects custom-baseband tags
      expect_rejects(s, v, "FleetEngine", [&] { (void)fleet.run(sc); });
    }
  }
}

// The AGC clamps its gain with std::clamp(g, min_gain, max_gain), whose
// bounds out of order are undefined behaviour; the plan accepted them.
TEST(ScenarioEngine, RejectsAgcMinGainAboveMaxGain) {
  Scenario sc = rich_scenario();
  sc.receivers[0].phone.agc.min_gain = 5.0;
  sc.receivers[0].phone.agc.max_gain = 2.0;
  const ScenarioEngine batch({.keep_captures = false});
  const StreamingEngine streaming;
  for (const auto& run : std::vector<std::function<void()>>{
           [&] { (void)resolve_scenario_plan(sc); },
           [&] { (void)batch.run(sc); }, [&] { (void)streaming.run(sc); }}) {
    try {
      run();
      ADD_FAILURE() << "accepted min_gain 5 > max_gain 2";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("phone.agc.min_gain must be <= "
                                           "phone.agc.max_gain"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- Hand-written rejections ----------------------------------------------

// These predate the domain table and pin the same rules field by field, with
// the reasons each rule was added.

// Unit validation at the config boundary: durations and windows that the
// strong types can represent but the engine cannot honor are rejected before
// any rendering starts (previously a negative settle silently corrupted the
// timeline; a zero duration divided the goodput by zero).
TEST(ScenarioEngine, RejectsNonPositiveDurationAndNegativeSettle) {
  Scenario base;
  base.receivers.emplace_back();
  base.stations.push_back(make_station("st", 0.0, -30.0, 1,
                                       audio::ProgramGenre::kSilence));

  Scenario zero_duration = base;
  zero_duration.duration = units::Seconds{0.0};
  EXPECT_THROW(resolve_scenario_plan(zero_duration), std::invalid_argument);

  Scenario negative_duration = base;
  negative_duration.duration = units::Seconds{-0.5};
  EXPECT_THROW(resolve_scenario_plan(negative_duration), std::invalid_argument);

  Scenario negative_settle = base;
  negative_settle.duration = units::Seconds{0.2};
  negative_settle.settle = units::Seconds{-0.05};
  EXPECT_THROW(resolve_scenario_plan(negative_settle), std::invalid_argument);

  // The same shape with a legal settle resolves fine.
  Scenario ok = base;
  ok.duration = units::Seconds{0.2};
  ok.settle = units::Seconds{0.05};
  EXPECT_NO_THROW(resolve_scenario_plan(ok));
}

// units.h checks finiteness only with assert(), so a Release build hands a
// NaN or infinite time straight to the engines. NaN slipped past every `<=`
// check (a NaN duration gave total_seconds = nan, a NaN segment silently
// became one segment). std::bit_cast skips the asserting constructor, so
// Debug builds reach the engines' check too.
TEST(ScenarioEngine, RejectsNonFiniteTimesInBothEngines) {
  Scenario base;
  base.receivers.emplace_back();
  base.stations.push_back(make_station("st", 0.0, -30.0, 1,
                                       audio::ProgramGenre::kSilence));
  const ScenarioEngine batch;
  const StreamingEngine streaming;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    const auto bad = std::bit_cast<units::Seconds>(v);
    Scenario duration = base;
    duration.duration = bad;
    Scenario settle = base;
    settle.settle = bad;
    Scenario segment = base;
    segment.timeline.segment = bad;
    for (const auto& [field, sc] : {std::pair{"duration", &duration},
                                    std::pair{"settle", &settle},
                                    std::pair{"segment", &segment}}) {
      EXPECT_THROW((void)batch.run(*sc), std::invalid_argument)
          << field << " = " << v;
      EXPECT_THROW((void)streaming.run(*sc), std::invalid_argument)
          << field << " = " << v;
    }
  }
}

// units.h checks finiteness only with assert(), so a Release build hands a
// NaN or infinite power, offset or coordinate straight to the plan, where
// NaN fails every comparison: a NaN station offset passed the scene-width
// bound and was silently pruned, a NaN station power decoded to a BER, and a
// NaN tune offset made the receiver hear nothing, all without an error.
// std::bit_cast skips the asserting constructors, so Debug builds reach the
// plan's check too.
struct NonFiniteSpoil {
  std::string what;
  std::function<void(Scenario&, double)> apply;
};

void expect_rejects_non_finite(const Scenario& base,
                               const std::vector<NonFiniteSpoil>& spoils) {
  ASSERT_NO_THROW(resolve_scenario_plan(base));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const NonFiniteSpoil& spoil : spoils) {
      Scenario sc = base;
      spoil.apply(sc, v);
      EXPECT_THROW((void)resolve_scenario_plan(sc), std::invalid_argument)
          << spoil.what << " = " << v;
    }
  }
}

TEST(ScenarioEngine, RejectsNonFiniteStationInputs) {
  Scenario base;
  base.stations.push_back(make_station("st", 0.0, -30.0, 1,
                                       audio::ProgramGenre::kSilence));
  base.stations.push_back(make_station("next", 400e3, -35.0, 2,
                                       audio::ProgramGenre::kSilence));
  base.stations[1].position = ScenePosition{300.0, 0.0};
  base.receivers.emplace_back();
  expect_rejects_non_finite(
      base,
      {{"offset",
        [](Scenario& sc, double v) {
          sc.stations[1].offset = std::bit_cast<units::Hertz>(v);
        }},
       {"power",
        [](Scenario& sc, double v) {
          sc.stations[0].power = std::bit_cast<units::Dbm>(v);
        }},
       {"position.x",
        [](Scenario& sc, double v) { sc.stations[1].position->x_m = v; }},
       {"position.y",
        [](Scenario& sc, double v) { sc.stations[1].position->y_m = v; }},
       {"config.deviation",
        [](Scenario& sc, double v) {
          sc.stations[1].config.deviation = std::bit_cast<units::Hertz>(v);
        }},
       {"station.deviation", [](Scenario& sc, double v) {
          sc.station.deviation = std::bit_cast<units::Hertz>(v);
        }}});
}

// A finite deviation outside (0, kMpxRate / 2) used to pass the plan and
// fail only where SceneRenderer built the station's modulator, which
// FleetEngine's analytic path never does.
TEST(ScenarioEngine, RejectsOutOfRangeStationDeviation) {
  Scenario base;
  base.stations.push_back(make_station("st", 0.0, -30.0, 1,
                                       audio::ProgramGenre::kSilence));
  base.stations.push_back(make_station("next", 400e3, -35.0, 2,
                                       audio::ProgramGenre::kSilence));
  base.receivers.emplace_back();
  ASSERT_NO_THROW(resolve_scenario_plan(base));
  for (const double v : {-75e3, 0.0, fm::kMpxRate / 2.0, 200e3}) {
    Scenario legacy = base;
    legacy.station.deviation = units::Hertz{v};
    EXPECT_THROW((void)resolve_scenario_plan(legacy), std::invalid_argument)
        << "station.deviation = " << v;
    Scenario multi = base;
    multi.stations[1].config.deviation = units::Hertz{v};
    EXPECT_THROW((void)resolve_scenario_plan(multi), std::invalid_argument)
        << "config.deviation = " << v;
  }
}

TEST(ScenarioEngine, RejectsNonFiniteTagInputs) {
  Scenario base;
  ScenarioTag t;
  t.custom_baseband = dsp::rvec(1, 0.0F);
  t.waypoints = {ScenePosition{2.0, 0.0}, ScenePosition{2.0, 2.0}};
  t.distance_override = units::Feet{4.0};
  base.tags.push_back(std::move(t));
  // Only a payload burst has a start to plan.
  ScenarioTag fsk;
  fsk.name = "fsk";
  fsk.num_bits = 64;
  base.tags.push_back(fsk);
  base.duration = units::Seconds{0.2};
  base.receivers.push_back(phone_listening_to(base.tags[0].subcarrier));
  expect_rejects_non_finite(
      base,
      {{"tag_power",
        [](Scenario& sc, double v) {
          sc.tags[0].tag_power = std::bit_cast<units::Dbm>(v);
        }},
       {"position.x",
        [](Scenario& sc, double v) { sc.tags[0].position.x_m = v; }},
       {"waypoint.y",
        [](Scenario& sc, double v) { sc.tags[0].waypoints[1].y_m = v; }},
       {"distance_override",
        [](Scenario& sc, double v) {
          sc.tags[0].distance_override = std::bit_cast<units::Feet>(v);
        }},
       {"start",
        [](Scenario& sc, double v) {
          sc.tags[1].start = std::bit_cast<units::Seconds>(v);
        }},
       {"subcarrier.shift",
        [](Scenario& sc, double v) {
          sc.tags[1].subcarrier.shift = std::bit_cast<units::Hertz>(v);
        }},
       {"subcarrier.deviation", [](Scenario& sc, double v) {
          sc.tags[1].subcarrier.deviation = std::bit_cast<units::Hertz>(v);
        }}});
}

TEST(ScenarioEngine, RejectsNonFiniteReceiverInputs) {
  Scenario base;
  ScenarioTag t;
  t.custom_baseband = dsp::rvec(1, 0.0F);
  base.tags.push_back(std::move(t));
  base.receivers.push_back(phone_listening_to(base.tags[0].subcarrier));
  base.receivers[0].waypoints = {ScenePosition{1.0, 1.0}};
  expect_rejects_non_finite(
      base,
      {{"tune_offset",
        [](Scenario& sc, double v) {
          sc.receivers[0].tune_offset = std::bit_cast<units::Hertz>(v);
        }},
       {"position.y",
        [](Scenario& sc, double v) { sc.receivers[0].position.y_m = v; }},
       {"waypoint.x",
        [](Scenario& sc, double v) { sc.receivers[0].waypoints[0].x_m = v; }},
       {"direct_power",
        [](Scenario& sc, double v) {
          sc.receivers[0].direct_power = std::bit_cast<units::Dbm>(v);
        }},
       {"noise_200khz",
        [](Scenario& sc, double v) {
          sc.receivers[0].noise_200khz = std::bit_cast<units::Dbm>(v);
        }},
       {"rx_antenna_gain", [](Scenario& sc, double v) {
          sc.receivers[0].rx_antenna_gain = std::bit_cast<units::Db>(v);
        }}});
}

// Link-budget, antenna and fading inputs sit one struct deeper and used to
// slip past the finite-input check: a NaN reflection amplitude,
// implementation loss or antenna gain reported a NaN backscatter power, a
// NaN fading speed or Rician K decoded to a BER near 0.6 without an error,
// and FleetEngine, whose analytic links ignore fading, reported a delivered
// link.
TEST(ScenarioEngine, RejectsNonFiniteLinkAntennaAndFadingInputs) {
  Scenario base;
  base.duration = units::Seconds{0.2};
  ScenarioTag t;
  t.name = "fsk";
  t.num_bits = 64;
  t.fading = channel::FadingConfig{};
  base.tags.push_back(t);
  base.receivers.push_back(phone_listening_to(t.subcarrier));
  expect_rejects_non_finite(
      base,
      {{"link.carrier",
        [](Scenario& sc, double v) {
          sc.receivers[0].link.carrier = std::bit_cast<units::Hertz>(v);
        }},
       {"link.tag_antenna_gain",
        [](Scenario& sc, double v) {
          sc.receivers[0].link.tag_antenna_gain = std::bit_cast<units::Db>(v);
        }},
       {"link.rx_antenna_gain",
        [](Scenario& sc, double v) {
          sc.receivers[0].link.rx_antenna_gain = std::bit_cast<units::Db>(v);
        }},
       {"link.reflection_amplitude",
        [](Scenario& sc, double v) {
          sc.receivers[0].link.reflection_amplitude = v;
        }},
       {"link.implementation_loss",
        [](Scenario& sc, double v) {
          sc.receivers[0].link.implementation_loss =
              std::bit_cast<units::Db>(v);
        }},
       {"link.tag_height",
        [](Scenario& sc, double v) {
          sc.receivers[0].link.tag_height = std::bit_cast<units::Meters>(v);
        }},
       {"link.rx_height",
        [](Scenario& sc, double v) {
          sc.receivers[0].link.rx_height = std::bit_cast<units::Meters>(v);
        }},
       {"antenna.gain_dbi",
        [](Scenario& sc, double v) { sc.tags[0].antenna.gain_dbi = v; }},
       {"antenna.efficiency_db",
        [](Scenario& sc, double v) { sc.tags[0].antenna.efficiency_db = v; }},
       {"antenna.body_loss_db",
        [](Scenario& sc, double v) { sc.tags[0].antenna.body_loss_db = v; }},
       {"fading.carrier",
        [](Scenario& sc, double v) {
          sc.tags[0].fading->carrier = std::bit_cast<units::Hertz>(v);
        }},
       {"fading.speed_mps",
        [](Scenario& sc, double v) { sc.tags[0].fading->speed_mps = v; }},
       {"fading.rician_k",
        [](Scenario& sc, double v) {
          sc.tags[0].fading->rician_k = std::bit_cast<units::Db>(v);
        }},
       {"fading.shadow_sigma",
        [](Scenario& sc, double v) {
          sc.tags[0].fading->shadow_sigma = std::bit_cast<units::Db>(v);
        }},
       {"fading.shadow_rate", [](Scenario& sc, double v) {
          sc.tags[0].fading->shadow_rate = std::bit_cast<units::Hertz>(v);
        }}});
  Scenario fading = base;
  fading.tags[0].fading->speed_mps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)FleetEngine().run(fading), std::invalid_argument);
}

// A tag's payload level scales its baseband, so a NaN or infinite level
// decoded to BER 0.5 and zero goodput without an error, and a NaN RDS level
// slipped through `x <= 0 || x > 1`, which NaN fails on both sides, to run at
// BLER 1. Both levels must lie in (0, 1] and are checked so that NaN fails.
TEST(ScenarioEngine, RejectsNonFiniteOrOutOfRangeTagLevels) {
  Scenario base;
  base.duration = units::Seconds{0.2};
  ScenarioTag fsk;
  fsk.name = "fsk";
  fsk.num_bits = 64;
  ScenarioTag rds;
  rds.name = "rds";
  rds.subcarrier.shift = units::Hertz{-600e3};
  rds.rds_radiotext = "AD";
  base.tags = {fsk, rds};
  base.receivers.push_back(phone_listening_to(fsk.subcarrier));
  ASSERT_NO_THROW(resolve_scenario_plan(base));
  Scenario full = base;
  full.tags[0].level = 1.0;
  full.tags[1].rds_level = 1.0;
  EXPECT_NO_THROW(resolve_scenario_plan(full));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const ScenarioEngine batch;
  const StreamingEngine streaming;
  for (const double v : {nan, inf, -inf, 0.0, -0.5, 1.5}) {
    Scenario level = base;
    level.tags[0].level = v;
    Scenario rds_level = base;
    rds_level.tags[1].rds_level = v;
    for (const auto& [field, sc] : {std::pair{"level", &level},
                                    std::pair{"rds_level", &rds_level}}) {
      EXPECT_THROW((void)resolve_scenario_plan(*sc), std::invalid_argument)
          << field << " = " << v;
      EXPECT_THROW((void)batch.run(*sc), std::invalid_argument)
          << field << " = " << v;
      EXPECT_THROW((void)streaming.run(*sc), std::invalid_argument)
          << field << " = " << v;
    }
    const std::vector<unsigned char> bits(26, 1);
    EXPECT_THROW((void)tag::compose_rds_baseband(bits, 2400, v),
                 std::invalid_argument)
        << "compose_rds_baseband level = " << v;
  }
}

}  // namespace
}  // namespace fmbs::core
