// Byte-level pins for the two renderer paths the golden traces and the
// streaming equivalence suite leave unpinned:
//
//   * loop mode: a StreamingEngine run longer than its (shortened) station
//     horizon cycles every station's MPX through a persistent modulator
//     across the horizon seam. The equivalence suite never reaches it (every
//     golden fits the horizon), so the decoded link reports of such a run
//     are pinned here by digest, at one and two consumer threads;
//   * burst switch edges inside a block: a fading FSK tag whose switch-on
//     and switch-off samples fall mid-block, on no 32-sample boundary, in a
//     multi-station run that ends on a partial block. ScenarioEngine's kept
//     post-demod MPX is pinned byte for byte by digest.
//
// Both digests are FNV-1a 64 over the raw bytes, recorded when the pin was
// written; any change to how a block is rendered, tuned, noised or decoded
// moves them. Like the golden traces they are toolchain-specific (libstdc++
// distributions, glibc libm), and the SSE2 subcarrier rounds differently from
// the scalar build, so each pin carries one value per build.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/streaming.h"
#include "dsp/simd.h"
#include "fm/constants.h"

namespace fmbs::golden {
namespace {

/// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void text(const std::string& s) {
    value(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t per_build(std::uint64_t simd, std::uint64_t scalar) {
  return dsp::simd::kEnabled ? simd : scalar;
}

void add_rds(Fnv1a& h, const rx::RdsLinkReport& rds) {
  h.value(rds.synced);
  h.value(rds.blocks_ok);
  h.value(rds.blocks_failed);
  h.value(rds.bler);
  h.text(rds.ps_name);
  h.text(rds.radiotext);
}

/// Every decoded number of every receiver, in receiver and link order.
std::uint64_t links_digest(const core::ScenarioResult& result) {
  Fnv1a h;
  for (const core::ScenarioReceiverResult& rr : result.receivers) {
    h.value(rr.links.size());
    for (const core::TagLinkReport& l : rr.links) {
      h.value(l.tag_index);
      h.value(l.receiver_index);
      h.value(l.burst.ber.bit_errors);
      h.value(l.burst.ber.bits_compared);
      h.value(l.burst.ber.ber);
      h.value(l.burst.packets);
      h.value(l.burst.packets_ok);
      h.value(l.burst.bits_delivered);
      h.value(l.burst.per);
      h.value(l.burst.mean_confidence);
      h.value(l.backscatter_rx_power_dbm);
      h.value(l.goodput_bps);
      h.value(l.rds.has_value());
      if (l.rds) add_rds(h, *l.rds);
    }
    h.value(rr.station_rds.has_value());
    if (rr.station_rds) add_rds(h, *rr.station_rds);
  }
  return h.hash();
}

core::ScenarioStation station(const char* name, audio::ProgramGenre genre,
                              std::uint64_t seed, double offset_hz,
                              double power_dbm, double x_m) {
  core::ScenarioStation st;
  st.name = name;
  st.config.program.genre = genre;
  st.config.program.stereo = false;
  st.config.seed = seed;
  st.offset = units::Hertz{offset_hz};
  st.power = units::Dbm{power_dbm};
  st.position = core::ScenePosition{x_m, 0.0};
  return st;
}

/// Two stations (the west one broadcasting RDS), an FSK poster on each side
/// of the first horizon seam and an RDS poster, a phone per tag channel and
/// a car parked on the west station. 0.58 s with settle against a 0.2 s
/// horizon: two seams.
core::Scenario loop_mode_city() {
  core::Scenario sc;
  sc.name = "loop_mode_city";
  sc.seed = 83;
  sc.duration = units::Seconds{0.5};
  core::ScenarioStation west = station(
      "west-news", audio::ProgramGenre::kNews, 83, 0.0, -28.0, -60.0);
  west.config.rds_level = 0.05;
  west.config.rds_ps_name = "LOOPFM";
  sc.stations = {west, station("east-pop", audio::ProgramGenre::kPop, 84,
                               800e3, -30.0, 60.0)};

  core::ScenarioTag early;
  early.name = "early-poster";
  early.subcarrier.shift = units::Hertz{600e3};
  early.rate = tag::DataRate::k1600bps;
  early.num_bits = 160;
  early.packet_bits = 80;
  early.tag_power = units::Dbm{-40.0};
  early.position = {-10.0, 0.0};
  early.start = units::Seconds{0.05};
  core::ScenarioTag late = early;
  late.name = "late-poster";
  late.subcarrier.shift = units::Hertz{-400e3};
  late.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
  late.position = {10.0, 0.0};
  late.start = units::Seconds{0.27};
  core::ScenarioTag ad;
  ad.name = "ad-poster";
  ad.subcarrier.shift = units::Hertz{-600e3};
  ad.rds_radiotext = "SEAM";
  ad.tag_power = units::Dbm{-30.0};
  ad.position = {-12.0, 0.0};
  ad.start = units::Seconds{0.15};
  sc.tags = {early, late, ad};

  core::ScenarioReceiver phone_early =
      core::phone_listening_to(early.subcarrier);
  phone_early.name = "phone-early";
  phone_early.position = {-10.0, 1.5};
  core::ScenarioReceiver phone_late;
  phone_late.name = "phone-late";
  phone_late.tune_offset = units::Hertz{800e3 - 400e3};
  phone_late.position = {10.0, 1.5};
  core::ScenarioReceiver phone_ad = core::phone_listening_to(ad.subcarrier);
  phone_ad.name = "phone-ad";
  phone_ad.position = {-12.0, 1.5};
  core::ScenarioReceiver car;
  car.name = "car-west";
  car.kind = core::ReceiverKind::kCar;
  car.tune_offset = units::Hertz{0.0};
  car.position = {-30.0, 3.0};
  sc.receivers = {phone_early, phone_late, phone_ad, car};
  return sc;
}

TEST(RenderPins, LoopModeAcrossHorizonSeams) {
  const core::Scenario sc = loop_mode_city();
  const std::uint64_t want =
      per_build(0x5f7c91e20cfe7432ULL, 0x5e91be625e5afe1bULL);
  for (const std::size_t threads : {1U, 2U}) {
    SCOPED_TRACE(std::to_string(threads) + " consumer threads");
    core::StreamingConfig cfg;
    cfg.consumer_threads = threads;
    cfg.station_horizon = units::Seconds{0.2};
    const core::ScenarioResult result = core::StreamingEngine(cfg).run(sc);
    ASSERT_EQ(result.receivers.size(), 4U);
    // Every tag link is routed (the +-600 kHz phones also hear the other
    // side's mirror image) and the car reads the station's PS name from its
    // one-horizon verdict window, two RDS groups long: the digest pins
    // decoded numbers, not empty reports.
    EXPECT_EQ(result.receivers[0].links.size(), 2U);
    EXPECT_EQ(result.receivers[1].links.size(), 1U);
    EXPECT_EQ(result.receivers[2].links.size(), 2U);
    ASSERT_TRUE(result.receivers[3].station_rds.has_value());
    EXPECT_EQ(result.receivers[3].station_rds->ps_name.substr(0, 4), "LOOP");
    const std::uint64_t got = links_digest(result);
    EXPECT_EQ(got, want) << std::hex << "0x" << got;
  }
}

/// A running FSK tag whose burst starts and ends mid-block, off every
/// 32-sample boundary, with two stations and a run that ends on a partial
/// block (0.35 s with settle).
core::Scenario burst_edges() {
  core::Scenario sc;
  sc.name = "burst_edges";
  sc.seed = 89;
  sc.duration = units::Seconds{0.27};
  sc.stations = {
      station("west-news", audio::ProgramGenre::kNews, 89, 0.0, -28.0, -60.0),
      station("east-pop", audio::ProgramGenre::kPop, 90, 200e3, -33.0, 60.0)};
  core::ScenarioTag t;
  t.name = "runner";
  t.subcarrier.shift = units::Hertz{600e3};
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 96;
  t.packet_bits = 48;
  t.tag_power = units::Dbm{-35.0};
  t.distance_override = units::Feet{6.0};
  t.start = units::Seconds{0.10137};
  t.fading = channel::fading_for_mobility(channel::Mobility::kRunning);
  sc.tags = {t};
  core::ScenarioReceiver phone = core::phone_listening_to(t.subcarrier);
  phone.name = "phone";
  core::ScenarioReceiver car;
  car.name = "car";
  car.kind = core::ReceiverKind::kCar;
  car.tune_offset = units::Hertz{200e3};
  sc.receivers = {phone, car};
  return sc;
}

TEST(RenderPins, BurstEdgesInsideSubBlockCaptureBytes) {
  const core::Scenario sc = burst_edges();
  // The switch window, as the renderer computes it, straddles sample
  // indices that no 32-sample grid (and no block boundary) hits.
  const core::ScenarioPlan plan = core::resolve_scenario_plan(sc);
  const core::ScenarioTagPlan& tp = plan.tags[0];
  ASSERT_TRUE(tp.transmitted);
  const auto on = static_cast<std::size_t>(
      (tp.start_seconds - core::kBurstGuardSeconds) * fm::kMpxRate);
  const auto off = static_cast<std::size_t>(
      (tp.start_seconds + tp.burst_seconds + core::kBurstGuardSeconds) *
      fm::kMpxRate);
  EXPECT_NE(on % 32, 0U) << on;
  EXPECT_NE(off % 32, 0U) << off;
  const auto total = static_cast<std::size_t>(plan.total_seconds *
                                              fm::kMpxRate + 0.5);
  EXPECT_LT(off, total);
  EXPECT_NE(total % 24000, 0U) << "the run must end on a partial block";

  const core::ScenarioResult result =
      core::ScenarioEngine({.keep_captures = true}).run(sc);
  ASSERT_EQ(result.receivers.size(), 2U);
  ASSERT_EQ(result.receivers[0].links.size(), 1U);
  Fnv1a h;
  for (const core::ScenarioReceiverResult& rr : result.receivers) {
    const std::vector<float>& mpx = rr.capture.fm.mpx;
    h.value(mpx.size());
    h.bytes(mpx.data(), mpx.size() * sizeof(float));
  }
  const std::uint64_t want =
      per_build(0x260e4b39d08c31d5ULL, 0x6654ad0978c04fbaULL);
  EXPECT_EQ(h.hash(), want) << std::hex << "0x" << h.hash();
}

}  // namespace
}  // namespace fmbs::golden
