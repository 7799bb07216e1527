// Streaming-vs-batch equivalence over the six golden scenarios: the
// producer/consumer streaming pipeline (core::StreamingEngine) must
// reproduce the batch engine's decoded outcomes *exactly* — station
// selection and handoffs, MAC schedules, every link's bit errors, PER, RDS
// text and goodput, at 1, 2 and 8 consumer threads. The streaming engine
// re-renders the very same scene through the very same DSP state machines,
// just block by block with bounded buffering, so the comparison is
// EXPECT_EQ, not EXPECT_NEAR: a single flipped bit anywhere means some
// streaming decoder's state diverged from its one-shot twin and is a bug.
// Two extra scenes cover renderer branches no golden reaches: an always-on
// custom_baseband tag and a fading tag on a segmented timeline; a third, a
// stereo program, is the only scene whose receivers enter stereo mode.
//
// The capture cases pin the batch engine's receiver captures (MPX, decoded
// L/R, pilot decision, device-chain mono and stereo) byte for byte against
// the one-shot reference chain: the receiver's noise (one channel::AwgnSource
// with the engine's seed and shaping taps) over the renderer's concatenated
// pre-noise blocks, the discriminator, then fm::decode_stereo, then
// rx::apply_phone_chain or rx::apply_cabin_acoustics.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "audio/tone.h"
#include "channel/awgn.h"
#include "core/scene_render.h"
#include "core/streaming.h"
#include "fm/demodulator.h"
#include "fm/stereo_decoder.h"
#include "golden_scenarios.h"
#include "rx/car.h"
#include "rx/phone_chain.h"
#include "support/run_stage.h"
#include "tag/baseband.h"

namespace fmbs::golden {
namespace {

void expect_same_link(const core::TagLinkReport& stream,
                      const core::TagLinkReport& batch,
                      const std::string& where) {
  EXPECT_EQ(stream.tag_index, batch.tag_index) << where;
  EXPECT_EQ(stream.receiver_index, batch.receiver_index) << where;
  EXPECT_EQ(stream.burst.ber.bit_errors, batch.burst.ber.bit_errors) << where;
  EXPECT_EQ(stream.burst.ber.bits_compared, batch.burst.ber.bits_compared)
      << where;
  EXPECT_EQ(stream.burst.ber.ber, batch.burst.ber.ber) << where;
  EXPECT_EQ(stream.burst.packets, batch.burst.packets) << where;
  EXPECT_EQ(stream.burst.packets_ok, batch.burst.packets_ok) << where;
  EXPECT_EQ(stream.burst.bits_delivered, batch.burst.bits_delivered) << where;
  EXPECT_EQ(stream.burst.per, batch.burst.per) << where;
  EXPECT_EQ(stream.burst.mean_confidence, batch.burst.mean_confidence)
      << where;
  EXPECT_EQ(stream.backscatter_rx_power_dbm, batch.backscatter_rx_power_dbm)
      << where;
  EXPECT_EQ(stream.goodput_bps, batch.goodput_bps) << where;
  ASSERT_EQ(stream.rds.has_value(), batch.rds.has_value()) << where;
  if (stream.rds.has_value()) {
    EXPECT_EQ(stream.rds->synced, batch.rds->synced) << where;
    EXPECT_EQ(stream.rds->blocks_ok, batch.rds->blocks_ok) << where;
    EXPECT_EQ(stream.rds->blocks_failed, batch.rds->blocks_failed) << where;
    EXPECT_EQ(stream.rds->bler, batch.rds->bler) << where;
    EXPECT_EQ(stream.rds->ps_name, batch.rds->ps_name) << where;
    EXPECT_EQ(stream.rds->radiotext, batch.rds->radiotext) << where;
  }
}

void expect_equivalent(const core::Scenario& sc, std::size_t consumer_threads) {
  SCOPED_TRACE(sc.name + " @" + std::to_string(consumer_threads) + " threads");
  const core::ScenarioResult batch =
      core::ScenarioEngine({.keep_captures = false}).run(sc);
  core::StreamingConfig cfg;
  cfg.consumer_threads = consumer_threads;
  const core::ScenarioResult stream = core::StreamingEngine(cfg).run(sc);

  // Identical demand-driven pruning decisions (shared resolve_scene_pruning).
  EXPECT_EQ(stream.scene.stations_total, batch.scene.stations_total);
  EXPECT_EQ(stream.scene.stations_rendered, batch.scene.stations_rendered);
  EXPECT_EQ(stream.scene.tags_total, batch.scene.tags_total);
  EXPECT_EQ(stream.scene.tags_rendered, batch.scene.tags_rendered);
  // Only the streaming engine reports bounded buffering; batch has none.
  EXPECT_GT(stream.scene.streaming_peak_buffer_bytes, 0U);
  EXPECT_EQ(batch.scene.streaming_peak_buffer_bytes, 0U);

  // Geometry and handoffs.
  EXPECT_EQ(stream.selected_station, batch.selected_station);
  ASSERT_EQ(stream.segments.size(), batch.segments.size());
  for (std::size_t k = 0; k < stream.segments.size(); ++k) {
    EXPECT_EQ(stream.segments[k].start_seconds,
              batch.segments[k].start_seconds) << k;
    EXPECT_EQ(stream.segments[k].end_seconds, batch.segments[k].end_seconds)
        << k;
    EXPECT_EQ(stream.segments[k].selected_station,
              batch.segments[k].selected_station) << k;
  }

  // MAC outcomes come from the shared plan; they must agree to the bit.
  ASSERT_EQ(stream.mac.size(), batch.mac.size());
  for (std::size_t t = 0; t < stream.mac.size(); ++t) {
    EXPECT_EQ(stream.mac[t].transmitted, batch.mac[t].transmitted) << t;
    EXPECT_EQ(stream.mac[t].deferrals, batch.mac[t].deferrals) << t;
    EXPECT_EQ(stream.mac[t].start_seconds, batch.mac[t].start_seconds) << t;
    EXPECT_EQ(stream.mac[t].last_sensed_dbm, batch.mac[t].last_sensed_dbm)
        << t;
  }

  // Every decoded link, at every receiver, in the same order.
  ASSERT_EQ(stream.receivers.size(), batch.receivers.size());
  for (std::size_t r = 0; r < stream.receivers.size(); ++r) {
    const auto& sr = stream.receivers[r];
    const auto& br = batch.receivers[r];
    ASSERT_EQ(sr.links.size(), br.links.size()) << "receiver " << r;
    for (std::size_t l = 0; l < sr.links.size(); ++l) {
      expect_same_link(sr.links[l], br.links[l],
                       "receiver " + std::to_string(r) + " link " +
                           std::to_string(l));
    }
    ASSERT_EQ(sr.station_rds.has_value(), br.station_rds.has_value())
        << "receiver " << r;
    if (sr.station_rds.has_value()) {
      EXPECT_EQ(sr.station_rds->synced, br.station_rds->synced) << r;
      EXPECT_EQ(sr.station_rds->blocks_ok, br.station_rds->blocks_ok) << r;
      EXPECT_EQ(sr.station_rds->bler, br.station_rds->bler) << r;
      EXPECT_EQ(sr.station_rds->ps_name, br.station_rds->ps_name) << r;
      EXPECT_EQ(sr.station_rds->radiotext, br.station_rds->radiotext) << r;
    }
  }

  // Best-link selection and the headline aggregate.
  ASSERT_EQ(stream.best_per_tag.size(), batch.best_per_tag.size());
  for (std::size_t i = 0; i < stream.best_per_tag.size(); ++i) {
    expect_same_link(stream.best_per_tag[i], batch.best_per_tag[i],
                     "best_per_tag " + std::to_string(i));
  }
  EXPECT_EQ(stream.aggregate_goodput_bps, batch.aggregate_goodput_bps);
}

void expect_equivalent_all_thread_counts(const core::Scenario& sc) {
  expect_equivalent(sc, 1);
  expect_equivalent(sc, 2);
  expect_equivalent(sc, 8);
}

/// An always-on custom_baseband tag, the scene shape core::make_scenario
/// builds for the paper's measurements: no settle window, a tag at a fixed
/// distance reflecting an explicit baseband, and the cooperative pair's
/// second receiver parked on the station. Its tone is shorter than the run,
/// so the renderer zero-fills past its end; an FSK tag on the same channel
/// carries the custom reflection into decoded numbers, and the station
/// receiver decodes the station's RDS.
core::Scenario custom_baseband_bridge() {
  core::Scenario sc;
  sc.name = "custom_baseband_bridge";
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.station.program.stereo = false;
  sc.station.seed = 61;
  sc.station.rds_level = 0.05;
  sc.station.rds_ps_name = "BRIDGEFM";
  sc.settle = units::Seconds{0.0};
  sc.duration = units::Seconds{0.3};
  sc.seed = 61;
  core::ScenarioTag custom;
  custom.name = "tag";
  custom.custom_baseband = tag::compose_overlay_baseband(
      audio::make_tone(3000.0, 0.8, 0.15, fm::kAudioRate), core::kOverlayLevel);
  custom.tag_power = units::Dbm{-30.0};
  custom.distance_override = units::Feet{5.0};
  sc.tags.push_back(std::move(custom));
  core::ScenarioReceiver phone =
      core::phone_listening_to(sc.tags[0].subcarrier);
  phone.name = "backscatter-rx";
  phone.noise_seed = 61;
  sc.receivers.push_back(phone);
  phone.name = "ambient-rx";
  phone.tune_offset = units::Hertz{0.0};
  phone.noise_seed = 61 + 0x9e3779b9ULL;
  sc.receivers.push_back(std::move(phone));
  core::ScenarioTag data;
  data.name = "fsk-neighbor";
  data.subcarrier = sc.tags[0].subcarrier;
  data.rate = tag::DataRate::k1600bps;
  data.num_bits = 128;
  data.packet_bits = 64;
  data.tag_power = units::Dbm{-25.0};
  data.distance_override = units::Feet{4.0};
  data.start = units::Seconds{0.05};
  sc.tags.push_back(std::move(data));
  return sc;
}

/// A running tag with motion fading on a four-segment timeline: its burst
/// spans three segments, so the renderer re-derives the fading stream at
/// two segment boundaries mid-burst.
core::Scenario fading_segments() {
  core::Scenario sc;
  sc.name = "fading_segments";
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.station.program.stereo = false;
  sc.station.seed = 67;
  sc.seed = 67;
  sc.duration = units::Seconds{0.3};  // 0.38 s with settle -> 4 segments
  sc.timeline.segment = units::Seconds{0.1};
  core::ScenarioTag t;
  t.name = "walker";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 320;
  t.packet_bits = 80;
  t.tag_power = units::Dbm{-25.0};
  t.distance_override = units::Feet{4.0};
  t.fading = channel::fading_for_mobility(channel::Mobility::kRunning);
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

/// A stereo program with a phone and a car tuned to the station itself (the
/// car decodes in stereo, unlike car_listening_to's forced mono) and a phone
/// on a tag channel. The two station receivers are the only ones in any
/// scene here that pass the pilot decision and run the stereo branch.
core::Scenario stereo_program() {
  core::Scenario sc;
  sc.name = "stereo_program";
  sc.station.program.genre = audio::ProgramGenre::kPop;
  sc.station.program.stereo = true;
  sc.station.seed = 71;
  sc.seed = 71;
  sc.duration = units::Seconds{1.0};
  core::ScenarioTag t;
  t.name = "poster";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 320;
  t.packet_bits = 80;
  t.tag_power = units::Dbm{-25.0};
  t.distance_override = units::Feet{4.0};
  t.start = units::Seconds{0.3};
  sc.tags.push_back(std::move(t));
  core::ScenarioReceiver phone;
  phone.name = "station-phone";
  phone.tune_offset = units::Hertz{0.0};
  core::ScenarioReceiver car;
  car.name = "station-car";
  car.kind = core::ReceiverKind::kCar;
  car.tune_offset = units::Hertz{0.0};
  sc.receivers = {phone, car,
                  core::phone_listening_to(sc.tags[0].subcarrier)};
  return sc;
}

void expect_same_bytes(const std::vector<float>& got,
                       const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

/// Checks ScenarioEngine's kept captures against the one-shot reference
/// chain, receiver by receiver. Returns how many receivers decoded in
/// stereo mode.
std::size_t expect_captures_match_reference(const core::Scenario& sc) {
  SCOPED_TRACE(sc.name + " captures");
  const core::ScenarioResult batch =
      core::ScenarioEngine({.keep_captures = true}).run(sc);
  const core::ScenarioPlan plan = core::resolve_scenario_plan(sc);
  core::SceneRenderer scene(sc, plan, core::SceneRendering::kSparse,
                            std::nullopt);
  std::vector<dsp::cvec> iq(sc.receivers.size());
  std::vector<dsp::cvec> block;
  for (std::size_t b = 0; b < scene.num_blocks(); ++b) {
    scene.render_block(b, block);
    for (std::size_t r = 0; r < iq.size(); ++r) {
      iq[r].insert(iq[r].end(), block[r].begin(), block[r].end());
    }
  }

  std::size_t stereo_receivers = 0;
  EXPECT_EQ(batch.receivers.size(), sc.receivers.size());
  for (std::size_t r = 0; r < batch.receivers.size(); ++r) {
    SCOPED_TRACE("receiver " + std::to_string(r));
    const core::ScenarioReceiver& rx = sc.receivers[r];
    channel::AwgnSource noise(core::receiver_noise_floor(rx),
                              units::Hertz{fm::kChannelSpacingHz},
                              fm::kMpxRate, plan.receiver_noise_seed[r],
                              scene.noise_shaping_taps(r));
    noise.add_to(iq[r]);
    fm::QuadratureDemodulator demod(units::Hertz{fm::kMaxDeviationHz},
                                    fm::kMpxRate);
    const dsp::rvec mpx = test::run_stage(demod, iq[r]);
    fm::StereoDecoderConfig sdc = rx.stereo_decoder;
    sdc.mpx_rate = fm::kMpxRate;
    const fm::StereoDecodeResult decoded = fm::decode_stereo(mpx, sdc);
    audio::MonoBuffer mono;
    audio::StereoBuffer stereo;
    if (rx.kind == core::ReceiverKind::kCar) {
      mono = rx::apply_cabin_acoustics(decoded.audio.mid(), rx.cabin);
      stereo = audio::StereoBuffer::dual_mono(mono);
    } else {
      mono = rx::apply_phone_chain(decoded.audio.mid(), rx.phone);
      stereo = rx::apply_phone_chain(decoded.audio, rx.phone);
    }

    const core::ReceiverCapture& cap = batch.receivers[r].capture;
    expect_same_bytes(cap.fm.mpx, mpx, "mpx");
    expect_same_bytes(cap.fm.audio.left, decoded.audio.left, "left");
    expect_same_bytes(cap.fm.audio.right, decoded.audio.right, "right");
    EXPECT_EQ(cap.fm.audio.sample_rate, decoded.audio.sample_rate);
    EXPECT_EQ(cap.fm.stereo_mode, decoded.pilot_detected);
    EXPECT_EQ(cap.fm.pilot_snr_db, decoded.pilot_snr_db);
    expect_same_bytes(cap.mono.samples, mono.samples, "mono");
    EXPECT_EQ(cap.mono.sample_rate, mono.sample_rate);
    expect_same_bytes(cap.stereo.left, stereo.left, "stereo left");
    expect_same_bytes(cap.stereo.right, stereo.right, "stereo right");
    EXPECT_EQ(cap.stereo.sample_rate, stereo.sample_rate);
    if (decoded.pilot_detected) ++stereo_receivers;
  }
  return stereo_receivers;
}

TEST(StreamingEquivalence, CapturesMatchReferenceChainOnGoldens) {
  for (const core::Scenario& sc :
       {solo_poster(), city_disjoint(), aloha_burst(), two_station_city(),
        mobile_handoff(), rds_city()}) {
    // No golden carries a stereo program.
    EXPECT_EQ(expect_captures_match_reference(sc), 0U);
  }
}
TEST(StreamingEquivalence, CapturesMatchReferenceChainInStereo) {
  EXPECT_EQ(expect_captures_match_reference(stereo_program()), 2U);
}

TEST(StreamingEquivalence, SoloPoster) {
  expect_equivalent_all_thread_counts(solo_poster());
}
TEST(StreamingEquivalence, CityDisjoint) {
  expect_equivalent_all_thread_counts(city_disjoint());
}
TEST(StreamingEquivalence, AlohaBurst) {
  expect_equivalent_all_thread_counts(aloha_burst());
}
TEST(StreamingEquivalence, TwoStationCity) {
  expect_equivalent_all_thread_counts(two_station_city());
}
TEST(StreamingEquivalence, MobileHandoff) {
  expect_equivalent_all_thread_counts(mobile_handoff());
}
TEST(StreamingEquivalence, RdsCity) {
  expect_equivalent_all_thread_counts(rds_city());
}
TEST(StreamingEquivalence, CustomBasebandBridge) {
  const core::Scenario sc = custom_baseband_bridge();
  ASSERT_EQ(sc.receivers.size(), 2U);  // backscatter + ambient
  expect_equivalent_all_thread_counts(sc);
}
TEST(StreamingEquivalence, FadingAcrossSegments) {
  const core::Scenario sc = fading_segments();
  ASSERT_EQ(core::resolve_scenario_plan(sc).num_segments, 4U);
  expect_equivalent_all_thread_counts(sc);
}

TEST(StreamingEquivalence, StereoProgram) {
  expect_equivalent_all_thread_counts(stereo_program());
}

// Live events must agree with the assembled result: every decoded link
// surfaces exactly once through on_link, and the event payload carries the
// same scores the final report does.
TEST(StreamingEquivalence, LiveEventsMatchAssembledResult) {
  const core::Scenario sc = city_disjoint();
  std::vector<core::StreamingLinkEvent> events;
  std::mutex mu;
  core::StreamingConfig cfg;
  cfg.consumer_threads = 2;
  cfg.on_link = [&](const core::StreamingLinkEvent& ev) {
    const std::lock_guard<std::mutex> lock(mu);
    events.push_back(ev);
  };
  const core::ScenarioResult result = core::StreamingEngine(cfg).run(sc);

  std::size_t total_links = 0;
  std::size_t station_rds = 0;
  for (const auto& rr : result.receivers) {
    total_links += rr.links.size();
    station_rds += rr.station_rds.has_value() ? 1U : 0U;
  }
  EXPECT_EQ(events.size(), total_links + station_rds);
  for (const auto& ev : events) {
    EXPECT_GT(ev.stream_seconds, 0.0);
    if (ev.kind == core::StreamingLinkEvent::Kind::kStationRds) {
      ASSERT_TRUE(ev.link.rds.has_value());
      const auto& rr = result.receivers.at(ev.receiver_index);
      ASSERT_TRUE(rr.station_rds.has_value());
      EXPECT_EQ(ev.link.rds->ps_name, rr.station_rds->ps_name);
      continue;
    }
    // Find the matching assembled link.
    const auto& rr = result.receivers.at(ev.receiver_index);
    bool found = false;
    for (const auto& link : rr.links) {
      if (link.tag_index != ev.tag_index) continue;
      const bool is_rds = link.rds.has_value();
      if (is_rds != (ev.kind == core::StreamingLinkEvent::Kind::kRdsBurst)) {
        continue;
      }
      found = true;
      EXPECT_EQ(ev.link.burst.ber.ber, link.burst.ber.ber);
      EXPECT_EQ(ev.link.goodput_bps, link.goodput_bps);
      break;
    }
    EXPECT_TRUE(found) << "event for tag " << ev.tag_index << " receiver "
                       << ev.receiver_index << " has no assembled link";
  }
}

}  // namespace
}  // namespace fmbs::golden
