// Signal-level multi-tag, multi-station scenarios — paper sections 2, 6 and
// 8: a city block's RF scene holds several co-resident FM stations (the band
// survey of Fig. 4 finds dozens per city) plus N backscatter tags (each with
// its own subcarrier channel, FSK payload, link-budget geometry and burst
// schedule) and M receivers (phone or car, each tuned to one channel),
// rendered through a single shared 2.4 MHz RF scene. Every station is
// superposed into the scene at its own carrier offset, every tag reflects
// its strongest ambient station (as the paper's posters do), overlapping
// transmissions on one channel *collide in the MPX spectrum*, and
// adjacent-channel interference between stations and tags is physical —
// it arrives through the receiver tuner's stopband, not through a model.
//
// The physical pipeline:
//
//   scene renderer (core/scene_render.h), per 480-sample sub-block:
//   station MPX --FM mod--> IQ (240 kHz) --x10--> RF scene (2.4 MHz)
//        |                               |
//        |        tag baseband --> subcarrier B(t) --> reflected = B x RF
//        |                               |
//        +--> direct path ---------------+--> tuner(s) --> IQ (240 kHz)
//                                                              |
//   receiver decode chain (core/receiver_decode.h), per block:  |
//        +------------------ + AWGN (240 kHz) <-----------------+
//        |
//        +--> discriminator --> MPX --> RDS windows
//                                |
//                                +--> pilot-gated stereo --> L/R
//                                                             |
//                      FSK bursts <-- device chain <-- mono <-+
//
// The backscatter multiplication happens sample-by-sample on the RF signal,
// exactly as the tag's switch does it; no audio-domain shortcut is taken.
// Rendering and decoding are block-streamed (0.1 s blocks): the scene
// renderer (core/scene_render.h) hands each receiver's tuned, pre-noise IQ
// block to that receiver's decode chain (core/receiver_decode.h), which
// adds the receiver's noise, so long captures never hold the 2.4 MHz
// stream, or the receiver's IQ, in memory; inside a block the renderer
// holds no more than one sub-block of any RF stream.
//
// Typical use:
//
//   core::Scenario sc;
//   sc.duration = units::Seconds{0.5};
//   const auto plan = tag::plan_subcarrier_channels(4);
//   for (int i = 0; i < 4; ++i) {
//     core::ScenarioTag t;
//     t.name = "poster" + std::to_string(i);
//     t.subcarrier = plan[i].subcarrier;
//     sc.tags.push_back(t);
//   }
//   sc.receivers.push_back(core::phone_listening_to(plan[0].subcarrier));
//   const core::ScenarioResult r = core::ScenarioEngine().run(sc);
//
// City spectra plug in directly:
//
//   const auto cities = survey::builtin_city_spectra();
//   sc.stations = core::stations_from_survey(cities[1], /*listen_channel=*/49);
//
// The paper's single-knob measurements (core/experiment.h) run one tag with
// an explicit baseband, built by make_scenario:
//
//   const core::ScenarioResult r = core::ScenarioEngine().run(
//       core::make_scenario(point, baseband, units::Seconds{1.0}));
//   const audio::MonoBuffer& heard = r.receivers[0].capture.mono;
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audio/audio_buffer.h"
#include "channel/fading.h"
#include "channel/link_budget.h"
#include "core/sweep_runner.h"
#include "dsp/types.h"
#include "fm/receiver.h"
#include "fm/stereo_decoder.h"
#include "fm/transmitter.h"
#include "rx/car.h"
#include "rx/multitag.h"
#include "rx/phone_chain.h"
#include "rx/rds_path.h"
#include "survey/spectrum_db.h"
#include "tag/antenna.h"
#include "tag/fsk.h"
#include "tag/mac.h"
#include "tag/subcarrier.h"

namespace fmbs::core {

/// Switch-on guard the engine keeps around every burst: the tag's switch
/// runs this long before/after the payload (composition-filter spread, as a
/// real tag frames packets with guard time). Part of the public contract —
/// the ALOHA vulnerability window is the payload extended by this guard.
inline constexpr double kBurstGuardSeconds = 0.01;

/// Planar position of a tag or receiver in the scene (meters). Distances are
/// Euclidean; far-field stations ignore geometry, positioned stations scale
/// with it.
struct ScenePosition {
  double x_m = 0.0;
  double y_m = 0.0;
};

/// Fixed-duration segmentation of a scenario's timeline. With a positive
/// `segment_seconds` the engine re-evaluates the scene geometry once per
/// segment — waypoint paths advance, per-tag strongest-station selection is
/// re-decided (handoff), link budgets update — and carrier-sense MACs listen
/// segment by segment. 0 keeps today's single frozen geometry for the whole
/// run (bit-identical to the pre-timeline engine).
struct ScenarioTimeline {
  /// Segment length; 0 = one segment spanning the run. Must be a
  /// whole number of 0.1 s streaming blocks: geometry switches apply at
  /// block boundaries, so a non-multiple would silently shift the segment
  /// grid — the engine rejects it instead.
  units::Seconds segment{0.0};
};

/// Position along a waypoint path at time fraction `u` in [0, 1]: the path
/// runs [anchor, waypoints...] with equal time per leg (an empty waypoint
/// list pins the entity at the anchor).
ScenePosition path_position(const ScenePosition& anchor,
                            std::span<const ScenePosition> waypoints, double u);

/// Largest station carrier offset whose Carson bandwidth still fits inside
/// the complex-baseband RF scene (which spans +-fm::kRfRate / 2).
inline constexpr double kMaxStationOffsetHz =
    fm::kRfRate / 2.0 - fm::kCarsonBandwidthHz / 2.0;

/// Demand-driven scene pruning radius: an emitter (station carrier or tag
/// backscatter channel) is synthesized only when it falls within this many Hz
/// of some receiver's tuned channel. Two channel spacings covers the tuned
/// channel plus both adjacent channels — everything the tuner's transition
/// band passes at a level that can move a decode; anything further arrives
/// only through >70 dB of stopband, far below every receiver noise floor the
/// engine models. Selected stations of a needed tag are always synthesized
/// regardless of distance (the reflection carries their modulation).
inline constexpr double kSceneNeighborhoodHz = 2.0 * fm::kChannelSpacingHz;

/// One ambient FM station of a multi-station RF scene. The scene is complex
/// baseband around the legacy single-station carrier: a station's carrier
/// sits at `offset_hz` from the scene center, so adjacent-channel geometry
/// reads directly in multiples of fm::kChannelSpacingHz.
struct ScenarioStation {
  std::string name;
  fm::StationConfig config;
  /// Carrier offset within the scene; |offset| <= kMaxStationOffsetHz.
  units::Hertz offset{0.0};
  /// Ambient power of this station at the scene origin.
  units::Dbm power{-30.0};
  /// Transmitter position; unset = far field (the station is equally strong
  /// everywhere in the scene). When set, the ambient power scales with
  /// free-space distance relative to the origin — what makes per-tag
  /// station selection geometric.
  std::optional<ScenePosition> position;
};

/// Ambient power of `station` at scene position `at` (see
/// ScenarioStation::position).
units::Dbm station_power_at(const ScenarioStation& station,
                            const ScenePosition& at);

/// One backscatter tag in the scenario.
struct ScenarioTag {
  std::string name;
  tag::SubcarrierConfig subcarrier;  // per-tag f_back and waveform mode
  tag::AntennaModel antenna = tag::poster_dipole_antenna();

  // Payload: FSK data composed as overlay baseband by the engine...
  tag::DataRate rate = tag::DataRate::k1600bps;
  std::size_t num_bits = 64;
  std::size_t packet_bits = 0;  // PER granularity; 0 = one packet
  /// Content level relative to full deviation, in (0, 1].
  double level = kOverlayLevel;
  /// Burst start relative to the end of the scenario settle window. The tag
  /// switch runs only while its burst is on the air (an idle tag reflects
  /// nothing), which is what makes ALOHA collisions physical.
  units::Seconds start{0.0};
  /// ...or an RDS RadioText payload (the paper's headline demo: a poster
  /// pushing "SIMPLY THREE - TICKETS 50% OFF" onto any RDS radio display).
  /// A non-empty string switches the tag into RDS data mode: the text is
  /// compiled via fm::make_radiotext_groups -> tag::compose_rds_baseband
  /// and transmitted as one burst starting at `start` — MAC-aware
  /// (carrier sense defers it like an FSK burst) and colliding physically
  /// in the 57 kHz band of its backscatter channel. The burst lasts
  /// ceil((chars+1)/4) * 104 / 1187.5 seconds and must fit the scenario.
  /// Mutually exclusive with custom_baseband.
  std::string rds_radiotext;
  /// RDS subcarrier injection level of the burst, relative to full
  /// deviation. Broadcast stations inject ~0.05; the tag's backscatter
  /// channel has an empty program band, so a stronger injection simply
  /// buys block-error margin against the reflected station's own RDS.
  /// Must be in (0, 1].
  double rds_level = 0.3;
  /// ...or an explicit FM_back baseband at the MPX rate (non-empty overrides
  /// the FSK payload; the tag is then on-air for the whole scenario and
  /// reports no BER — used for audio tags and make_scenario's experiments).
  dsp::rvec custom_baseband;

  // Link budget inputs.
  /// Ambient FM power at this tag in a single-station scene. In a
  /// multi-station scene the value is ignored — the power is derived from
  /// the selected station via station_power_at.
  units::Dbm tag_power{-30.0};
  /// Station this tag backscatters in a multi-station scene: -1 selects the
  /// strongest ambient station at the tag's position (the paper's posters
  /// reflect whichever signal is strongest); an explicit index pins it.
  /// Ignored in single-station scenes.
  int station_index = -1;
  ScenePosition position;
  /// Waypoint path: when non-empty the tag walks [position, waypoints...]
  /// with equal time per leg across the run. Geometry is re-evaluated per
  /// timeline segment, so a walking tag's strongest station changes along
  /// the path — a mid-run handoff between stations.
  std::vector<ScenePosition> waypoints;
  /// Medium access: how `start` maps to the actual burst start
  /// (pure ALOHA transmits at the nominal time — today's behavior; slotted
  /// ALOHA quantizes to slot boundaries; carrier sense listens per segment
  /// and defers while its channel is busy). Custom-baseband tags are on the
  /// air for the whole run and ignore this.
  tag::MacConfig mac;
  /// When set, overrides the geometric tag-to-receiver distance for every
  /// receiver (the paper's single-knob experiments: make_scenario sets it
  /// from ExperimentPoint::distance).
  std::optional<units::Feet> distance_override;
  std::optional<channel::FadingConfig> fading;

  /// Content / fading seeds; unset = derived from Scenario::seed and the
  /// tag index (scheduling-independent, like SweepRunner's policy).
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> fading_seed;
};

/// One receiving device in the scenario.
struct ScenarioReceiver {
  std::string name;
  ReceiverKind kind = ReceiverKind::kPhone;
  /// Channel the receiver tunes to, as an offset from the scene center (a
  /// tag's channel is its station's offset plus the subcarrier shift; 0
  /// listens to the station at the scene center).
  units::Hertz tune_offset{fm::kDefaultBackscatterShiftHz};
  ScenePosition position;
  /// Waypoint path, like ScenarioTag::waypoints (a pedestrian's phone walks
  /// with its owner; link budgets re-evaluate per timeline segment).
  std::vector<ScenePosition> waypoints;
  /// Power of the unshifted station at the receiver in a single-station
  /// scene; unset = the strongest tag's ambient power (the paper keeps
  /// devices equidistant from the transmitter). Multi-station scenes derive
  /// every station's power at the receiver from station_power_at instead.
  std::optional<units::Dbm> direct_power;
  /// Receiver noise floor per 200 kHz; unset = the kind's default.
  std::optional<units::Dbm> noise_200khz;
  /// Receive antenna gain override; unset = the kind's default antenna
  /// (see receiver_antenna_gain).
  std::optional<units::Db> rx_antenna_gain;
  /// Propagation/link template for tag paths into this receiver; the engine
  /// fills the per-tag antenna gain from `rx_antenna_gain`.
  channel::LinkBudgetConfig link;
  std::optional<std::uint64_t> noise_seed;  // unset = derived
  rx::PhoneChainConfig phone;
  rx::CabinConfig cabin;
  fm::StereoDecoderConfig stereo_decoder;
};

/// A complete multi-entity deployment inside one RF scene.
struct Scenario {
  std::string name;
  /// Legacy single-station scene (bit-identical to the pre-multi-station
  /// engine); used only while `stations` is empty.
  fm::StationConfig station;
  /// Multi-station scene: every entry is rendered and superposed into the
  /// shared RF stream at its carrier offset. Empty = the single legacy
  /// `station` at offset 0.
  std::vector<ScenarioStation> stations;
  std::vector<ScenarioTag> tags;
  std::vector<ScenarioReceiver> receivers;
  /// Scenario length after the settle window; tag bursts must fit inside.
  units::Seconds duration{0.5};
  /// Timeline segmentation (mobility, handoff, carrier sense). The default
  /// single segment is bit-identical to the pre-timeline engine.
  ScenarioTimeline timeline;
  /// Receiver warm-up before any burst starts (filters, AGC, pilot
  /// tracking), matching the experiment harness's lead-in convention.
  units::Seconds settle{0.08};
  /// Root for every derived per-entity seed. 0 is the "derive me" sentinel
  /// used by run_scenario_sweep's seed policy; a scenario run directly
  /// through ScenarioEngine::run keeps whatever is set here.
  std::uint64_t seed = 1;
};

/// Everything captured at one receiver.
struct ReceiverCapture {
  fm::ReceiverOutput fm;        // raw FM receiver output
  audio::MonoBuffer mono;       // mono audio after the device chain
  audio::StereoBuffer stereo;   // stereo audio after the device chain
};

/// Decode statistics of one (tag, receiver) link.
struct TagLinkReport {
  std::size_t tag_index = 0;
  std::size_t receiver_index = 0;
  rx::BurstReport burst;                  // BER / PER / confidence
  /// RDS payload outcome — set only for rds_radiotext tags. For those
  /// links `burst.ber.ber` carries the block error rate (so best-link
  /// selection and sweep plotting stay uniform with FSK tags),
  /// `burst.bits_delivered` counts the 16 information bits of every clean
  /// block, and `goodput_bps` follows from it.
  std::optional<rx::RdsLinkReport> rds;
  double backscatter_rx_power_dbm = 0.0;  // in-channel power at this receiver
  double goodput_bps = 0.0;  // correct payload bits per scenario second
};

/// Everything captured and decoded at one receiver.
struct ScenarioReceiverResult {
  ReceiverCapture capture;           // empty when keep_captures is off
  std::vector<TagLinkReport> links;  // one per tag audible on this channel
  /// RDS of the ambient station on this receiver's tuned channel — what an
  /// unmodified RDS radio parked here displays (the scene station's PS
  /// name). Set when such a station exists and broadcasts RDS
  /// (StationConfig::rds_level > 0); decoded over the whole capture.
  std::optional<rx::RdsLinkReport> station_rds;
};

/// Geometry snapshot of one timeline segment.
struct ScenarioSegmentReport {
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  /// Station index each tag backscatters during this segment (parallel to
  /// Scenario::tags). A change between consecutive segments is a handoff.
  std::vector<int> selected_station;
};

/// MAC outcome of one tag's burst (parallel to Scenario::tags; always-on
/// custom-baseband tags report transmitted with no deferrals).
struct TagMacReport {
  bool transmitted = true;
  std::size_t deferrals = 0;
  /// Actual payload start within the rendered window (settle included).
  double start_seconds = 0.0;
  /// What the final carrier-sense measured; -inf for other policies.
  double last_sensed_dbm = -std::numeric_limits<double>::infinity();
};

/// What demand-driven rendering actually synthesized (see
/// ScenarioEngineConfig::scene_rendering): totals versus the subset inside
/// some receiver's tuned-channel neighborhood.
struct SceneRenderStats {
  std::size_t stations_total = 0;
  std::size_t stations_rendered = 0;
  std::size_t tags_total = 0;
  std::size_t tags_rendered = 0;
  /// Peak bytes of streaming-engine buffering (ring slots, per-tag burst
  /// waveforms, decode windows, pilot decision buffers, loop-mode station
  /// horizon MPX). 0 under the batch engine. Independent of run duration — the
  /// O(1)-memory guarantee the soak tests pin.
  std::size_t streaming_peak_buffer_bytes = 0;
};

/// Full scenario outcome.
struct ScenarioResult {
  /// The scene-center station's render (station 0; the legacy field).
  std::shared_ptr<const fm::StationSignal> station;
  /// One render per scene station (parallel to Scenario::stations, or a
  /// single entry for the legacy station). Under SceneRendering::kSparse a
  /// station outside every receiver's neighborhood is never synthesized and
  /// its entry is nullptr (station 0 — the scene center — is always
  /// rendered).
  std::vector<std::shared_ptr<const fm::StationSignal>> station_renders;
  /// Station index each tag backscattered during the first segment
  /// (parallel to Scenario::tags; the whole run for an unsegmented
  /// scenario). Per-segment history — the handoff record — is in
  /// `segments`.
  std::vector<int> selected_station;
  /// One geometry snapshot per timeline segment (a single entry when the
  /// timeline is unsegmented).
  std::vector<ScenarioSegmentReport> segments;
  /// MAC outcome per tag (deferrals, actual start, silent give-ups).
  std::vector<TagMacReport> mac;
  std::vector<ScenarioReceiverResult> receivers;
  /// Best (lowest-BER) link per data tag, across every receiver that hears
  /// it; tags heard by no receiver are absent.
  std::vector<TagLinkReport> best_per_tag;
  /// Sum of best-per-tag goodput: the deployment's delivered bit rate.
  double aggregate_goodput_bps = 0.0;
  /// What demand-driven rendering synthesized for this run.
  SceneRenderStats scene;
};

/// How the engine decides which emitters to synthesize.
enum class SceneRendering {
  /// Synthesize only stations/tags within kSceneNeighborhoodHz of some
  /// receiver's tuned channel (plus every needed tag's selected stations).
  /// Decoded outcomes match kDense — what is dropped sits below every
  /// receiver's noise floor — at O(audible) instead of O(scene) cost.
  kSparse,
  /// Synthesize every station and tag in the scenario (the historical
  /// behavior; the reference for the sparse-vs-dense equivalence tests).
  kDense,
};

// ---- Pre-render planning ----------------------------------------------------
// Everything the engines decide before any signal is synthesized — timeline
// segmentation, waypoint geometry, per-segment station selection, payload
// durations, the resolved MAC schedule and the per-pair link tables — is a
// pure function of the Scenario, factored out so the signal-level
// ScenarioEngine and the hybrid FleetEngine share one resolution
// bit-identically.

/// Effective noise floor (per 200 kHz) of a receiver: the explicit value
/// when set, else the kind's default.
units::Dbm receiver_noise_floor(const ScenarioReceiver& rx);

/// Effective receive antenna gain: the explicit value when set, else the
/// kind's default antenna.
units::Db receiver_antenna_gain(const ScenarioReceiver& rx);

/// The channel(s) `tag` occupies when reflecting a station whose carrier
/// sits at `station_offset`: an SSB tag shifts one copy, a real square
/// switch mirrors two. Fills out[0..n) and returns n (1 or 2).
int tag_backscatter_channels(const ScenarioTag& tag,
                             units::Hertz station_offset,
                             units::Hertz out[2]);

/// One tag's pre-render decisions.
struct ScenarioTagPlan {
  /// Payload kind flags (mutually exclusive; neither set = FSK data).
  bool custom_baseband = false;
  bool rds = false;
  /// Payload on-air seconds (0 for custom-baseband tags, which are on the
  /// air for the whole run).
  double burst_seconds = 0.0;
  /// Resolved content / fading seeds (explicit or derived from
  /// Scenario::seed); fading_seed is 0 when the tag has no fading.
  std::uint64_t content_seed = 0;
  std::uint64_t fading_seed = 0;
  /// Serialized RDS groups of an rds_radiotext tag (drives burst_seconds).
  std::vector<unsigned char> rds_bits;
  // Resolved MAC outcome (custom-baseband tags report transmitted with no
  // deferrals, like TagMacReport).
  bool transmitted = true;
  double start_seconds = 0.0;  ///< actual payload start, settle included
  std::size_t deferrals = 0;
  double last_sensed_dbm = -std::numeric_limits<double>::infinity();
};

/// The resolved pre-render plan of one scenario.
struct ScenarioPlan {
  double total_seconds = 0.0;    ///< settle + duration
  double segment_seconds = 0.0;  ///< 0 = one segment spanning the run
  std::size_t num_segments = 1;
  /// False = legacy single-station scene (sc.station at the center).
  bool multi = false;
  std::size_t num_stations = 1;
  std::vector<double> station_offset;  ///< carrier offset per station
  /// Per-segment entity positions along their waypoint paths.
  std::vector<std::vector<ScenePosition>> tag_pos;  // [segment][tag]
  std::vector<std::vector<ScenePosition>> rx_pos;   // [segment][receiver]
  /// Station index each tag backscatters per segment, and the ambient power
  /// (dBm) of that station at the tag.
  std::vector<std::vector<int>> selected_station;      // [segment][tag]
  std::vector<std::vector<double>> tag_ambient_dbm;    // [segment][tag]
  /// Legacy single-station scene: power of the unshifted station at each
  /// receiver after the NaN policy (empty for multi-station scenes).
  std::vector<double> receiver_direct_dbm;
  /// Resolved per-receiver noise seed (explicit or derived).
  std::vector<std::uint64_t> receiver_noise_seed;
  std::vector<ScenarioTagPlan> tags;  ///< parallel to Scenario::tags
  /// Per-segment link tables: g_direct[k][r][s] — unshifted amplitude of
  /// station s at receiver r; g_back[k][r][t] — reflected amplitude of tag
  /// t at receiver r; rx_power_dbm[k][r][t] — in-channel sideband power of
  /// that reflection.
  std::vector<std::vector<std::vector<float>>> g_direct;
  std::vector<std::vector<std::vector<float>>> g_back;
  std::vector<std::vector<std::vector<double>>> rx_power_dbm;

  /// Segment owning time `t` (boundary times stay in the opening segment,
  /// matching resolve_mac_schedule's convention).
  std::size_t segment_of_time(double t) const;
  /// [start, end) of segment `k` in seconds.
  std::pair<double, double> segment_bounds(std::size_t k) const;
};

/// Resolves a scenario's pre-render plan. Performs the engine's full
/// validation (throws std::invalid_argument, naming the entity and field,
/// on an input outside its domain or an inconsistent scenario) and
/// the complete MAC resolution — carrier-sense tags listen against the same
/// analytic channel model the engine uses — without synthesizing a sample.
ScenarioPlan resolve_scenario_plan(const Scenario& scenario);

/// Demand-driven scene pruning verdicts (see SceneRendering::kSparse): which
/// stations and tags must actually be synthesized. A pure function of the
/// scenario and its plan, factored out so the batch and streaming engines
/// prune identically. Under kDense every flag is set.
struct ScenePruning {
  std::vector<char> station_needed;  ///< parallel to the scene's stations
  std::vector<char> tag_needed;      ///< parallel to Scenario::tags
};

ScenePruning resolve_scene_pruning(const Scenario& scenario,
                                   const ScenarioPlan& plan,
                                   SceneRendering mode);

/// Engine options.
struct ScenarioEngineConfig {
  /// Keep per-receiver audio captures in the result (turn off for sweeps —
  /// captures dominate the result's memory).
  bool keep_captures = true;
  /// Demand-driven (kSparse) vs exhaustive (kDense) scene synthesis.
  SceneRendering scene_rendering = SceneRendering::kSparse;
};

/// Renders and decodes scenarios serially. The shared block renderer
/// (core/scene_render.h) produces each receiver's tuned IQ block by block
/// and the shared receiver decoders (core/receiver_decode.h) consume each
/// block as it is rendered — the same two pieces StreamingEngine drives
/// from its threads. Global decisions (stereo pilot detect, the tuned
/// station's RDS) are made over the whole capture, and no receiver's
/// whole-run IQ is ever held; keep_captures taps the decode chain into a
/// whole-run ReceiverCapture per receiver.
/// Stateless between runs; one shared station render per (StationConfig,
/// duration) via fm::StationCache, pinned for the run so multi-station
/// scenes never evict their own renders. For many scenarios, use
/// run_scenario_sweep (it applies the sweep seed policy).
class ScenarioEngine {
 public:
  explicit ScenarioEngine(ScenarioEngineConfig config = {}) : config_(config) {}

  /// Runs one scenario. Throws std::invalid_argument where
  /// resolve_scenario_plan does.
  ScenarioResult run(const Scenario& scenario) const;

 private:
  ScenarioEngineConfig config_;
};

/// True when a receiver tuned at `tune_offset` (scene-absolute) hears the
/// channel of a tag backscattering the station at `station_offset`: a
/// real square-wave switch serves station_offset +- |f_back| (mirror
/// copies), SSB only station_offset + f_back; a receiver on the station
/// carrier itself hears the station, not tag data.
bool tag_audible_at(const ScenarioTag& tag, units::Hertz station_offset,
                    units::Hertz tune_offset);

/// Single-station shorthand (station at the scene center).
inline bool tag_audible_at(const ScenarioTag& tag, units::Hertz tune_offset) {
  return tag_audible_at(tag, units::Hertz{0.0}, tune_offset);
}

/// A phone receiver tuned to a planned subcarrier channel.
ScenarioReceiver phone_listening_to(const tag::SubcarrierConfig& subcarrier);

/// A car receiver tuned to a planned subcarrier channel: whip antenna, car
/// noise floor, two-ray ground propagation (the poster 5 ft up, the whip on
/// the car body) and mono decode.
ScenarioReceiver car_listening_to(const tag::SubcarrierConfig& subcarrier);

/// The one-tag scene of a paper measurement (core/experiment.h): the point's
/// station at the scene center, one always-on tag reflecting `tag_baseband`
/// (FM_back at the MPX rate, see tag/baseband.h composers; zero-padded or
/// truncated to the run) at the point's ambient power and distance, and one
/// receiver of the point's kind on the tag's channel. No settle window; the
/// station, noise and fading seeds follow the point's seeds. Callers adjust
/// the returned scene (antenna, fading, device chain, a second receiver)
/// before running it.
Scenario make_scenario(const ExperimentPoint& point, dsp::rvec tag_baseband,
                       units::Seconds duration);

/// Builds a multi-station scene from a surveyed city's band occupancy
/// (survey::SpectrumDb, paper Fig. 4): every detectable channel within
/// `max_offset` of `listen_channel` becomes a ScenarioStation at its real
/// 200 kHz-raster offset carrying its surveyed street-level ambient power;
/// program genre, stereo flag, content seed, RDS injection level and PS
/// name (derived from the city and channel frequency, e.g. "BOS098.5") vary
/// deterministically per channel — surveyed city scenes broadcast RDS the
/// way a real band does. Stations come back sorted by |offset|, so the listen channel
/// (when detectable) is station 0 — the scene center a ScenarioResult
/// reports as `station`. Throws std::invalid_argument when no detectable
/// station falls inside the scene (an empty vector would silently mean
/// "legacy single-station mode" to the engine).
std::vector<ScenarioStation> stations_from_survey(
    const survey::CitySpectrum& city, int listen_channel,
    units::Hertz max_offset = units::Hertz{kMaxStationOffsetHz},
    std::uint64_t seed = 1);

/// stations_from_survey plus the stations it could NOT place: a surveyed
/// channel whose carrier offset falls outside the ±1.2 MHz scene (or past
/// the caller's tighter cap) cannot be rendered without aliasing, so it is
/// excluded — never clamped onto a wrong frequency — and reported here with
/// a human-readable warning, instead of disappearing silently.
struct SurveySceneReport {
  std::vector<ScenarioStation> stations;  ///< the renderable scene
  /// One warning per excluded channel ("<city>@<freq> at +3.4 MHz is
  /// outside the ±1.1 MHz scene — skipped").
  std::vector<std::string> warnings;
};

SurveySceneReport stations_from_survey_report(
    const survey::CitySpectrum& city, int listen_channel,
    units::Hertz max_offset = units::Hertz{kMaxStationOffsetHz},
    std::uint64_t seed = 1);

// ---- Scenario-level sweeps --------------------------------------------------

/// One row of a scenario figure grid (the scenario-level analogue of
/// GridRow): a label, a factory building the row's Scenario at an x value,
/// and the measurement extracted from its result.
struct ScenarioGridRow {
  std::string label;
  std::function<Scenario(double x)> make_scenario;
  std::function<double(const ScenarioResult& result, double x)> eval;
};

/// Applies the sweep seed policy to scenario `index` of a sweep rooted at
/// `config`: a scenario left at seed == 0 gets derive_seed(base_seed, index)
/// — scheduling-independent, so sweeps are bit-identical at any thread
/// count — and station seeds left at 0 are pinned sweep-wide (base_seed for
/// the legacy station, derive_seed(base_seed, stream + s) for scene station
/// s) so every point shares one fm::StationCache render per station.
void apply_scenario_seed_policy(Scenario& scenario, std::size_t index,
                                const SweepConfig& config);

/// Runs scenarios across the runner's pool after applying the seed policy
/// to each (in list order). Ordered and bit-identical at any thread count.
std::vector<ScenarioResult> run_scenario_sweep(SweepRunner& runner,
                                               const ScenarioEngine& engine,
                                               std::vector<Scenario> scenarios);

/// Full scenario figure grid (SweepRunner::run_cells, one scenario per
/// cell) for figures scored on engine-native results such as FSK bursts or
/// RDS tags; audio measurements use the core::experiment procedures.
std::vector<Series> run_scenario_grid(SweepRunner& runner,
                                      const ScenarioEngine& engine,
                                      const std::vector<ScenarioGridRow>& rows,
                                      const std::vector<double>& xs);

}  // namespace fmbs::core
