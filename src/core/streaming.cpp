#include "core/streaming.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "audio/tone.h"
#include "channel/awgn.h"
#include "channel/fading.h"
#include "channel/superpose.h"
#include "dsp/fir.h"
#include "dsp/nco.h"
#include "dsp/ring_buffer.h"
#include "fm/demodulator.h"
#include "fm/modulator.h"
#include "fm/station_cache.h"
#include "fm/stereo_stream.h"
#include "rx/device_stream.h"
#include "rx/fsk_stream.h"
#include "rx/rds_stream.h"
#include "rx/tuner.h"
#include "tag/baseband.h"
#include "tag/fsk.h"
#include "tag/subcarrier.h"

namespace fmbs::core {

namespace {

// Block geometry and decode slack, byte-identical to the batch engine's
// (scenario.cpp); the golden streaming==batch equivalence tests pin the two
// against each other.
constexpr std::size_t kBlockMpx = 24000;  // 0.1 s at 240 kHz
constexpr double kBlockSeconds = static_cast<double>(kBlockMpx) / fm::kMpxRate;
constexpr std::size_t kBlockRf =
    kBlockMpx * static_cast<std::size_t>(fm::kMpxToRfFactor);
constexpr double kRdsDecodeSlackSeconds = 0.02;

/// One published ring slot: the tuned post-channel IQ of every receiver for
/// one 0.1 s block. The producer refills the same vectors in place, so the
/// steady state allocates nothing.
struct StreamBlock {
  std::size_t index = 0;
  std::vector<dsp::cvec> iq;  // [receiver][kBlockMpx]
};

/// Producer-side per-station state. Exact mode streams blocks straight out
/// of the cached full-run render (like the batch engine); loop mode cycles a
/// horizon render's MPX through a persistent modulator, keeping the carrier
/// phase continuous across the seam at O(horizon) memory.
struct StationSource {
  std::shared_ptr<const fm::StationSignal> render;
  std::optional<dsp::FirInterpolator<dsp::cfloat>> up;
  std::optional<dsp::Mixer> mixer;
  std::optional<fm::FmModulator> loop_mod;
  std::size_t loop_pos = 0;  // next MPX sample of the cycled horizon
  dsp::cvec loop_iq;         // per-block re-modulated IQ (loop mode)
};

/// Producer-side per-tag state. Unlike the batch engine's padded full-run
/// baseband, only the burst's own waveform is kept: outside
/// [wave_begin, wave_begin + wave_len) the baseband is zero by construction
/// (the FIR interpolator's zero state makes the compact waveform bit-equal
/// to the slice of the padded one).
struct StreamTag {
  dsp::rvec wave;
  const dsp::rvec* custom = nullptr;  // custom-baseband tags read in place
  std::size_t wave_begin = 0;
  std::size_t wave_len = 0;
  std::size_t active_begin = 0;  // switch-on window, MPX samples
  std::size_t active_end = 0;
  std::vector<std::uint8_t> bits;
  std::vector<unsigned char> rds_bits;
  double burst_start_seconds = 0.0;
  double burst_seconds = 0.0;
  bool transmitted = true;
  std::unique_ptr<tag::SubcarrierGenerator> subcarrier;
  std::unique_ptr<channel::FadingProcess> fading;
  std::uint64_t fading_seed = 0;
  std::size_t fading_segment = static_cast<std::size_t>(-1);
};

/// One burst collector riding a receiver's decoded-audio stream.
struct FskCollector {
  std::size_t tag = 0;
  std::size_t seg = 0;  // segment owning the burst midpoint
  rx::StreamingBurstDemodulator demod;
  bool done = false;
  TagLinkReport link;
};

/// One RDS-window collector riding a receiver's post-demod MPX stream.
struct RdsCollector {
  std::size_t tag = 0;
  std::size_t seg = 0;
  rx::RdsStreamDecoder decoder;
  bool done = false;
  TagLinkReport link;
};

/// Everything one receiver's consumer needs, owned by exactly one consumer
/// thread during streaming and read by the main thread only after join.
struct ReceiverStream {
  std::size_t index = 0;
  fm::QuadratureDemodulator demod;
  fm::StereoStreamDecoder stereo;
  std::optional<rx::PhoneChainStream> phone;
  std::optional<rx::CabinAcousticsStream> cabin;
  std::vector<FskCollector> fsk;
  std::vector<RdsCollector> rds;
  std::optional<rx::RdsStreamDecoder> station_rds;
  bool station_rds_done = false;
  rx::RdsLinkReport station_rds_report;
  dsp::rvec left, right, mono;  // per-block audio scratch

  ReceiverStream(const fm::StereoDecoderConfig& stereo_cfg, std::size_t padded,
                 units::Seconds decision_window)
      : demod(units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate),
        stereo(stereo_cfg, padded, decision_window) {}
};

/// Shared read-only context for the consumer threads.
struct StreamContext {
  const Scenario* sc = nullptr;
  const ScenarioPlan* plan = nullptr;
  const std::function<void(const StreamingLinkEvent&)>* on_link = nullptr;
};

void finalize_fsk(const StreamContext& ctx, ReceiverStream& rs,
                  FskCollector& c, double now) {
  c.link = TagLinkReport{};
  c.link.tag_index = c.tag;
  c.link.receiver_index = rs.index;
  c.link.burst = c.demod.finish();
  c.link.backscatter_rx_power_dbm =
      (*ctx.plan).rx_power_dbm[c.seg][rs.index][c.tag];
  c.link.goodput_bps = static_cast<double>(c.link.burst.bits_delivered) /
                       ctx.sc->duration.raw();
  c.done = true;
  if (*ctx.on_link) {
    StreamingLinkEvent ev;
    ev.kind = StreamingLinkEvent::Kind::kFskBurst;
    ev.receiver_index = rs.index;
    ev.tag_index = c.tag;
    ev.stream_seconds = now;
    ev.link = c.link;
    (*ctx.on_link)(ev);
  }
}

void finalize_rds(const StreamContext& ctx, ReceiverStream& rs,
                  RdsCollector& c, double now) {
  c.link = TagLinkReport{};
  c.link.tag_index = c.tag;
  c.link.receiver_index = rs.index;
  c.link.rds = c.decoder.finish();
  c.link.burst.ber.ber = c.link.rds->bler;
  c.link.burst.bits_delivered = c.link.rds->blocks_ok * 16;
  c.link.backscatter_rx_power_dbm =
      (*ctx.plan).rx_power_dbm[c.seg][rs.index][c.tag];
  c.link.goodput_bps = static_cast<double>(c.link.burst.bits_delivered) /
                       ctx.sc->duration.raw();
  c.done = true;
  if (*ctx.on_link) {
    StreamingLinkEvent ev;
    ev.kind = StreamingLinkEvent::Kind::kRdsBurst;
    ev.receiver_index = rs.index;
    ev.tag_index = c.tag;
    ev.stream_seconds = now;
    ev.link = c.link;
    (*ctx.on_link)(ev);
  }
}

void finalize_station_rds(const StreamContext& ctx, ReceiverStream& rs,
                          double now) {
  rs.station_rds_report = rs.station_rds->finish();
  rs.station_rds_done = true;
  if (*ctx.on_link) {
    StreamingLinkEvent ev;
    ev.kind = StreamingLinkEvent::Kind::kStationRds;
    ev.receiver_index = rs.index;
    ev.stream_seconds = now;
    ev.link.receiver_index = rs.index;
    ev.link.rds = rs.station_rds_report;
    (*ctx.on_link)(ev);
  }
}

/// Feeds freshly decoded audio (rs.left/rs.right) through the device chain
/// into every open burst collector.
void feed_audio(const StreamContext& ctx, ReceiverStream& rs, double now) {
  if (rs.left.empty()) return;
  rs.mono.resize(rs.left.size());
  for (std::size_t i = 0; i < rs.mono.size(); ++i) {
    rs.mono[i] = 0.5F * (rs.left[i] + rs.right[i]);
  }
  if (rs.phone) rs.phone->process_inplace(rs.mono);
  if (rs.cabin) rs.cabin->process_inplace(rs.mono);
  for (FskCollector& c : rs.fsk) {
    if (c.done) continue;
    c.demod.push(rs.mono);
    if (c.demod.window_complete()) finalize_fsk(ctx, rs, c, now);
  }
}

void consume_block(const StreamContext& ctx, ReceiverStream& rs,
                   std::span<const dsp::cfloat> iq, double now) {
  const dsp::rvec mpx = rs.demod.process(iq);
  if (rs.station_rds && !rs.station_rds_done) {
    rs.station_rds->push(mpx);
    if (rs.station_rds->window_complete()) finalize_station_rds(ctx, rs, now);
  }
  for (RdsCollector& c : rs.rds) {
    if (c.done) continue;
    c.decoder.push(mpx);
    if (c.decoder.window_complete()) finalize_rds(ctx, rs, c, now);
  }
  rs.left.clear();
  rs.right.clear();
  rs.stereo.push(mpx, rs.left, rs.right);
  feed_audio(ctx, rs, now);
}

/// End of stream: flush the stereo tail and score every still-open window
/// (truncated windows were clamped to the capture up front, so their reports
/// match the batch engine's on the same truncated capture).
void drain_receiver(const StreamContext& ctx, ReceiverStream& rs, double now) {
  rs.left.clear();
  rs.right.clear();
  rs.stereo.finish(rs.left, rs.right);
  feed_audio(ctx, rs, now);
  if (rs.station_rds && !rs.station_rds_done) {
    finalize_station_rds(ctx, rs, now);
  }
  for (RdsCollector& c : rs.rds) {
    if (!c.done) finalize_rds(ctx, rs, c, now);
  }
  for (FskCollector& c : rs.fsk) {
    if (!c.done) finalize_fsk(ctx, rs, c, now);
  }
}

}  // namespace

StreamingEngine::StreamingEngine(StreamingConfig config)
    : config_(std::move(config)) {
  if (config_.consumer_threads == 0) {
    throw std::invalid_argument("StreamingEngine: consumer_threads must be > 0");
  }
  if (config_.ring_blocks == 0) {
    throw std::invalid_argument("StreamingEngine: ring_blocks must be > 0");
  }
  if (config_.station_horizon.raw() <= 0.0) {
    throw std::invalid_argument(
        "StreamingEngine: station_horizon must be > 0");
  }
}

ScenarioResult StreamingEngine::run(const Scenario& sc) const {
  const ScenarioPlan plan = resolve_scenario_plan(sc);
  const double total_seconds = plan.total_seconds;
  const std::size_t num_segments = plan.num_segments;
  const bool multi = plan.multi;
  const std::size_t num_stations = plan.num_stations;
  const std::vector<double>& station_offset = plan.station_offset;
  const std::vector<std::vector<int>>& sel = plan.selected_station;
  const std::size_t blocks_per_segment =
      plan.segment_seconds > 0.0
          ? static_cast<std::size_t>(
                std::llround(plan.segment_seconds / kBlockSeconds))
          : 0;

  ScenarioResult result;
  // Scene renders stay pinned for the stream's whole lifetime: the producer
  // re-reads them on every block, so mid-run eviction would be a
  // use-after-free, not just a cache miss.
  fm::StationCache::SceneScope scope(fm::StationCache::instance());

  // Runs within the horizon use one exact full-run render per station — the
  // batch engine's source signals, bit for bit. Longer runs render the
  // horizon once and loop it.
  const bool loop_mode = total_seconds > config_.station_horizon.raw();
  const double render_seconds =
      loop_mode ? config_.station_horizon.raw() : total_seconds;
  result.station_renders.assign(num_stations, nullptr);
  result.station_renders[0] =
      scope.render(multi ? sc.stations[0].config : sc.station,
                   units::Seconds{render_seconds});
  result.station = result.station_renders[0];
  const std::size_t content_len = result.station->iq.size();
  const std::size_t run_len =
      loop_mode ? static_cast<std::size_t>(total_seconds * fm::kMpxRate + 0.5)
                : content_len;
  const std::size_t padded = (run_len + kBlockMpx - 1) / kBlockMpx * kBlockMpx;
  const std::size_t num_blocks = padded / kBlockMpx;

  result.selected_station = sel[0];
  result.segments.resize(num_segments);
  for (std::size_t k = 0; k < num_segments; ++k) {
    const auto [s0, s1] = plan.segment_bounds(k);
    result.segments[k].start_seconds = s0;
    result.segments[k].end_seconds = s1;
    result.segments[k].selected_station = sel[k];
  }

  // ---- Pruning and station renders (shared logic with the batch engine). ---
  const ScenePruning pruning =
      resolve_scene_pruning(sc, plan, config_.scene_rendering);
  const std::vector<char>& station_needed = pruning.station_needed;
  const std::vector<char>& tag_needed = pruning.tag_needed;
  for (std::size_t s = 1; s < num_stations; ++s) {
    if (!station_needed[s]) continue;
    result.station_renders[s] =
        scope.render(sc.stations[s].config, units::Seconds{render_seconds});
    if (result.station_renders[s]->iq.size() != content_len) {
      throw std::logic_error("StreamingEngine: station render length mismatch");
    }
  }
  result.scene.stations_total = num_stations;
  result.scene.tags_total = sc.tags.size();
  for (std::size_t s = 0; s < num_stations; ++s) {
    result.scene.stations_rendered += station_needed[s] ? 1U : 0U;
  }
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    result.scene.tags_rendered += tag_needed[t] ? 1U : 0U;
  }

  // ---- Per-tag state and compact burst waveforms. --------------------------
  result.mac.resize(sc.tags.size());
  std::vector<StreamTag> tags(sc.tags.size());
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    const ScenarioTag& t = sc.tags[i];
    const ScenarioTagPlan& tp = plan.tags[i];
    StreamTag& st = tags[i];
    st.subcarrier = std::make_unique<tag::SubcarrierGenerator>(t.subcarrier);
    if (t.fading) {
      st.fading_seed = tp.fading_seed;
      if (num_segments == 1) {
        st.fading = std::make_unique<channel::FadingProcess>(
            *t.fading, fm::kRfRate, st.fading_seed);
      }
    }
    if (tp.custom_baseband) {
      // Read the user's baseband in place; the block stager supplies the
      // zeros the batch engine's resize(padded) would have appended.
      st.custom = &t.custom_baseband;
      st.active_begin = 0;
      st.active_end = padded;
      continue;
    }
    st.burst_seconds = tp.burst_seconds;
    if (tp.rds) {
      st.rds_bits = tp.rds_bits;
    } else {
      st.bits = tag::random_bits(t.num_bits, tp.content_seed);
    }
    result.mac[i].transmitted = tp.transmitted;
    result.mac[i].deferrals = tp.deferrals;
    result.mac[i].start_seconds = tp.start_seconds;
    result.mac[i].last_sensed_dbm = tp.last_sensed_dbm;
    st.transmitted = tp.transmitted;
    if (!tp.transmitted || !tag_needed[i]) {
      st.burst_start_seconds = tp.start_seconds;
      st.active_begin = 0;
      st.active_end = 0;
      continue;
    }
    st.burst_start_seconds = tp.start_seconds;
    if (!st.rds_bits.empty()) {
      const auto nsamp = static_cast<std::size_t>(
          std::ceil(st.burst_seconds * fm::kMpxRate));
      st.wave = tag::compose_rds_baseband(st.rds_bits, nsamp, t.rds_level);
      st.wave_begin =
          static_cast<std::size_t>(st.burst_start_seconds * fm::kMpxRate);
    } else {
      // The batch engine composes silence(start) ++ fsk through the overlay
      // interpolator; with zero filter state the silent prefix maps to an
      // exact zero prefix, so composing the payload alone and offsetting it
      // reproduces the padded baseband bit for bit at O(burst) memory.
      const auto lead = static_cast<std::size_t>(
          st.burst_start_seconds * fm::kAudioRate + 0.5);
      st.wave = tag::compose_overlay_baseband(
          tag::modulate_fsk(st.bits, t.rate, fm::kAudioRate), t.level,
          fm::kMpxRate);
      st.wave_begin =
          lead * static_cast<std::size_t>(fm::kMpxRate / fm::kAudioRate);
    }
    st.wave_len = std::min(
        st.wave.size(), st.wave_begin < padded ? padded - st.wave_begin : 0);
    st.active_begin = static_cast<std::size_t>(
        std::max(0.0, st.burst_start_seconds - kBurstGuardSeconds) *
        fm::kMpxRate);
    st.active_end = std::min(
        padded,
        static_cast<std::size_t>(
            (st.burst_start_seconds + st.burst_seconds + kBurstGuardSeconds) *
            fm::kMpxRate));
  }

  // ---- Per-station front ends (never reset at segment boundaries). --------
  const auto up_factor = static_cast<std::size_t>(fm::kMpxToRfFactor);
  const std::vector<float> up_taps = dsp::fir_design_lowpass(
      (16 * up_factor) | 1U, 0.45 / static_cast<double>(up_factor));
  std::vector<StationSource> stations(num_stations);
  for (std::size_t s = 0; s < num_stations; ++s) {
    if (!station_needed[s]) continue;
    StationSource& src = stations[s];
    src.render = result.station_renders[s];
    src.up.emplace(up_taps, up_factor);
    if (station_offset[s] != 0.0) {
      src.mixer.emplace(station_offset[s], fm::kRfRate);
    }
    if (loop_mode) {
      const units::Hertz deviation =
          multi ? sc.stations[s].config.deviation : sc.station.deviation;
      src.loop_mod.emplace(deviation, fm::kMpxRate);
    }
  }

  // ---- Per-receiver front ends and decode chains. --------------------------
  std::vector<channel::AwgnSource> noise;
  std::vector<rx::Tuner> tuners;
  noise.reserve(sc.receivers.size());
  tuners.reserve(sc.receivers.size());
  std::vector<std::unique_ptr<ReceiverStream>> streams(sc.receivers.size());
  std::size_t decode_buffer_bytes = 0;
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const ScenarioReceiver& rx = sc.receivers[r];
    rx::TunerConfig tuner_cfg;
    tuner_cfg.offset_hz = rx.tune_offset.raw();
    tuners.emplace_back(tuner_cfg);
    // Tuned-rate noise after the channel filter, exactly as the batch engine.
    noise.emplace_back(receiver_noise_floor(rx),
                       units::Hertz{fm::kChannelSpacingHz}, fm::kMpxRate,
                       plan.receiver_noise_seed[r],
                       tuners.back().noise_shaping_taps());

    fm::StereoDecoderConfig sdc = rx.stereo_decoder;
    sdc.mpx_rate = fm::kMpxRate;
    streams[r] = std::make_unique<ReceiverStream>(
        sdc, padded, config_.decision_window);
    ReceiverStream& rs = *streams[r];
    rs.index = r;
    if (rx.kind == ReceiverKind::kCar) {
      rs.cabin.emplace(rx.cabin, sdc.audio_rate);
    } else {
      rs.phone.emplace(rx.phone, sdc.audio_rate);
    }
    const auto decim =
        static_cast<std::size_t>(sdc.mpx_rate / sdc.audio_rate + 0.5);
    const std::size_t audio_len = padded / decim;

    // FSK burst routing, exactly as the batch engine routes before
    // demodulate_bursts.
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      const ScenarioTag& tcfg = sc.tags[t];
      if (tags[t].bits.empty()) continue;
      if (!tags[t].transmitted) continue;
      const std::size_t burst_seg = plan.segment_of_time(
          tags[t].burst_start_seconds + 0.5 * tags[t].burst_seconds);
      if (!tag_audible_at(
              tcfg,
              units::Hertz{
                  station_offset[static_cast<std::size_t>(sel[burst_seg][t])]},
              rx.tune_offset)) {
        continue;
      }
      rx::BurstSpec burst;
      burst.rate = tcfg.rate;
      burst.bits = tags[t].bits;
      burst.start_seconds = tags[t].burst_start_seconds;
      burst.packet_bits = tcfg.packet_bits;
      rs.fsk.push_back(FskCollector{
          t, burst_seg,
          rx::StreamingBurstDemodulator(burst, sdc.audio_rate, audio_len),
          false,
          TagLinkReport{}});
    }
    // RDS tag links, over their on-air windows only.
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      const StreamTag& st = tags[t];
      if (st.rds_bits.empty() || !st.transmitted) continue;
      const std::size_t burst_seg = plan.segment_of_time(
          st.burst_start_seconds + 0.5 * st.burst_seconds);
      if (!tag_audible_at(
              sc.tags[t],
              units::Hertz{
                  station_offset[static_cast<std::size_t>(sel[burst_seg][t])]},
              rx.tune_offset)) {
        continue;
      }
      rs.rds.push_back(RdsCollector{
          t, burst_seg,
          rx::RdsStreamDecoder(fm::kMpxRate, padded, st.burst_start_seconds,
                               st.burst_seconds + kRdsDecodeSlackSeconds),
          false,
          TagLinkReport{}});
    }
    // The tuned channel's own broadcast RDS (window bounded for soak runs).
    const fm::StationConfig* tuned_station = nullptr;
    if (multi) {
      for (std::size_t s = 0; s < num_stations; ++s) {
        if (std::abs(station_offset[s] - rx.tune_offset.raw()) < 1.0) {
          tuned_station = &sc.stations[s].config;
          break;
        }
      }
    } else if (std::abs(rx.tune_offset.raw()) < 1.0) {
      tuned_station = &sc.station;
    }
    if (tuned_station != nullptr && tuned_station->rds_level > 0.0) {
      // In loop mode the station MPX past the first horizon period is a
      // re-cycle whose RDS group alignment breaks at every seam (the horizon
      // rarely holds a whole number of groups), so the ambient-RDS verdict
      // is reached within the first period — where the streamed content is
      // bit-exact — rather than diluted with seam garbage.
      const double station_window =
          loop_mode ? std::min(config_.decision_window.raw(),
                               config_.station_horizon.raw())
                    : config_.decision_window.raw();
      rs.station_rds.emplace(fm::kMpxRate, padded, 0.0, -1.0, station_window);
    }

    decode_buffer_bytes += rs.stereo.decision_buffer_bytes();
    decode_buffer_bytes +=
        (rs.stereo.decision_buffer_bytes() / sizeof(float) / decim) * 2 *
        sizeof(float);  // the L/R chunk the decision flush emits
    decode_buffer_bytes += kBlockMpx * sizeof(float);  // per-block MPX scratch
    for (const FskCollector& c : rs.fsk) decode_buffer_bytes += c.demod.buffer_bytes();
    for (const RdsCollector& c : rs.rds) decode_buffer_bytes += c.decoder.buffer_bytes();
    if (rs.station_rds) decode_buffer_bytes += rs.station_rds->buffer_bytes();
  }

  // ---- The O(1)-memory ledger. ---------------------------------------------
  // Every buffer whose lifetime spans the stream, summed up front (all sizes
  // are known before the first sample): ring slots, producer scene scratch,
  // compact burst waveforms, loop-mode horizon buffers, decision windows and
  // burst collectors. None scales with the run duration — the property the
  // soak tests pin via this field.
  std::size_t peak_bytes =
      config_.ring_blocks * sc.receivers.size() * kBlockMpx * sizeof(dsp::cfloat);
  peak_bytes += kBlockRf * sizeof(dsp::cfloat);  // per-receiver RF compose
  peak_bytes += kBlockMpx * sizeof(float);       // tag baseband staging
  for (std::size_t s = 0; s < num_stations; ++s) {
    if (!station_needed[s]) continue;
    peak_bytes += kBlockRf * sizeof(dsp::cfloat);  // st_rf[s]
    if (loop_mode) {
      peak_bytes += stations[s].render->mpx.size() * sizeof(float);
      peak_bytes += stations[s].render->iq.size() * sizeof(dsp::cfloat);
      peak_bytes += kBlockMpx * sizeof(dsp::cfloat);  // re-modulated block
    }
  }
  if (loop_mode) peak_bytes += kBlockMpx * sizeof(float);  // MPX cycle scratch
  // A tag's reflected-IQ scratch lives only across its active blocks (the
  // producer frees it once the burst window passes), so the ledger charges
  // the worst-case number of *simultaneously* active tags, not the tag
  // count: a long run of staggered bursts buffers like a single burst.
  std::vector<std::pair<std::size_t, int>> active_edges;
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    if (!tag_needed[t] || tags[t].active_end <= tags[t].active_begin) continue;
    active_edges.emplace_back(tags[t].active_begin / kBlockMpx, +1);
    active_edges.emplace_back(
        (tags[t].active_end + kBlockMpx - 1) / kBlockMpx, -1);
  }
  std::sort(active_edges.begin(), active_edges.end());
  std::ptrdiff_t concurrent = 0;
  std::ptrdiff_t peak_concurrent = 0;
  for (const auto& [block, edge] : active_edges) {
    concurrent += edge;
    peak_concurrent = std::max(peak_concurrent, concurrent);
  }
  peak_bytes += static_cast<std::size_t>(peak_concurrent) * kBlockRf *
                sizeof(dsp::cfloat);
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    peak_bytes += tags[t].wave.size() * sizeof(float);
  }
  peak_bytes += decode_buffer_bytes;
  dsp::cvec scene_scratch;
  if (!loop_mode && padded != content_len) {
    scene_scratch.resize(kBlockMpx);
    peak_bytes += kBlockMpx * sizeof(dsp::cfloat);
  }
  result.scene.scene_scratch_bytes =
      scene_scratch.size() * sizeof(dsp::cfloat);
  result.scene.streaming_peak_buffer_bytes = peak_bytes;

  // ---- The pipeline. -------------------------------------------------------
  const std::size_t num_consumers = config_.consumer_threads;
  dsp::RingBuffer<StreamBlock> ring(config_.ring_blocks, num_consumers);
  StreamContext ctx;
  ctx.sc = &sc;
  ctx.plan = &plan;
  ctx.on_link = &config_.on_link;

  std::vector<std::exception_ptr> errors(num_consumers + 1);
  std::vector<std::thread> workers;
  workers.reserve(num_consumers);
  for (std::size_t k = 0; k < num_consumers; ++k) {
    workers.emplace_back([&, k] {
      try {
        while (StreamBlock* blk = ring.consumer_acquire(k)) {
          const double now =
              static_cast<double>(blk->index + 1) * kBlockSeconds;
          for (std::size_t r = k; r < streams.size(); r += num_consumers) {
            consume_block(ctx, *streams[r], blk->iq[r], now);
          }
          ring.consumer_release(k);
        }
        if (!ring.stopped()) {
          const double end = static_cast<double>(num_blocks) * kBlockSeconds;
          for (std::size_t r = k; r < streams.size(); r += num_consumers) {
            drain_receiver(ctx, *streams[r], end);
          }
        }
      } catch (...) {
        errors[k + 1] = std::current_exception();
        ring.stop();
      }
    });
  }

  // Producer: the calling thread renders the scene block by block into the
  // ring — the batch engine's block loop, feeding slots instead of growing
  // per-receiver captures.
  try {
    std::vector<dsp::cvec> st_rf(num_stations);
    std::vector<dsp::cvec> reflected(sc.tags.size());
    std::vector<char> tag_active(sc.tags.size(), 0);
    dsp::rvec tag_bb(kBlockMpx);
    dsp::rvec loop_mpx;
    if (loop_mode) loop_mpx.resize(kBlockMpx);
    dsp::cvec rf;
    const auto t0 = std::chrono::steady_clock::now();  // fmbs-lint: allow(wall-clock-seed) real_time pacing only delays block production, never feeds a sample or seed
    std::size_t block_index = 0;
    for (std::size_t start = 0; start < padded;
         start += kBlockMpx, ++block_index) {
      if (config_.real_time) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(  // fmbs-lint: allow(wall-clock-seed) pacing, not state
                     std::chrono::duration<double>(
                         static_cast<double>(block_index) * kBlockSeconds)));
      }
      const std::size_t seg =
          num_segments == 1
              ? 0
              : std::min(num_segments - 1, block_index / blocks_per_segment);

      for (std::size_t s = 0; s < num_stations; ++s) {
        if (!station_needed[s]) continue;
        StationSource& src = stations[s];
        std::span<const dsp::cfloat> st_block;
        if (loop_mode) {
          // Cycle the horizon's MPX through the persistent modulator: the
          // carrier phase rides straight across the content seam.
          const dsp::rvec& mpx = src.render->mpx;
          std::size_t pos = src.loop_pos;
          for (std::size_t i = 0; i < kBlockMpx; ++i) {
            loop_mpx[i] = mpx[pos];
            if (++pos == mpx.size()) pos = 0;
          }
          src.loop_pos = pos;
          src.loop_iq = src.loop_mod->process(loop_mpx);
          st_block = std::span<const dsp::cfloat>(src.loop_iq);
        } else if (start + kBlockMpx <= content_len) {
          st_block = std::span<const dsp::cfloat>(
              src.render->iq.data() + start, kBlockMpx);
        } else {
          // Partial final block: stage the remaining render samples and hold
          // the final one through the pad (batch engine semantics).
          const std::size_t have = content_len - start;
          std::copy(src.render->iq.begin() + static_cast<std::ptrdiff_t>(start),
                    src.render->iq.end(), scene_scratch.begin());
          std::fill(scene_scratch.begin() + static_cast<std::ptrdiff_t>(have),
                    scene_scratch.end(), src.render->iq.back());
          st_block = std::span<const dsp::cfloat>(scene_scratch);
        }
        st_rf[s] = src.up->process(st_block);
        if (src.mixer) src.mixer->process_inplace(st_rf[s]);
      }

      for (std::size_t t = 0; t < tags.size(); ++t) {
        StreamTag& st = tags[t];
        if (!tag_needed[t]) continue;
        tag_active[t] =
            start < st.active_end && start + kBlockMpx > st.active_begin;
        if (!tag_active[t]) {
          // Past its burst window the tag contributes nothing again: return
          // its block-sized reflected scratch (the ledger charges only
          // concurrently active tags on the strength of this).
          if (!reflected[t].empty()) dsp::cvec().swap(reflected[t]);
          continue;
        }
        // Stage this block's slice of the tag baseband: the compact burst
        // waveform (or the custom baseband) inside its range, zeros outside
        // — bit-identical to the batch engine's padded full-run buffer.
        std::fill(tag_bb.begin(), tag_bb.end(), 0.0F);
        if (st.custom != nullptr) {
          if (start < st.custom->size()) {
            const std::size_t n =
                std::min(kBlockMpx, st.custom->size() - start);
            std::copy(st.custom->begin() + static_cast<std::ptrdiff_t>(start),
                      st.custom->begin() + static_cast<std::ptrdiff_t>(start + n),
                      tag_bb.begin());
          }
        } else if (st.wave_len > 0) {
          const std::size_t lo = std::max(start, st.wave_begin);
          const std::size_t hi =
              std::min(start + kBlockMpx, st.wave_begin + st.wave_len);
          if (lo < hi) {
            std::copy(
                st.wave.begin() + static_cast<std::ptrdiff_t>(lo - st.wave_begin),
                st.wave.begin() + static_cast<std::ptrdiff_t>(hi - st.wave_begin),
                tag_bb.begin() + static_cast<std::ptrdiff_t>(lo - start));
          }
        }
        const dsp::cvec& incident =
            st_rf[static_cast<std::size_t>(sel[seg][t])];
        dsp::cvec& b = reflected[t];
        b = st.subcarrier->process(tag_bb);
        for (std::size_t i = 0; i < incident.size(); ++i) b[i] *= incident[i];
        if (sc.tags[t].fading) {
          if (num_segments > 1 && st.fading_segment != seg) {
            st.fading = std::make_unique<channel::FadingProcess>(
                *sc.tags[t].fading, fm::kRfRate,
                derive_seed(st.fading_seed, seg));
            st.fading_segment = seg;
          }
          st.fading->apply(b);
        }
        const std::size_t lo =
            st.active_begin > start ? (st.active_begin - start) * up_factor : 0;
        const std::size_t hi = st.active_end < start + kBlockMpx
                                   ? (st.active_end - start) * up_factor
                                   : b.size();
        std::fill(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(lo),
                  dsp::cfloat(0.0F, 0.0F));
        std::fill(b.begin() + static_cast<std::ptrdiff_t>(hi), b.end(),
                  dsp::cfloat(0.0F, 0.0F));
      }

      StreamBlock* slot = ring.producer_acquire();
      if (slot == nullptr) break;  // a consumer failed and stopped the ring
      slot->index = block_index;
      slot->iq.resize(sc.receivers.size());
      rf.resize(st_rf[0].size());
      for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
        channel::scale_into(rf, st_rf[0], plan.g_direct[seg][r][0]);
        for (std::size_t s = 1; s < num_stations; ++s) {
          if (!station_needed[s]) continue;
          channel::accumulate_scaled(rf, st_rf[s], plan.g_direct[seg][r][s]);
        }
        for (std::size_t t = 0; t < tags.size(); ++t) {
          if (!tag_active[t]) continue;
          channel::accumulate_scaled(rf, reflected[t], plan.g_back[seg][r][t]);
        }
        slot->iq[r] = tuners[r].process(rf);
        noise[r].add_to(slot->iq[r]);
      }
      ring.producer_publish();
    }
    ring.finish();
  } catch (...) {
    errors[0] = std::current_exception();
    ring.stop();
  }

  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // ---- Assembly: batch-identical report structure. -------------------------
  result.receivers.resize(sc.receivers.size());
  std::vector<TagLinkReport> best(sc.tags.size());
  std::vector<char> heard(sc.tags.size(), 0);
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    ReceiverStream& rs = *streams[r];
    ScenarioReceiverResult& rr = result.receivers[r];
    for (const FskCollector& c : rs.fsk) {
      if (!heard[c.tag] || c.link.burst.ber.ber < best[c.tag].burst.ber.ber) {
        best[c.tag] = c.link;
        heard[c.tag] = 1;
      }
      rr.links.push_back(c.link);
    }
    for (const RdsCollector& c : rs.rds) {
      if (!heard[c.tag] || c.link.burst.ber.ber < best[c.tag].burst.ber.ber) {
        best[c.tag] = c.link;
        heard[c.tag] = 1;
      }
      rr.links.push_back(c.link);
    }
    if (rs.station_rds) rr.station_rds = rs.station_rds_report;
  }
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    if (!heard[t]) continue;
    result.aggregate_goodput_bps += best[t].goodput_bps;
    result.best_per_tag.push_back(best[t]);
  }
  return result;
}

}  // namespace fmbs::core
