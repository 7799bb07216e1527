#include "core/scene_render.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "channel/superpose.h"
#include "tag/baseband.h"

namespace fmbs::core {

TagLinkReport fsk_link_report(const Scenario& sc, const ScenarioPlan& plan,
                              std::size_t receiver, const RoutedFsk& route,
                              const rx::BurstReport& report) {
  TagLinkReport link;
  link.tag_index = route.tag;
  link.receiver_index = receiver;
  link.burst = report;
  link.backscatter_rx_power_dbm =
      plan.rx_power_dbm[route.seg][receiver][route.tag];
  link.goodput_bps =
      static_cast<double>(link.burst.bits_delivered) / sc.duration.raw();
  return link;
}

TagLinkReport rds_link_report(const Scenario& sc, const ScenarioPlan& plan,
                              std::size_t receiver, const RoutedRds& route,
                              const rx::RdsLinkReport& report) {
  TagLinkReport link;
  link.tag_index = route.tag;
  link.receiver_index = receiver;
  link.rds = report;
  link.burst.ber.ber = report.bler;
  link.burst.bits_delivered = report.blocks_ok * 16;
  link.backscatter_rx_power_dbm =
      plan.rx_power_dbm[route.seg][receiver][route.tag];
  link.goodput_bps =
      static_cast<double>(link.burst.bits_delivered) / sc.duration.raw();
  return link;
}

void assemble_best_links(ScenarioResult& result, std::size_t num_tags) {
  std::vector<TagLinkReport> best(num_tags);
  std::vector<char> heard(num_tags, 0);
  for (const ScenarioReceiverResult& rr : result.receivers) {
    for (const TagLinkReport& link : rr.links) {
      const std::size_t t = link.tag_index;
      if (!heard[t] || link.burst.ber.ber < best[t].burst.ber.ber) {
        best[t] = link;
        heard[t] = 1;
      }
    }
  }
  for (std::size_t t = 0; t < num_tags; ++t) {
    if (!heard[t]) continue;
    result.aggregate_goodput_bps += best[t].goodput_bps;
    result.best_per_tag.push_back(best[t]);
  }
}

SceneRenderer::SceneRenderer(const Scenario& sc, const ScenarioPlan& plan,
                             SceneRendering mode,
                             std::optional<units::Seconds> station_horizon)
    : sc_(sc),
      plan_(plan),
      pruning_(resolve_scene_pruning(sc, plan, mode)),
      loop_mode_(station_horizon &&
                 plan.total_seconds > station_horizon->raw()),
      blocks_per_segment_(
          plan.segment_seconds > 0.0
              ? static_cast<std::size_t>(
                    std::llround(plan.segment_seconds / kBlockSeconds))
              : 0),
      scope_(fm::StationCache::instance()) {
  const std::size_t num_stations = plan.num_stations;
  auto station_config = [&](std::size_t s) -> const fm::StationConfig& {
    return plan.multi ? sc.stations[s].config : sc.station;
  };

  // ---- Stations: renders and front ends. ----------------------------------
  // Renders stay pinned for the renderer's lifetime: every block re-reads
  // them, so mid-run eviction would be a use-after-free, not just a cache
  // miss. Each needed station renders ONCE and is reused across every
  // timeline segment (segmentation changes geometry, never the broadcast),
  // and its upsampler and mixer are never reset at segment boundaries.
  // Station 0, the scene center, is always needed.
  const units::Seconds render_seconds =
      loop_mode_ ? *station_horizon : units::Seconds{plan.total_seconds};
  const auto up_factor = static_cast<std::size_t>(fm::kMpxToRfFactor);
  const std::vector<float> up_taps = dsp::fir_design_lowpass(
      (16 * up_factor) | 1U, 0.45 / static_cast<double>(up_factor));
  stations_.resize(num_stations);
  for (std::size_t s = 0; s < num_stations; ++s) {
    if (!pruning_.station_needed[s]) continue;  // never enters the scene
    StationSource& src = stations_[s];
    src.render = scope_.render(station_config(s), render_seconds);
    if (src.render->mpx.size() != stations_[0].render->mpx.size()) {
      throw std::logic_error("SceneRenderer: station render length mismatch");
    }
    src.mod.emplace(station_config(s).deviation, fm::kMpxRate);
    src.up.emplace(up_taps, up_factor);
    src.rf.resize(kSubBlockRf);
    if (plan.station_offset[s] != 0.0) {
      src.mixer.emplace(plan.station_offset[s], fm::kRfRate);
    }
  }
  content_len_ = stations_[0].render->mpx.size();
  const std::size_t run_len =
      loop_mode_
          ? static_cast<std::size_t>(plan.total_seconds * fm::kMpxRate + 0.5)
          : content_len_;
  num_blocks_ = (run_len + kBlockMpx - 1) / kBlockMpx;
  const std::size_t padded = padded_samples();
  iq_.resize(kSubBlockMpx);

  // ---- Per-tag state and compact burst waveforms. --------------------------
  tag_bb_.resize(kSubBlockMpx);
  reflected_.resize(kSubBlockRf);
  tags_.resize(sc.tags.size());
  std::vector<std::vector<std::uint8_t>> bits(sc.tags.size());
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    const ScenarioTag& t = sc.tags[i];
    const ScenarioTagPlan& tp = plan.tags[i];
    TagSource& st = tags_[i];
    st.subcarrier = std::make_unique<tag::SubcarrierGenerator>(t.subcarrier);
    // A single-segment run streams one fading process from the tag's seed;
    // segmented runs re-derive the stream per segment in render_block, so
    // segment geometry changes actually decorrelate the fade instead of
    // riding one coherent realization across the whole walk.
    if (t.fading && plan.num_segments == 1) {
      st.fading = std::make_unique<channel::FadingProcess>(
          *t.fading, fm::kRfRate, tp.fading_seed);
    }
    if (tp.custom_baseband) {
      // Always on; the block stager zero-fills past the baseband's end.
      st.custom = &t.custom_baseband;
      st.active_end = padded;
      continue;
    }
    if (!tp.rds) bits[i] = tag::random_bits(t.num_bits, tp.content_seed);
    // A burst the MAC kept silent, or one no receiver can hear, never
    // switches on: its waveform is never composed.
    if (!tp.transmitted || !pruning_.tag_needed[i]) continue;
    if (tp.rds) {
      // Generated directly at the MPX rate (the biphase/BPSK waveform needs
      // no audio-rate stage).
      const auto nsamp =
          static_cast<std::size_t>(std::ceil(tp.burst_seconds * fm::kMpxRate));
      st.wave = tag::compose_rds_baseband(tp.rds_bits, nsamp, t.rds_level);
      st.wave_begin = static_cast<std::size_t>(tp.start_seconds * fm::kMpxRate);
    } else {
      // Composing silence(start) ++ fsk through the overlay interpolator
      // maps the silent prefix to an exact zero prefix (zero filter state),
      // so composing the payload alone and offsetting it reproduces the
      // padded baseband bit for bit at O(burst) memory.
      const auto lead =
          static_cast<std::size_t>(tp.start_seconds * fm::kAudioRate + 0.5);
      st.wave = tag::compose_overlay_baseband(
          tag::modulate_fsk(bits[i], t.rate, fm::kAudioRate), t.level,
          fm::kMpxRate);
      st.wave_begin =
          lead * static_cast<std::size_t>(fm::kMpxRate / fm::kAudioRate);
    }
    st.active_begin = static_cast<std::size_t>(
        std::max(0.0, tp.start_seconds - kBurstGuardSeconds) * fm::kMpxRate);
    st.active_end = std::min(
        padded, static_cast<std::size_t>((tp.start_seconds + tp.burst_seconds +
                                          kBurstGuardSeconds) *
                                         fm::kMpxRate));
  }

  // ---- Per-receiver front ends and routing. --------------------------------
  tuners_.reserve(sc.receivers.size());
  routes_.resize(sc.receivers.size());
  rf_.assign(sc.receivers.size(), dsp::cvec(kSubBlockRf));
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const ScenarioReceiver& rx = sc.receivers[r];
    rx::TunerConfig tuner_cfg;
    tuner_cfg.offset_hz = rx.tune_offset.raw();
    tuners_.emplace_back(tuner_cfg);

    // A burst lives on the channel of the station its tag reflected while on
    // the air: route by the segment holding the burst midpoint.
    ReceiverRoute& route = routes_[r];
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      const ScenarioTagPlan& tp = plan.tags[t];
      if (tp.custom_baseband || !tp.transmitted) continue;  // no BER to score
      const std::size_t seg =
          plan.segment_of_time(tp.start_seconds + 0.5 * tp.burst_seconds);
      const int station = plan.selected_station[seg][t];
      const units::Hertz station_offset{
          plan.station_offset[static_cast<std::size_t>(station)]};
      if (!tag_audible_at(sc.tags[t], station_offset, rx.tune_offset)) {
        continue;
      }
      if (tp.rds) {
        route.rds.push_back(
            RoutedRds{t, seg, tp.start_seconds,
                      tp.burst_seconds + kRdsDecodeSlackSeconds});
        continue;
      }
      rx::BurstSpec burst;
      burst.rate = sc.tags[t].rate;
      burst.bits = bits[t];
      burst.start_seconds = tp.start_seconds;
      burst.packet_bits = sc.tags[t].packet_bits;
      route.fsk.push_back(RoutedFsk{t, seg, std::move(burst)});
    }
    // The tuned channel's own broadcast RDS.
    for (std::size_t s = 0; s < num_stations; ++s) {
      if (std::abs(plan.station_offset[s] - rx.tune_offset.raw()) < 1.0) {
        route.station_rds = station_config(s).rds_level > 0.0;
        break;
      }
    }
  }
}

void SceneRenderer::report(ScenarioResult& result) const {
  result.station_renders.resize(stations_.size());
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    result.station_renders[s] = stations_[s].render;
  }
  result.station = stations_[0].render;
  result.selected_station = plan_.selected_station[0];
  result.segments.resize(plan_.num_segments);
  for (std::size_t k = 0; k < plan_.num_segments; ++k) {
    const auto [s0, s1] = plan_.segment_bounds(k);
    result.segments[k].start_seconds = s0;
    result.segments[k].end_seconds = s1;
    result.segments[k].selected_station = plan_.selected_station[k];
  }
  result.mac.resize(sc_.tags.size());
  for (std::size_t i = 0; i < sc_.tags.size(); ++i) {
    const ScenarioTagPlan& tp = plan_.tags[i];
    if (tp.custom_baseband) continue;  // always on; default MAC report
    result.mac[i].transmitted = tp.transmitted;
    result.mac[i].deferrals = tp.deferrals;
    result.mac[i].start_seconds = tp.start_seconds;
    result.mac[i].last_sensed_dbm = tp.last_sensed_dbm;
  }
  result.scene.stations_total = plan_.num_stations;
  result.scene.tags_total = sc_.tags.size();
  for (const char needed : pruning_.station_needed) {
    result.scene.stations_rendered += needed ? 1U : 0U;
  }
  for (const char needed : pruning_.tag_needed) {
    result.scene.tags_rendered += needed ? 1U : 0U;
  }
}

std::size_t SceneRenderer::buffer_bytes() const {
  // Each receiver's superposition and the one tag reflection being added.
  std::size_t bytes = (rf_.size() + 1) * kSubBlockRf * sizeof(dsp::cfloat);
  bytes += kSubBlockMpx * sizeof(dsp::cfloat);  // station IQ staging
  bytes += kSubBlockMpx * sizeof(float);        // tag baseband staging
  for (const StationSource& src : stations_) {
    if (!src.render) continue;
    bytes += kSubBlockRf * sizeof(dsp::cfloat);  // src.rf
    if (loop_mode_) bytes += src.render->mpx.size() * sizeof(float);
  }
  for (const TagSource& st : tags_) bytes += st.wave.size() * sizeof(float);
  return bytes;
}

void SceneRenderer::render_stations(std::size_t at) {
  for (StationSource& src : stations_) {
    if (!src.render) continue;
    // Modulate the sub-block's MPX straight out of the render. Loop mode
    // cycles the horizon, so the carrier phase rides straight across the
    // seam; an exact render runs out inside the last block.
    const std::span<const float> mpx = src.render->mpx;
    std::size_t pos = loop_mode_ ? at % content_len_ : at;
    std::size_t done = 0;
    while (done < kSubBlockMpx && pos < content_len_) {
      const std::size_t n = std::min(kSubBlockMpx - done, content_len_ - pos);
      src.mod->process_into(mpx.subspan(pos, n),
                            std::span<dsp::cfloat>(iq_).subspan(done, n));
      done += n;
      pos += n;
      if (loop_mode_ && pos == content_len_) pos = 0;
    }
    // Past the render's end the carrier holds its last phase, so the
    // discriminator sees silence, not a click.
    if (done > 0) src.held = iq_[done - 1];
    std::fill(iq_.begin() + static_cast<std::ptrdiff_t>(done), iq_.end(),
              src.held);
    src.up->process_into(iq_, src.rf);
    if (src.mixer) src.mixer->process_inplace(src.rf);
  }
}

void SceneRenderer::compose_reflection(std::size_t t, std::size_t at,
                                       std::size_t seg) {
  TagSource& st = tags_[t];
  // Stage this sub-block's slice of the baseband: the compact burst
  // waveform (or the custom baseband) inside its range, zeros outside.
  std::fill(tag_bb_.begin(), tag_bb_.end(), 0.0F);
  const dsp::rvec& wave = st.custom != nullptr ? *st.custom : st.wave;
  const std::size_t lo = std::max(at, st.wave_begin);
  const std::size_t hi =
      std::min(at + kSubBlockMpx, st.wave_begin + wave.size());
  if (lo < hi) {
    std::copy(wave.begin() + static_cast<std::ptrdiff_t>(lo - st.wave_begin),
              wave.begin() + static_cast<std::ptrdiff_t>(hi - st.wave_begin),
              tag_bb_.begin() + static_cast<std::ptrdiff_t>(lo - at));
  }
  // The tag reflects its selected station in this segment: a handoff moves
  // the reflection to the new station's carrier.
  const dsp::cvec& incident =
      stations_[static_cast<std::size_t>(plan_.selected_station[seg][t])].rf;
  dsp::cvec& b = reflected_;
  st.subcarrier->process_into(tag_bb_, b);
  for (std::size_t i = 0; i < incident.size(); ++i) b[i] *= incident[i];
  if (st.fading) st.fading->apply(b);
  // The switch is off outside the burst window: no reflection at all.
  const auto up_factor = static_cast<std::size_t>(fm::kMpxToRfFactor);
  const auto rf_offset = [&](std::size_t edge) {
    return (std::clamp(edge, at, at + kSubBlockMpx) - at) * up_factor;
  };
  std::fill(b.begin(),
            b.begin() + static_cast<std::ptrdiff_t>(rf_offset(st.active_begin)),
            dsp::cfloat(0.0F, 0.0F));
  std::fill(b.begin() + static_cast<std::ptrdiff_t>(rf_offset(st.active_end)),
            b.end(), dsp::cfloat(0.0F, 0.0F));
}

void SceneRenderer::render_block(std::size_t block_index,
                                 std::vector<dsp::cvec>& out) {
  const std::size_t start = block_index * kBlockMpx;
  // The segment owning this block (blocks past the nominal end — padding —
  // stay on the last segment's geometry).
  const std::size_t seg =
      plan_.num_segments == 1
          ? 0
          : std::min(plan_.num_segments - 1, block_index / blocks_per_segment_);

  // ---- Tags switched on during this block. ---------------------------------
  // A tag's subcarrier and fading run over every sub-block of a block it is
  // active in, exactly as over the whole block.
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    TagSource& st = tags_[t];
    st.active = pruning_.tag_needed[t] && start < st.active_end &&
                start + kBlockMpx > st.active_begin;
    if (st.active && sc_.tags[t].fading && plan_.num_segments > 1 &&
        st.fading_segment != seg) {
      st.fading = std::make_unique<channel::FadingProcess>(
          *sc_.tags[t].fading, fm::kRfRate,
          derive_seed(plan_.tags[t].fading_seed, seg));
      st.fading_segment = seg;
    }
  }

  // ---- Sub-blocks: stations, reflections, superposition, tuner. -----------
  const std::size_t num_rx = sc_.receivers.size();
  out.resize(num_rx);
  for (dsp::cvec& o : out) o.resize(kBlockMpx);
  for (std::size_t at = start; at < start + kBlockMpx; at += kSubBlockMpx) {
    render_stations(at);
    for (std::size_t r = 0; r < num_rx; ++r) {
      const std::vector<float>& g_direct = plan_.g_direct[seg][r];
      channel::scale_into(rf_[r], stations_[0].rf, g_direct[0]);
      for (std::size_t s = 1; s < stations_.size(); ++s) {
        if (!stations_[s].render) continue;
        channel::accumulate_scaled(rf_[r], stations_[s].rf, g_direct[s]);
      }
    }
    for (std::size_t t = 0; t < tags_.size(); ++t) {
      if (!tags_[t].active) continue;
      compose_reflection(t, at, seg);
      for (std::size_t r = 0; r < num_rx; ++r) {
        channel::accumulate_scaled(rf_[r], reflected_, plan_.g_back[seg][r][t]);
      }
    }
    for (std::size_t r = 0; r < num_rx; ++r) {
      tuners_[r].process_into(
          rf_[r], std::span<dsp::cfloat>(out[r]).subspan(at - start,
                                                         kSubBlockMpx));
    }
  }
}

}  // namespace fmbs::core
