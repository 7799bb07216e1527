// city_stream: the Boston streaming scene through core::StreamingEngine in
// loop mode (run past the 2 s station horizon), one consumer thread, as a
// closed loop of whole-scene runs on a warm station cache.
//
// The traced run cannot split the monolithic StreamingEngine::run into
// stages, so it replays the engine's block pipeline from the same public
// classes, constructed the same way (same plan, station renders, upsample
// taps, noise seeds, tuner config and decoder windows), timing every call.
// The replay covers the features the city scene uses (multi-station loop
// mode, FSK tags, one timeline segment, no fading) and refuses others.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/awgn.h"
#include "channel/superpose.h"
#include "common.h"
#include "core/streaming.h"
#include "dsp/fir.h"
#include "dsp/nco.h"
#include "fm/demodulator.h"
#include "fm/modulator.h"
#include "fm/station_cache.h"
#include "fm/stereo_stream.h"
#include "rx/device_stream.h"
#include "rx/fsk_stream.h"
#include "rx/rds_stream.h"
#include "rx/tuner.h"
#include "scenes.h"
#include "tag/baseband.h"
#include "tag/fsk.h"
#include "tag/subcarrier.h"

namespace perfbench {

namespace {

using namespace fmbs;

// The engine's block geometry (src/core/streaming.cpp).
constexpr std::size_t kBlockMpx = 24000;  // 0.1 s at 240 kHz
constexpr auto kUpFactor = static_cast<std::size_t>(fm::kMpxToRfFactor);

/// Stream length per point: past the 2 s station horizon, so loop mode.
double stream_seconds(const Options& opt) { return opt.smoke ? 2.2 : 3.0; }

/// One decoded link (or station RDS verdict) in comparable form.
struct Decoded {
  std::size_t receiver = 0;
  std::size_t tag = 0;
  double ber = 0.0;
  std::size_t packets = 0;
  std::size_t packets_ok = 0;
  std::size_t bits_delivered = 0;
  std::string station_ps;  ///< set on station-RDS entries only
  bool operator==(const Decoded&) const = default;
};

std::vector<Decoded> decoded_of(const core::ScenarioResult& result) {
  std::vector<Decoded> out;
  for (std::size_t r = 0; r < result.receivers.size(); ++r) {
    for (const core::TagLinkReport& l : result.receivers[r].links) {
      out.push_back({r, l.tag_index, l.burst.ber.ber, l.burst.packets,
                     l.burst.packets_ok, l.burst.bits_delivered, ""});
    }
    if (result.receivers[r].station_rds) {
      out.push_back({r, 0, result.receivers[r].station_rds->bler, 0,
                     result.receivers[r].station_rds->blocks_ok, 0,
                     result.receivers[r].station_rds->ps_name});
    }
  }
  return out;
}

std::string digest_of(const std::vector<Decoded>& decoded) {
  Digest d;
  for (const Decoded& x : decoded) {
    d.add(std::uint64_t{x.receiver});
    d.add(std::uint64_t{x.tag});
    d.add(x.ber);
    d.add(std::uint64_t{x.packets_ok});
    d.add(std::uint64_t{x.bits_delivered});
    d.add(x.station_ps);
  }
  return d.hex();
}

/// Physics-level checks: both posters decoded clean at the gateway, the car
/// shows the scene-center station's PS name.
void check_city(Report& report, const core::Scenario& sc,
                const core::ScenarioResult& result) {
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    bool clean = false;
    std::string got = "not heard";
    for (const core::TagLinkReport& l : result.best_per_tag) {
      if (l.tag_index == t) {
        clean = l.burst.packets > 0 && l.burst.packets_ok == l.burst.packets &&
                l.burst.ber.ber == 0.0;
        got = "BER " + std::to_string(l.burst.ber.ber) + ", " +
              std::to_string(l.burst.packets_ok) + "/" +
              std::to_string(l.burst.packets) + " packets";
      }
    }
    report.check(clean, "city_stream: " + sc.tags[t].name +
                            " not decoded clean (" + got + ")");
  }
  const auto& car_rds = result.receivers.at(1).station_rds;
  report.check(car_rds && car_rds->ps_name == sc.stations[0].config.rds_ps_name,
               "city_stream: car does not show station PS '" +
                   sc.stations[0].config.rds_ps_name + "' (got '" +
                   (car_rds ? car_rds->ps_name : std::string("<none>")) + "')");
}

/// Scene construction, plan resolution and station-cache warm-up from a
/// cleared cache. Returns the seconds spent rendering stations.
double set_up(const Options& opt, core::Scenario& sc, double& plan_seconds) {
  fm::StationCache::instance().clear();
  sc = city_scene(opt.seed, stream_seconds(opt));
  const double t0 = wall_now();
  const core::ScenarioPlan plan = core::resolve_scenario_plan(sc);
  const core::ScenePruning pruning =
      core::resolve_scene_pruning(sc, plan, core::SceneRendering::kSparse);
  plan_seconds = wall_now() - t0;
  const units::Seconds horizon = core::StreamingConfig{}.station_horizon;
  const double r0 = wall_now();
  for (std::size_t s = 0; s < sc.stations.size(); ++s) {
    if (pruning.station_needed[s]) {
      (void)fm::StationCache::instance().render(sc.stations[s].config, horizon);
    }
  }
  return wall_now() - r0;
}

// ---- The traced replay ------------------------------------------------------

struct ReplayStation {
  std::shared_ptr<const fm::StationSignal> render;
  std::optional<dsp::FirInterpolator<dsp::cfloat>> up;
  std::optional<dsp::Mixer> mixer;
  std::optional<fm::FmModulator> loop_mod;
  std::size_t loop_pos = 0;
  dsp::cvec loop_iq;
};

struct ReplayTag {
  dsp::rvec wave;
  std::size_t wave_begin = 0;
  std::size_t wave_len = 0;
  std::size_t active_begin = 0;
  std::size_t active_end = 0;
  std::vector<std::uint8_t> bits;
  double burst_start_seconds = 0.0;
  double burst_seconds = 0.0;
  bool transmitted = true;
  std::unique_ptr<tag::SubcarrierGenerator> subcarrier;
};

struct ReplayCollector {
  std::size_t tag = 0;
  rx::StreamingBurstDemodulator demod;
  std::optional<rx::BurstReport> report;
};

struct ReplayReceiver {
  fm::QuadratureDemodulator demod{units::Hertz{fm::kMaxDeviationHz},
                                  fm::kMpxRate};
  std::optional<fm::StereoStreamDecoder> stereo;
  std::optional<rx::PhoneChainStream> phone;
  std::optional<rx::CabinAcousticsStream> cabin;
  std::vector<ReplayCollector> fsk;
  std::optional<rx::RdsStreamDecoder> station_rds;
  std::optional<rx::RdsLinkReport> station_rds_report;
  dsp::rvec left, right, mono;
};

void replay_feed_audio(Ledger& L, ReplayReceiver& rs) {
  if (rs.left.empty()) return;
  L.time("rx.device", [&] {
    rs.mono.resize(rs.left.size());
    for (std::size_t i = 0; i < rs.mono.size(); ++i) {
      rs.mono[i] = 0.5F * (rs.left[i] + rs.right[i]);
    }
    if (rs.phone) rs.phone->process_inplace(rs.mono);
    if (rs.cabin) rs.cabin->process_inplace(rs.mono);
  });
  for (ReplayCollector& c : rs.fsk) {
    if (c.report) continue;
    L.time("rx.fsk", [&] {
      c.demod.push(rs.mono);
      if (c.demod.window_complete()) c.report = c.demod.finish();
    });
  }
}

void replay_consume(Ledger& L, ReplayReceiver& rs,
                    std::span<const dsp::cfloat> iq) {
  const dsp::rvec mpx = L.time("fm.demod", [&] { return rs.demod.process(iq); });
  if (rs.station_rds && !rs.station_rds_report) {
    L.time("rx.rds", [&] {
      rs.station_rds->push(mpx);
      if (rs.station_rds->window_complete()) {
        rs.station_rds_report = rs.station_rds->finish();
      }
    });
  }
  rs.left.clear();
  rs.right.clear();
  L.time("fm.stereo", [&] { rs.stereo->push(mpx, rs.left, rs.right); });
  replay_feed_audio(L, rs);
}

/// Replays StreamingEngine::run's pipeline for `sc` on this thread, charging
/// every call to its layer. Returns the decoded links in engine order.
std::vector<Decoded> replay(const core::Scenario& sc, Ledger& L) {
  const core::StreamingConfig config{};
  const core::ScenarioPlan plan =
      L.time("core.plan", [&] { return core::resolve_scenario_plan(sc); });
  const core::ScenePruning pruning = L.time("core.plan", [&] {
    return core::resolve_scene_pruning(sc, plan, config.scene_rendering);
  });
  if (!plan.multi || plan.num_segments != 1 ||
      plan.total_seconds <= config.station_horizon.raw()) {
    throw std::logic_error("replay: scene outside the replayed feature set");
  }
  const std::size_t num_stations = plan.num_stations;

  fm::StationCache::SceneScope scope(fm::StationCache::instance());
  std::vector<ReplayStation> stations(num_stations);
  const std::vector<float> up_taps = L.time("dsp.upmix", [&] {
    return dsp::fir_design_lowpass((16 * kUpFactor) | 1U,
                                   0.45 / static_cast<double>(kUpFactor));
  });
  for (std::size_t s = 0; s < num_stations; ++s) {
    if (!pruning.station_needed[s]) continue;
    ReplayStation& src = stations[s];
    src.render = L.time("fm.station", [&] {
      return scope.render(sc.stations[s].config, config.station_horizon);
    });
    L.time("dsp.upmix", [&] {
      src.up.emplace(up_taps, kUpFactor);
      if (plan.station_offset[s] != 0.0) {
        src.mixer.emplace(plan.station_offset[s], fm::kRfRate);
      }
    });
    L.time("fm.station_loop_mod", [&] {
      src.loop_mod.emplace(sc.stations[s].config.deviation, fm::kMpxRate);
    });
  }
  const auto run_len =
      static_cast<std::size_t>(plan.total_seconds * fm::kMpxRate + 0.5);
  const std::size_t padded = (run_len + kBlockMpx - 1) / kBlockMpx * kBlockMpx;

  std::vector<ReplayTag> tags(sc.tags.size());
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    const core::ScenarioTag& t = sc.tags[i];
    const core::ScenarioTagPlan& tp = plan.tags[i];
    if (tp.custom_baseband || tp.rds || t.fading) {
      throw std::logic_error("replay: tag outside the replayed feature set");
    }
    ReplayTag& st = tags[i];
    L.time("tag.compose", [&] {
      st.subcarrier = std::make_unique<tag::SubcarrierGenerator>(t.subcarrier);
      st.burst_seconds = tp.burst_seconds;
      st.bits = tag::random_bits(t.num_bits, tp.content_seed);
      st.transmitted = tp.transmitted;
      st.burst_start_seconds = tp.start_seconds;
      if (!tp.transmitted || !pruning.tag_needed[i]) return;
      const auto lead = static_cast<std::size_t>(
          st.burst_start_seconds * fm::kAudioRate + 0.5);
      st.wave = tag::compose_overlay_baseband(
          tag::modulate_fsk(st.bits, t.rate, fm::kAudioRate), t.level,
          fm::kMpxRate);
      st.wave_begin =
          lead * static_cast<std::size_t>(fm::kMpxRate / fm::kAudioRate);
      st.wave_len = std::min(st.wave.size(), st.wave_begin < padded
                                                 ? padded - st.wave_begin
                                                 : 0);
      st.active_begin = static_cast<std::size_t>(
          std::max(0.0, st.burst_start_seconds - core::kBurstGuardSeconds) *
          fm::kMpxRate);
      st.active_end = std::min(
          padded, static_cast<std::size_t>((st.burst_start_seconds +
                                            st.burst_seconds +
                                            core::kBurstGuardSeconds) *
                                           fm::kMpxRate));
    });
  }

  std::vector<channel::AwgnSource> noise;
  std::vector<rx::Tuner> tuners;
  std::vector<ReplayReceiver> receivers(sc.receivers.size());
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const core::ScenarioReceiver& rx = sc.receivers[r];
    ReplayReceiver& rs = receivers[r];
    L.time("channel.awgn", [&] {
      noise.emplace_back(core::receiver_noise_floor(rx),
                         units::Hertz{fm::kChannelSpacingHz}, fm::kRfRate,
                         plan.receiver_noise_seed[r]);
    });
    L.time("rx.tuner", [&] {
      rx::TunerConfig tuner_cfg;
      tuner_cfg.offset_hz = rx.tune_offset.raw();
      tuners.emplace_back(tuner_cfg);
    });
    fm::StereoDecoderConfig sdc = rx.stereo_decoder;
    sdc.mpx_rate = fm::kMpxRate;
    L.time("fm.stereo",
           [&] { rs.stereo.emplace(sdc, padded, config.decision_window); });
    L.time("rx.device", [&] {
      if (rx.kind == core::ReceiverKind::kCar) {
        rs.cabin.emplace(rx.cabin, sdc.audio_rate);
      } else {
        rs.phone.emplace(rx.phone, sdc.audio_rate);
      }
    });
    const auto decim =
        static_cast<std::size_t>(sdc.mpx_rate / sdc.audio_rate + 0.5);
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      if (tags[t].bits.empty() || !tags[t].transmitted) continue;
      const std::size_t seg = plan.segment_of_time(
          tags[t].burst_start_seconds + 0.5 * tags[t].burst_seconds);
      const auto sel = static_cast<std::size_t>(plan.selected_station[seg][t]);
      if (!core::tag_audible_at(sc.tags[t], units::Hertz{plan.station_offset[sel]},
                                rx.tune_offset)) {
        continue;
      }
      rx::BurstSpec burst;
      burst.rate = sc.tags[t].rate;
      burst.bits = tags[t].bits;
      burst.start_seconds = tags[t].burst_start_seconds;
      burst.packet_bits = sc.tags[t].packet_bits;
      L.time("rx.fsk", [&] {
        rs.fsk.push_back(ReplayCollector{
            t,
            rx::StreamingBurstDemodulator(burst, sdc.audio_rate,
                                          padded / decim),
            std::nullopt});
      });
    }
    for (std::size_t s = 0; s < num_stations; ++s) {
      if (std::abs(plan.station_offset[s] - rx.tune_offset.raw()) >= 1.0) {
        continue;
      }
      if (sc.stations[s].config.rds_level > 0.0) {
        const double window = std::min(config.decision_window.raw(),
                                       config.station_horizon.raw());
        L.time("rx.rds", [&] {
          rs.station_rds.emplace(fm::kMpxRate, padded, 0.0, -1.0, window);
        });
      }
      break;
    }
  }

  // The producer's block loop, each block consumed as soon as it is made.
  std::vector<dsp::cvec> st_rf(num_stations);
  std::vector<dsp::cvec> reflected(sc.tags.size());
  std::vector<char> tag_active(sc.tags.size(), 0);
  dsp::rvec tag_bb(kBlockMpx);
  dsp::rvec loop_mpx(kBlockMpx);
  dsp::cvec rf;
  for (std::size_t start = 0; start < padded; start += kBlockMpx) {
    for (std::size_t s = 0; s < num_stations; ++s) {
      if (!pruning.station_needed[s]) continue;
      ReplayStation& src = stations[s];
      L.time("fm.station_loop_mod", [&] {
        const dsp::rvec& mpx = src.render->mpx;
        std::size_t pos = src.loop_pos;
        for (std::size_t i = 0; i < kBlockMpx; ++i) {
          loop_mpx[i] = mpx[pos];
          if (++pos == mpx.size()) pos = 0;
        }
        src.loop_pos = pos;
        src.loop_iq = src.loop_mod->process(loop_mpx);
      });
      L.time("dsp.upmix", [&] {
        st_rf[s] = src.up->process(src.loop_iq);
        if (src.mixer) src.mixer->process_inplace(st_rf[s]);
      });
    }
    for (std::size_t t = 0; t < tags.size(); ++t) {
      ReplayTag& st = tags[t];
      if (!pruning.tag_needed[t]) continue;
      tag_active[t] =
          start < st.active_end && start + kBlockMpx > st.active_begin;
      if (!tag_active[t]) {
        if (!reflected[t].empty()) dsp::cvec().swap(reflected[t]);
        continue;
      }
      L.time("tag.compose", [&] {
        std::fill(tag_bb.begin(), tag_bb.end(), 0.0F);
        const std::size_t lo = std::max(start, st.wave_begin);
        const std::size_t hi =
            std::min(start + kBlockMpx, st.wave_begin + st.wave_len);
        if (lo < hi) {
          std::copy(st.wave.begin() +
                        static_cast<std::ptrdiff_t>(lo - st.wave_begin),
                    st.wave.begin() +
                        static_cast<std::ptrdiff_t>(hi - st.wave_begin),
                    tag_bb.begin() + static_cast<std::ptrdiff_t>(lo - start));
        }
        const dsp::cvec& incident =
            st_rf[static_cast<std::size_t>(plan.selected_station[0][t])];
        dsp::cvec& b = reflected[t];
        b = st.subcarrier->process(tag_bb);
        for (std::size_t i = 0; i < incident.size(); ++i) b[i] *= incident[i];
        const std::size_t zlo =
            st.active_begin > start ? (st.active_begin - start) * kUpFactor : 0;
        const std::size_t zhi = st.active_end < start + kBlockMpx
                                    ? (st.active_end - start) * kUpFactor
                                    : b.size();
        std::fill(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(zlo),
                  dsp::cfloat(0.0F, 0.0F));
        std::fill(b.begin() + static_cast<std::ptrdiff_t>(zhi), b.end(),
                  dsp::cfloat(0.0F, 0.0F));
      });
    }
    rf.resize(st_rf[0].size());
    for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
      L.time("channel.superpose", [&] {
        channel::scale_into(rf, st_rf[0], plan.g_direct[0][r][0]);
        for (std::size_t s = 1; s < num_stations; ++s) {
          if (!pruning.station_needed[s]) continue;
          channel::accumulate_scaled(rf, st_rf[s], plan.g_direct[0][r][s]);
        }
        for (std::size_t t = 0; t < tags.size(); ++t) {
          if (!tag_active[t]) continue;
          channel::accumulate_scaled(rf, reflected[t], plan.g_back[0][r][t]);
        }
      });
      L.time("channel.awgn", [&] { noise[r].add_to(rf); });
      const dsp::cvec iq = L.time("rx.tuner", [&] { return tuners[r].process(rf); });
      replay_consume(L, receivers[r], iq);
    }
  }

  // Drain, exactly as the engine's end of stream.
  std::vector<Decoded> out;
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    ReplayReceiver& rs = receivers[r];
    rs.left.clear();
    rs.right.clear();
    L.time("fm.stereo", [&] { rs.stereo->finish(rs.left, rs.right); });
    replay_feed_audio(L, rs);
    if (rs.station_rds && !rs.station_rds_report) {
      L.time("rx.rds", [&] { rs.station_rds_report = rs.station_rds->finish(); });
    }
    for (ReplayCollector& c : rs.fsk) {
      if (!c.report) {
        L.time("rx.fsk", [&] { c.report = c.demod.finish(); });
      }
      out.push_back({r, c.tag, c.report->ber.ber, c.report->packets,
                     c.report->packets_ok, c.report->bits_delivered, ""});
    }
    if (rs.station_rds_report) {
      out.push_back({r, 0, rs.station_rds_report->bler, 0,
                     rs.station_rds_report->blocks_ok, 0,
                     rs.station_rds_report->ps_name});
    }
  }
  return out;
}

/// Work counts computed from the scene geometry (not measured): RF samples
/// synthesized at 2.4 MHz, Gaussian draws of the receiver noise, and the FIR
/// multiply-accumulates of the station upsamplers and tuner channel filters.
void report_computed_counts(Report& report, const core::Scenario& sc) {
  const core::ScenarioPlan plan = core::resolve_scenario_plan(sc);
  const core::ScenePruning pruning =
      core::resolve_scene_pruning(sc, plan, core::SceneRendering::kSparse);
  std::size_t stations = 0;
  for (const char needed : pruning.station_needed) stations += needed ? 1 : 0;
  const double rf_per_s = fm::kRfRate;
  const double receivers = static_cast<double>(sc.receivers.size());
  const double rf_samples = (static_cast<double>(stations) + receivers) * rf_per_s;
  const double gaussian = 2.0 * receivers * rf_per_s;
  // Polyphase upsampler: a (16 L + 1)-tap prototype padded to a multiple of
  // L gives ceil((16 L + 1) / L) taps per output.
  const double up_taps =
      std::ceil(static_cast<double>((16 * kUpFactor) | 1U) / kUpFactor);
  double tuner_macs = 0.0;
  for (const core::ScenarioReceiver& rx : sc.receivers) {
    // The tuner's channel-filter design rule (src/rx/tuner.cpp).
    const rx::TunerConfig cfg{.offset_hz = rx.tune_offset.raw()};
    const double cutoff = cfg.passband_hz * 1.18 / cfg.rf_rate;
    const double stop_edge = (std::abs(cfg.offset_hz) > 2.0 * cfg.passband_hz
                                  ? std::abs(cfg.offset_hz) - cfg.passband_hz
                                  : 2.4 * cfg.passband_hz) /
                             cfg.rf_rate;
    const double transition = std::clamp(stop_edge - cutoff, 0.02, 0.05);
    const double taps = static_cast<double>(
        dsp::fir_design_kaiser_lowpass(cutoff, transition,
                                       cfg.stopband_attenuation_db)
            .size());
    tuner_macs += taps * cfg.output_rate;
  }
  const double fir_macs =
      static_cast<double>(stations) * up_taps * rf_per_s + tuner_macs;
  report.metric("count.rf_samples_per_sim_s", rf_samples, "count/s");
  report.metric("count.gaussian_draws_per_sim_s", gaussian, "count/s");
  report.metric("count.fir_macs_per_sim_s", fir_macs, "count/s");
}

}  // namespace

Report run_city_stream(const Options& opt) {
  Report report;
  core::Scenario sc;

  // Set-up, repeated from a cleared cache; the fast decile is reported.
  std::vector<double> setup_s, render_s, plan_s;
  const auto time_set_up = [&] {
    double plan_seconds = 0.0;
    const double t0 = wall_now();
    render_s.push_back(set_up(opt, sc, plan_seconds));
    setup_s.push_back(wall_now() - t0);
    plan_s.push_back(plan_seconds);
  };
  while (more_setups(setup_s, 0.5)) time_set_up();
  const double sim_per_point = sc.settle.raw() + sc.duration.raw();
  fm::StationCache::instance().reset_stats();
  // The traced run splits its time between the engine loop and the replay.
  const double budget = opt.trace ? 0.5 * opt.seconds : opt.seconds;

  core::StreamingConfig config;
  config.consumer_threads = 1;
  const core::StreamingEngine engine(config);

  std::vector<double> point_s, point_cpu_s;
  std::vector<LoopUnit> units;
  core::ScenarioResult last;
  std::string digest;
  const double loop_t0 = wall_now();
  while (point_s.empty() || wall_now() - loop_t0 < budget) {
    const double t0 = wall_now();
    const double c0 = cpu_now();
    last = engine.run(sc);
    point_s.push_back(wall_now() - t0);
    point_cpu_s.push_back(cpu_now() - c0);
    units.push_back({point_s.back(), point_cpu_s.back(), sim_per_point});
    check_city(report, sc, last);
    const std::string d = digest_of(decoded_of(last));
    report.check(digest.empty() || d == digest,
                 "city_stream: decoded results differ between identical runs");
    digest = d;
  }
  const fm::StationCache::Stats cache = fm::StationCache::instance().stats();
  // The other half of the set-ups. Each leaves the cache as warm as the
  // first half did, for the traced replay.
  while (more_setups(setup_s, 1.0)) time_set_up();
  report.note("city_stream: " + std::to_string(sc.stations.size()) +
              " stations, 2 posters, phone + car, " +
              std::to_string(sim_per_point) + " simulated s per point");
  report.note("decoded-results digest (informational): " + digest);

  if (!opt.trace) {
    report_points(report, point_s, units);
    report.metric("setup_s", fast_time(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return report;
  }

  // Traced run: replay the pipeline stage by stage and compare its decode
  // and its summed stage time against the untraced engine runs above.
  std::vector<Ledger> ledgers;
  const double replay_t0 = wall_now();
  while (ledgers.empty() || wall_now() - replay_t0 < budget) {
    Ledger L;
    const std::vector<Decoded> replayed = replay(sc, L);
    report.check(replayed == decoded_of(last),
                 "city_stream: replay decoded different links than the engine "
                 "(replay digest " + digest_of(replayed) + ", engine " +
                     digest + ")");
    ledgers.push_back(std::move(L));
  }
  const char* kStages[] = {"dsp.upmix",     "fm.station_loop_mod",
                           "tag.compose",   "channel.superpose",
                           "channel.awgn",  "rx.tuner",
                           "fm.demod",      "fm.stereo",
                           "rx.device",     "rx.fsk",
                           "rx.rds"};
  for (const char* stage : kStages) {
    std::vector<double> ns;
    std::uint64_t calls = 0;
    for (const Ledger& L : ledgers) {
      const auto it = L.stages().find(stage);
      ns.push_back(it == L.stages().end() ? 0.0 : it->second.seconds * 1e9);
      calls = it == L.stages().end() ? 0 : it->second.calls;
    }
    report.metric(std::string(stage) + "_ns_per_sim_s",
                  median(ns) / sim_per_point, "ns/s");
    report.note(std::string(stage) + ": " + std::to_string(calls) +
                " calls per point");
  }
  std::vector<double> ledger_s;
  for (const Ledger& L : ledgers) ledger_s.push_back(L.total_seconds());
  report.metric("replay.coverage", median(ledger_s) / median(point_cpu_s),
                "ratio");
  report.metric("core.streaming_cpu_per_wall",
                median(point_cpu_s) / median(point_s), "ratio");
  report.metric("core.streaming_peak_buffer_bytes",
                static_cast<double>(last.scene.streaming_peak_buffer_bytes),
                "bytes");
  report.metric("core.plan_s", median(plan_s), "s");
  report.metric("fm.station_render_s", median(render_s), "s");
  report_cache_stats(report, cache.hits, cache.misses);
  report_computed_counts(report, sc);
  return report;
}

}  // namespace perfbench
