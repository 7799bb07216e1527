#include "core/scenario.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/receiver_decode.h"
#include "core/scene_render.h"
#include "fm/rds.h"

namespace fmbs::core {

namespace {

/// derive_seed index streams so tag content, tag fading, receiver noise and
/// scene-station content are mutually independent processes per entity.
constexpr std::uint64_t kTagContentStream = 0x1000;
constexpr std::uint64_t kTagFadingStream = 0x2000;
constexpr std::uint64_t kReceiverNoiseStream = 0x3000;
constexpr std::uint64_t kStationSeedStream = 0x4000;
constexpr std::uint64_t kSurveyRdsStream = 0x5000;

double pair_distance_m(const ScenarioTag& tag, const ScenePosition& tag_at,
                       const ScenePosition& rx_at) {
  if (tag.distance_override) {
    return tag.distance_override->to_meters().raw();
  }
  // Coincident positions (both entities left at the origin) degrade to the
  // near-field bound inside friis_path_loss; just keep the value positive.
  return std::max(1e-3, std::hypot(tag_at.x_m - rx_at.x_m,
                                   tag_at.y_m - rx_at.y_m));
}

/// An input domain: an interval with open or closed ends, and its text for
/// error messages. Every infinite end is open, so no domain holds +-inf, and
/// NaN fails every comparison, so it lies in none.
struct Domain {
  double lo, hi;
  bool lo_open, hi_open;
  const char* text;
  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Domain kFinite{-kInf, kInf, true, true, "finite"};
constexpr Domain kPositive{0.0, kInf, true, true, "finite and > 0"};
constexpr Domain kNonNegative{0.0, kInf, false, true, "finite and >= 0"};
constexpr Domain kAtLeastOne{1.0, kInf, false, true, ">= 1"};
constexpr Domain kLevel{0.0, 1.0, true, false, "in (0, 1]"};
constexpr Domain kInjection{0.0, 1.0, false, false, "in [0, 1]"};
/// What fm::FmModulator accepts at the MPX rate.
constexpr Domain kDeviation{0.0, fm::kMpxRate / 2.0, true, true,
                            "in (0, kMpxRate/2)"};
constexpr Domain kInScene{-fm::kRfRate / 2.0, fm::kRfRate / 2.0, false, false,
                          "inside +-kRfRate/2"};
/// 1 uHz of slack for offsets computed as channel multiples.
constexpr Domain kStationOffset{-kMaxStationOffsetHz - 1e-6,
                                kMaxStationOffsetHz + 1e-6, false, false,
                                "inside +-kMaxStationOffsetHz"};

/// One scenario input: its entity, field path, value and domain.
struct InputRow {
  const char* entity;
  const std::string* name;
  const char* path;
  double value;
  const Domain* domain;
};

/// The domain table: one row per single-input range rule of `sc`, for the
/// inputs the engines read. units.h checks finiteness only with assert(), so
/// a Release build hands NaN and +-inf straight to here.
std::vector<InputRow> input_rows(const Scenario& sc) {
  std::vector<InputRow> rows;
  const char* entity = "scenario";
  const std::string* name = &sc.name;
  const auto row = [&](const char* path, double value, const Domain& domain) {
    rows.push_back({entity, name, path, value, &domain});
  };
  const auto if_set = [&](const char* path, const auto& value) {
    if (value) row(path, value->raw(), kFinite);
  };
  const auto positions = [&](const ScenePosition& at,
                             std::span<const ScenePosition> waypoints) {
    row("position.x_m", at.x_m, kFinite);
    row("position.y_m", at.y_m, kFinite);
    for (const ScenePosition& w : waypoints) {
      row("waypoints.x_m", w.x_m, kFinite);
      row("waypoints.y_m", w.y_m, kFinite);
    }
  };
  row("receivers.size()", static_cast<double>(sc.receivers.size()),
      kAtLeastOne);
  row("duration", sc.duration.raw(), kPositive);
  row("settle", sc.settle.raw(), kNonNegative);
  row("timeline.segment", sc.timeline.segment.raw(), kNonNegative);
  row("station.deviation", sc.station.deviation.raw(), kDeviation);
  row("station.rds_level", sc.station.rds_level, kInjection);
  entity = "station";
  for (const ScenarioStation& st : sc.stations) {
    name = &st.name;
    row("offset", st.offset.raw(), kStationOffset);
    row("power", st.power.raw(), kFinite);
    if (st.position) positions(*st.position, {});
    row("config.deviation", st.config.deviation.raw(), kDeviation);
    row("config.rds_level", st.config.rds_level, kInjection);
  }
  entity = "tag";
  for (const ScenarioTag& t : sc.tags) {
    name = &t.name;
    const bool payload = t.custom_baseband.empty();
    const bool rds = payload && !t.rds_radiotext.empty();
    row("tag_power", t.tag_power.raw(), kFinite);
    row("start", t.start.raw(), payload ? kNonNegative : kFinite);
    if (payload && !rds) row("level", t.level, kLevel);
    if (rds) row("rds_level", t.rds_level, kLevel);
    row("subcarrier.shift", t.subcarrier.shift.raw(), kFinite);
    row("subcarrier.deviation", t.subcarrier.deviation.raw(), kFinite);
    row("subcarrier.dco_bits", t.subcarrier.dco_bits, kNonNegative);
    row("antenna.gain_dbi", t.antenna.gain_dbi, kFinite);
    row("antenna.efficiency_db", t.antenna.efficiency_db, kFinite);
    row("antenna.body_loss_db", t.antenna.body_loss_db, kFinite);
    row("mac.slot", t.mac.slot.raw(), kNonNegative);
    row("mac.cs_threshold", t.mac.cs_threshold.raw(), kFinite);
    if_set("distance_override", t.distance_override);
    if (const auto& f = t.fading) {
      row("fading.carrier", f->carrier.raw(), kFinite);
      row("fading.speed_mps", f->speed_mps, kFinite);
      row("fading.rician_k", f->rician_k.raw(), kFinite);
      row("fading.shadow_sigma", f->shadow_sigma.raw(), kFinite);
      row("fading.shadow_rate", f->shadow_rate.raw(), kFinite);
    }
    positions(t.position, t.waypoints);
  }
  entity = "receiver";
  for (const ScenarioReceiver& rx : sc.receivers) {
    name = &rx.name;
    const channel::LinkBudgetConfig& l = rx.link;
    row("tune_offset", rx.tune_offset.raw(), kInScene);
    if_set("direct_power", rx.direct_power);
    if_set("noise_200khz", rx.noise_200khz);
    if_set("rx_antenna_gain", rx.rx_antenna_gain);
    row("link.carrier", l.carrier.raw(), kFinite);
    row("link.tag_antenna_gain", l.tag_antenna_gain.raw(), kFinite);
    row("link.rx_antenna_gain", l.rx_antenna_gain.raw(), kFinite);
    row("link.reflection_amplitude", l.reflection_amplitude, kFinite);
    row("link.implementation_loss", l.implementation_loss.raw(), kFinite);
    row("link.tag_height", l.tag_height.raw(), kFinite);
    row("link.rx_height", l.rx_height.raw(), kFinite);
    if (rx.kind == ReceiverKind::kCar) {
      row("cabin.engine_noise_rms", rx.cabin.engine_noise_rms, kNonNegative);
    } else if (rx.phone.enable_agc) {
      row("phone.agc.target_rms", rx.phone.agc.target_rms, kPositive);
      row("phone.agc.attack_seconds", rx.phone.agc.attack_seconds, kFinite);
      row("phone.agc.release_seconds", rx.phone.agc.release_seconds, kFinite);
      row("phone.agc.min_gain", rx.phone.agc.min_gain, kNonNegative);
      row("phone.agc.max_gain", rx.phone.agc.max_gain, kPositive);
    }
    positions(rx.position, rx.waypoints);
  }
  return rows;
}

}  // namespace

ScenePosition path_position(const ScenePosition& anchor,
                            std::span<const ScenePosition> waypoints, double u) {
  if (waypoints.empty()) return anchor;
  u = std::clamp(u, 0.0, 1.0);
  // The path [anchor, waypoints...] spends equal time on every leg.
  const double along = u * static_cast<double>(waypoints.size());
  const std::size_t leg =
      std::min(static_cast<std::size_t>(along), waypoints.size() - 1);
  const double f = along - static_cast<double>(leg);
  const ScenePosition& a = leg == 0 ? anchor : waypoints[leg - 1];
  const ScenePosition& b = waypoints[leg];
  return {a.x_m + (b.x_m - a.x_m) * f, a.y_m + (b.y_m - a.y_m) * f};
}

units::Dbm station_power_at(const ScenarioStation& station,
                            const ScenePosition& at) {
  if (!station.position) return station.power;  // far field: uniform
  const double d_origin =
      std::max(1e-3, std::hypot(station.position->x_m, station.position->y_m));
  const double d_at = std::max(1e-3, std::hypot(station.position->x_m - at.x_m,
                                                station.position->y_m - at.y_m));
  // `power` is referenced at the scene origin; scale with free-space
  // distance from the transmitter.
  return station.power + units::Db{20.0 * std::log10(d_origin / d_at)};
}

bool tag_audible_at(const ScenarioTag& tag, units::Hertz station_offset,
                    units::Hertz tune_offset) {
  constexpr double kTol = 1.0;  // Hz; assignments come from shared constants
  const double station_offset_hz = station_offset.raw();
  const double tune_offset_hz = tune_offset.raw();
  if (tag.subcarrier.mode == tag::SubcarrierMode::kSingleSideband) {
    return std::abs(station_offset_hz + tag.subcarrier.shift.raw() -
                    tune_offset_hz) < kTol;
  }
  // Real square switches serve both signed copies of |f_back| around their
  // station's carrier; a receiver parked on the carrier itself hears the
  // station program, not tag data.
  const double mag = std::abs(tag.subcarrier.shift.raw());
  const bool on_channel =
      std::abs(station_offset_hz + mag - tune_offset_hz) < kTol ||
      std::abs(station_offset_hz - mag - tune_offset_hz) < kTol;
  return on_channel && std::abs(tune_offset_hz - station_offset_hz) >= kTol;
}

units::Dbm receiver_noise_floor(const ScenarioReceiver& rx) {
  if (rx.noise_200khz) return *rx.noise_200khz;
  return rx.kind == ReceiverKind::kCar ? channel::ReceiverNoise::kCarPer200kHz
                                       : channel::ReceiverNoise::kPhonePer200kHz;
}

units::Db receiver_antenna_gain(const ScenarioReceiver& rx) {
  if (rx.rx_antenna_gain) return *rx.rx_antenna_gain;
  return units::Db{rx.kind == ReceiverKind::kCar
                       ? tag::car_whip_antenna().effective_gain_db()
                       : tag::headphone_antenna().effective_gain_db()};
}

int tag_backscatter_channels(const ScenarioTag& tag,
                             units::Hertz station_offset,
                             units::Hertz out[2]) {
  if (tag.subcarrier.mode == tag::SubcarrierMode::kSingleSideband) {
    out[0] = station_offset + tag.subcarrier.shift;
    return 1;
  }
  const units::Hertz mag{std::abs(tag.subcarrier.shift.raw())};
  out[0] = station_offset + mag;
  out[1] = station_offset - mag;
  return 2;
}

ScenarioReceiver phone_listening_to(const tag::SubcarrierConfig& subcarrier) {
  ScenarioReceiver rx;
  rx.kind = ReceiverKind::kPhone;
  rx.tune_offset = subcarrier.shift;
  return rx;
}

ScenarioReceiver car_listening_to(const tag::SubcarrierConfig& subcarrier) {
  ScenarioReceiver rx;
  rx.kind = ReceiverKind::kCar;
  rx.tune_offset = subcarrier.shift;
  rx.stereo_decoder.force_mono = true;  // car stereo used as plain mono
  // Car ranges (20-80 ft) run near the ground where the two-ray d^4 falloff
  // dominates; phones operate inside the two-ray crossover, so free space
  // suffices there.
  rx.link.use_two_ray = true;
  rx.link.tag_height = units::Meters{1.52};
  rx.link.rx_height = units::Meters{1.5};
  return rx;
}

SurveySceneReport stations_from_survey_report(
    const survey::CitySpectrum& city, int listen_channel,
    units::Hertz max_offset, std::uint64_t seed) {
  if (listen_channel < 0 || listen_channel >= fm::kNumChannels) {
    throw std::invalid_argument("stations_from_survey: bad listen channel");
  }
  // A caller asking for a wider cap than the scene can hold is clamped to
  // the scene: a station past kMaxStationOffsetHz cannot be rendered without
  // aliasing its Carson band back into the scene.
  const double cap = std::min(max_offset.raw(), kMaxStationOffsetHz);
  // Genres cycle deterministically per channel (never silence: a detectable
  // station is on the air).
  static constexpr audio::ProgramGenre kGenres[] = {
      audio::ProgramGenre::kNews, audio::ProgramGenre::kPop,
      audio::ProgramGenre::kMixed, audio::ProgramGenre::kRock};
  SurveySceneReport report;
  for (std::size_t i = 0; i < city.detectable_channels.size(); ++i) {
    const int ch = city.detectable_channels[i];
    const double offset =
        (ch - listen_channel) * fm::kChannelSpacingHz;
    char freq[32];
    std::snprintf(freq, sizeof(freq), "%.1fMHz",
                  survey::channel_frequency_hz(ch) / 1e6);
    if (std::abs(offset) > cap + 1e-6) {
      // Out of scene: excluded, never clamped onto a wrong carrier — but
      // loudly, so a survey-driven deployment knows what it is not seeing.
      char warning[160];
      std::snprintf(warning, sizeof(warning),
                    "%s@%s at %+.0f kHz is outside the +-%.0f kHz scene "
                    "around the listen channel - skipped",
                    city.name.c_str(), freq, offset / 1000.0, cap / 1000.0);
      report.warnings.emplace_back(warning);
      continue;
    }
    ScenarioStation st;
    st.name = city.name + "@" + freq;
    st.config.program.genre = kGenres[static_cast<std::size_t>(ch) % 4];
    st.config.program.stereo = ch % 3 != 0;  // a mix of mono and stereo
    st.config.seed = derive_seed(seed, static_cast<std::uint64_t>(ch));
    // Real stations broadcast RDS: give every surveyed channel a
    // deterministic injection level (the 0.04-0.06 band real broadcasters
    // use) and a PS name derived from the city and channel frequency, so
    // city scenes carry the 57 kHz subcarrier the way a real band does.
    st.config.rds_level =
        0.04 + 0.01 * static_cast<double>(
                          derive_seed(seed, kSurveyRdsStream +
                                                static_cast<std::uint64_t>(ch)) %
                          3);
    std::string call;
    for (const char c : city.name) {
      if (call.size() == 3) break;
      call.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(c))));
    }
    while (call.size() < 3) call.push_back('X');
    char ps[16];
    std::snprintf(ps, sizeof(ps), "%s%05.1f", call.c_str(),
                  survey::channel_frequency_hz(ch) / 1e6);
    st.config.rds_ps_name = ps;  // e.g. "BOS098.5"
    st.offset = units::Hertz{offset};
    st.power = units::Dbm{city.detectable_power_dbm[i]};
    report.stations.push_back(std::move(st));
  }
  if (report.stations.empty()) {
    // An empty vector would silently flip the Scenario into legacy
    // single-station mode (the default-constructed sc.station) — surface
    // the misconfiguration instead.
    throw std::invalid_argument(
        "stations_from_survey: no detectable station of " + city.name +
        " falls within the scene around the listen channel");
  }
  std::sort(report.stations.begin(), report.stations.end(),
            [](const ScenarioStation& a, const ScenarioStation& b) {
              const double am = std::abs(a.offset.raw());
              const double bm = std::abs(b.offset.raw());
              return am != bm ? am < bm : a.offset < b.offset;
            });
  return report;
}

std::vector<ScenarioStation> stations_from_survey(
    const survey::CitySpectrum& city, int listen_channel,
    units::Hertz max_offset, std::uint64_t seed) {
  return stations_from_survey_report(city, listen_channel, max_offset, seed)
      .stations;
}

std::size_t ScenarioPlan::segment_of_time(double t) const {
  if (num_segments == 1) return 0;
  // The epsilon keeps boundary times (k * S computed in floating point)
  // in segment k, matching resolve_mac_schedule's convention.
  return std::min(num_segments - 1,
                  static_cast<std::size_t>(std::floor(
                      std::max(0.0, t) / segment_seconds + 1e-9)));
}

std::pair<double, double> ScenarioPlan::segment_bounds(std::size_t k) const {
  if (num_segments == 1) return {0.0, total_seconds};
  const double s0 = static_cast<double>(k) * segment_seconds;
  return {s0, std::min(total_seconds, s0 + segment_seconds)};
}

ScenarioPlan resolve_scenario_plan(const Scenario& sc) {
  for (const InputRow& r : input_rows(sc)) {
    if (!r.domain->contains(r.value)) {
      throw std::invalid_argument(std::string("ScenarioEngine: ") + r.entity +
                                  " \"" + *r.name + "\" " + r.path +
                                  " must be " + r.domain->text);
    }
  }
  // Rules that relate two inputs. The stereo decoder needs an audio rate
  // dividing the MPX rate, with the device chain's top corner (the car's
  // microphone or the phone's codec) below its Nyquist rate.
  for (const ScenarioReceiver& rx : sc.receivers) {
    const double rate = rx.stereo_decoder.audio_rate;
    const double ratio = fm::kMpxRate / rate;
    const double corner =
        rx.kind == ReceiverKind::kCar ? rx::kMicLowpassHz : rx::kPhoneCutoffHz;
    if (!(ratio >= 1.0 && std::abs(ratio - std::round(ratio)) <= 1e-9) ||
        !(corner < rate / 2.0)) {
      throw std::invalid_argument(
          "ScenarioEngine: receiver \"" + rx.name +
          "\" needs an audio rate dividing the MPX rate with its device "
          "chain's corners below Nyquist");
    }
    // std::clamp(gain, min_gain, max_gain) needs the bounds in order.
    const dsp::Agc::Config& agc = rx.phone.agc;
    if (rx.kind != ReceiverKind::kCar && rx.phone.enable_agc &&
        agc.min_gain > agc.max_gain) {
      throw std::invalid_argument(
          "ScenarioEngine: receiver \"" + rx.name +
          "\" phone.agc.min_gain must be <= phone.agc.max_gain");
    }
  }
  // Checked here so that FleetEngine, whose analytic links build no
  // tag::SubcarrierGenerator, rejects what ScenarioEngine does.
  for (const ScenarioTag& t : sc.tags) {
    if (!tag::subcarrier_fits(t.subcarrier)) {
      throw std::invalid_argument(
          "ScenarioEngine: tag \"" + t.name +
          "\" subcarrier needs a nonzero shift and a positive deviation "
          "whose sum fits below the RF Nyquist rate");
    }
  }
  ScenarioPlan plan;
  plan.total_seconds = sc.settle.raw() + sc.duration.raw();
  const double total_seconds = plan.total_seconds;

  // ---- Timeline segmentation. ----------------------------------------------
  // Geometry (positions, station selection, link budgets) is evaluated once
  // per segment; the engines' streaming front ends run straight through
  // segment boundaries, so captures — and the bursts demodulated out of
  // them — are seam-free by construction.
  const double seg_len = sc.timeline.segment.raw();
  if (seg_len > 0.0) {
    const double blocks = seg_len / kBlockSeconds;
    if (blocks < 1.0 - 1e-9 ||
        std::abs(blocks - std::round(blocks)) > 1e-6) {
      throw std::invalid_argument(
          "ScenarioEngine: timeline segment must be a positive "
          "multiple of the 0.1 s streaming block");
    }
    plan.num_segments = static_cast<std::size_t>(
        std::max(1.0, std::ceil(total_seconds / seg_len - 1e-9)));
  }
  plan.segment_seconds = seg_len;
  const std::size_t num_segments = plan.num_segments;

  // Scene station table. An empty `stations` means the legacy single-station
  // scene: sc.station at the scene center with the legacy per-tag/receiver
  // power semantics (bit-identical to the pre-multi-station engine).
  plan.multi = !sc.stations.empty();
  const bool multi = plan.multi;
  plan.num_stations = multi ? sc.stations.size() : 1;
  const std::size_t num_stations = plan.num_stations;
  plan.station_offset.assign(num_stations, 0.0);
  for (std::size_t s = 0; multi && s < num_stations; ++s) {
    plan.station_offset[s] = sc.stations[s].offset.raw();
  }

  // ---- Per-segment entity positions along their waypoint paths. -----------
  plan.tag_pos.assign(num_segments, std::vector<ScenePosition>(sc.tags.size()));
  plan.rx_pos.assign(num_segments,
                     std::vector<ScenePosition>(sc.receivers.size()));
  for (std::size_t k = 0; k < num_segments; ++k) {
    const auto [s0, s1] = plan.segment_bounds(k);
    const double u = total_seconds > 0.0 ? 0.5 * (s0 + s1) / total_seconds : 0.0;
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      plan.tag_pos[k][t] =
          path_position(sc.tags[t].position, sc.tags[t].waypoints, u);
    }
    for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
      plan.rx_pos[k][r] =
          path_position(sc.receivers[r].position, sc.receivers[r].waypoints, u);
    }
  }

  // ---- Per-segment station selection and ambient power. --------------------
  // Re-deciding the strongest station per segment is what turns a waypoint
  // path into a handoff: a walking tag crosses the midpoint between two
  // stations and its reflected carrier moves to the other channel.
  plan.selected_station.assign(num_segments,
                               std::vector<int>(sc.tags.size(), 0));
  plan.tag_ambient_dbm.assign(num_segments,
                              std::vector<double>(sc.tags.size(), 0.0));
  for (std::size_t k = 0; k < num_segments; ++k) {
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      const ScenarioTag& tcfg = sc.tags[t];
      if (!multi) {
        plan.tag_ambient_dbm[k][t] = tcfg.tag_power.raw();
        continue;
      }
      int chosen = tcfg.station_index;
      if (chosen >= static_cast<int>(num_stations)) {
        throw std::invalid_argument("ScenarioEngine: tag \"" + tcfg.name +
                                    "\" selects a station outside the scene");
      }
      if (chosen < 0) {
        // The paper's posters backscatter whichever ambient signal is
        // strongest at their location.
        double best = -1e18;
        for (std::size_t s = 0; s < num_stations; ++s) {
          const double p =
              station_power_at(sc.stations[s], plan.tag_pos[k][t]).raw();
          if (p > best) {
            best = p;
            chosen = static_cast<int>(s);
          }
        }
      }
      plan.selected_station[k][t] = chosen;
      plan.tag_ambient_dbm[k][t] =
          station_power_at(sc.stations[static_cast<std::size_t>(chosen)],
                           plan.tag_pos[k][t])
              .raw();
    }
  }

  // ---- Per-tag payload plan: kinds, burst durations, seeds. ----------------
  plan.tags.resize(sc.tags.size());
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    const ScenarioTag& t = sc.tags[i];
    ScenarioTagPlan& tp = plan.tags[i];
    if (t.fading) {
      tp.fading_seed = t.fading_seed ? *t.fading_seed
                                     : derive_seed(sc.seed, kTagFadingStream + i);
    }
    if (!t.custom_baseband.empty()) {
      if (!t.rds_radiotext.empty()) {
        throw std::invalid_argument(
            "ScenarioEngine: tag \"" + t.name +
            "\" sets both custom_baseband and rds_radiotext");
      }
      tp.custom_baseband = true;
      continue;
    }
    if (!t.rds_radiotext.empty()) {
      // RDS data mode: the RadioText compiles to group-2A blocks whose
      // serialized bitstream becomes the burst (one pass over the groups at
      // the standard 1187.5 bps).
      tp.rds = true;
      tp.rds_bits =
          fm::serialize_groups(fm::make_radiotext_groups(t.rds_radiotext));
      tp.burst_seconds =
          static_cast<double>(tp.rds_bits.size()) / fm::kRdsBitRateHz;
      continue;
    }
    if (t.num_bits == 0) {
      throw std::invalid_argument("ScenarioEngine: tag \"" + t.name +
                                  "\" has no payload");
    }
    tp.content_seed =
        t.seed ? *t.seed : derive_seed(sc.seed, kTagContentStream + i);
    // Duration only: the waveform itself is synthesized at composition time,
    // and only for tags some receiver can hear — a city of deployed tags
    // resolves its MAC schedule without paying per-tag FSK synthesis.
    tp.burst_seconds = tag::fsk_burst_seconds(t.num_bits, t.rate, fm::kAudioRate);
  }

  // ---- Medium access: nominal starts -> actual burst schedule. -------------
  // The MAC resolves before anything is rendered: carrier-sense deferrals
  // reshape the on-air schedule segment by segment, and the scene is then
  // rendered once with the final schedule (so what a receiver hears is what
  // the MAC actually let on the air).
  std::vector<tag::MacAttempt> attempts;
  std::vector<std::size_t> attempt_tag;  // attempt index -> tag index
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    // Custom-baseband tags are always on and bypass the MAC; FSK and RDS
    // bursts both contend for the channel.
    if (plan.tags[i].custom_baseband) continue;
    tag::MacAttempt a;
    a.nominal_start = units::Seconds{sc.settle.raw() + sc.tags[i].start.raw()};
    a.burst = units::Seconds{plan.tags[i].burst_seconds};
    a.guard = units::Seconds{kBurstGuardSeconds};
    a.config = sc.tags[i].mac;
    attempt_tag.push_back(i);
    attempts.push_back(a);
  }
  // What a deferring tag hears: every station whose carrier falls in one of
  // the tag's subcarrier channels, plus every committed neighbor burst that
  // couples into those channels, all evaluated with the segment's geometry.
  auto channels_of = [&](std::size_t t, std::size_t seg,
                         units::Hertz (&out)[2]) -> int {
    const units::Hertz off{plan.station_offset[static_cast<std::size_t>(
        plan.selected_station[seg][t])]};
    return tag_backscatter_channels(sc.tags[t], off, out);
  };
  auto sense_channel = [&](std::size_t attempt, units::Seconds w_begin,
                           units::Seconds w_end,
                           std::span<const tag::OnAirInterval> on_air) {
    const double t0 = w_begin.raw();
    const double t1 = w_end.raw();
    const std::size_t ti = attempt_tag[attempt];
    const std::size_t seg = plan.segment_of_time(0.5 * (t0 + t1));
    const ScenePosition& at = plan.tag_pos[seg][ti];
    units::Hertz ch_i[2];
    const int n_i = channels_of(ti, seg, ch_i);
    const double half = fm::kChannelSpacingHz / 2.0;
    double watts = 0.0;
    // Ambient stations occupying the sensed channel(s).
    for (std::size_t s = 0; s < num_stations; ++s) {
      const units::Dbm power =
          multi ? station_power_at(sc.stations[s], at)
                : sc.tags[ti].tag_power;  // legacy: ambient at the tag
      for (int c = 0; c < n_i; ++c) {
        if (std::abs(plan.station_offset[s] - ch_i[c].raw()) < half) {
          watts += power.to_watts().raw();
          break;
        }
      }
    }
    // Committed neighbor bursts on the air during the window.
    for (const tag::OnAirInterval& iv : on_air) {
      if (std::min(t1, iv.end.raw()) - std::max(t0, iv.begin.raw()) <= 0.0) {
        continue;
      }
      const std::size_t tj = attempt_tag[iv.attempt];
      if (tj == ti) continue;
      units::Hertz ch_j[2];
      const int n_j = channels_of(tj, seg, ch_j);
      bool couples = false;
      for (int a = 0; a < n_i && !couples; ++a) {
        for (int b = 0; b < n_j; ++b) {
          if (std::abs(ch_i[a].raw() - ch_j[b].raw()) < half) {
            couples = true;
            break;
          }
        }
      }
      if (!couples) continue;
      channel::LinkBudgetConfig link;
      link.tag_antenna_gain = units::Db{sc.tags[tj].antenna.effective_gain_db()};
      link.rx_antenna_gain = units::Db{sc.tags[ti].antenna.effective_gain_db()};
      const double dist =
          std::max(1e-3, std::hypot(plan.tag_pos[seg][tj].x_m - at.x_m,
                                    plan.tag_pos[seg][tj].y_m - at.y_m));
      watts += channel::compute_backscatter_path(
                   units::Dbm{plan.tag_ambient_dbm[seg][tj]},
                   units::Dbm{plan.tag_ambient_dbm[seg][tj]},
                   units::Meters{dist}, link)
                   .sideband.raw();
    }
    return watts > 0.0
               ? units::Watts{watts}.to_dbm()
               : units::Dbm{-std::numeric_limits<double>::infinity()};
  };
  const std::vector<tag::MacDecision> schedule = tag::resolve_mac_schedule(
      attempts, units::Seconds{total_seconds}, units::Seconds{seg_len},
      sense_channel);
  for (std::size_t a = 0; a < schedule.size(); ++a) {
    const std::size_t i = attempt_tag[a];
    ScenarioTagPlan& tp = plan.tags[i];
    const tag::MacDecision& d = schedule[a];
    tp.transmitted = d.transmitted;
    tp.deferrals = d.deferrals;
    tp.start_seconds = d.start.raw();
    tp.last_sensed_dbm = d.last_sensed.raw();
    if (d.transmitted &&
        d.start.raw() + tp.burst_seconds > total_seconds + 1e-9) {
      if (attempts[a].nominal_start.raw() + tp.burst_seconds >
          total_seconds + 1e-9) {
        // The burst could never have fit at its requested start — a
        // configuration error regardless of MAC policy.
        throw std::invalid_argument("ScenarioEngine: tag \"" + sc.tags[i].name +
                                    "\" burst does not fit the scenario");
      }
      // The burst fit where the user asked for it, but the MAC (slot
      // quantization) pushed it past the run boundary: it would be truncated
      // on the air, so it is never sent — excluded from the scene and from
      // goodput consistently by every engine that consumes this plan, the
      // same way carrier sense silently gives up.
      tp.transmitted = false;
    }
  }

  // ---- Legacy direct-power policy and per-receiver noise seeds. ------------
  if (!multi) {
    plan.receiver_direct_dbm.resize(sc.receivers.size());
    for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
      double p;
      if (sc.receivers[r].direct_power) {
        p = sc.receivers[r].direct_power->raw();
      } else {
        p = -1e9;
        for (const ScenarioTag& t : sc.tags) p = std::max(p, t.tag_power.raw());
        if (sc.tags.empty()) p = -30.0;
      }
      plan.receiver_direct_dbm[r] = p;
    }
  }
  plan.receiver_noise_seed.resize(sc.receivers.size());
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    plan.receiver_noise_seed[r] =
        sc.receivers[r].noise_seed
            ? *sc.receivers[r].noise_seed
            : derive_seed(sc.seed, kReceiverNoiseStream + r);
  }

  // ---- Per-pair link budgets, one table per segment. -----------------------
  // g_back[k][r][t]: reflected-wave amplitude of tag t at receiver r during
  // segment k; g_direct[k][r][s]: unshifted amplitude of station s at
  // receiver r during segment k.
  plan.g_direct.assign(num_segments,
                       std::vector<std::vector<float>>(
                           sc.receivers.size(),
                           std::vector<float>(num_stations, 0.0F)));
  plan.g_back.assign(num_segments,
                     std::vector<std::vector<float>>(
                         sc.receivers.size(),
                         std::vector<float>(sc.tags.size(), 0.0F)));
  plan.rx_power_dbm.assign(num_segments,
                           std::vector<std::vector<double>>(
                               sc.receivers.size(),
                               std::vector<double>(sc.tags.size(), 0.0)));
  for (std::size_t k = 0; k < num_segments; ++k) {
    for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
      const ScenarioReceiver& rx = sc.receivers[r];
      channel::LinkBudgetConfig link = rx.link;
      link.rx_antenna_gain = receiver_antenna_gain(rx);
      if (multi) {
        for (std::size_t s = 0; s < num_stations; ++s) {
          plan.g_direct[k][r][s] = static_cast<float>(
              std::sqrt(station_power_at(sc.stations[s], plan.rx_pos[k][r])
                            .to_watts()
                            .raw()));
        }
        for (std::size_t t = 0; t < sc.tags.size(); ++t) {
          link.tag_antenna_gain =
              units::Db{sc.tags[t].antenna.effective_gain_db()};
          const channel::BackscatterPath path =
              channel::compute_backscatter_path(
                  units::Dbm{plan.tag_ambient_dbm[k][t]},
                  units::Dbm{plan.tag_ambient_dbm[k][t]},
                  units::Meters{pair_distance_m(sc.tags[t], plan.tag_pos[k][t],
                                                plan.rx_pos[k][r])},
                  link);
          plan.g_back[k][r][t] =
              static_cast<float>(path.budget.backscatter_amplitude);
          plan.rx_power_dbm[k][r][t] = path.sideband_power.raw();
        }
        continue;
      }
      if (sc.tags.empty()) {
        plan.g_direct[k][r][0] = static_cast<float>(std::sqrt(
            units::Dbm{plan.receiver_direct_dbm[r]}.to_watts().raw()));
        continue;
      }
      for (std::size_t t = 0; t < sc.tags.size(); ++t) {
        link.tag_antenna_gain =
            units::Db{sc.tags[t].antenna.effective_gain_db()};
        const channel::BackscatterPath path = channel::compute_backscatter_path(
            sc.tags[t].tag_power, units::Dbm{plan.receiver_direct_dbm[r]},
            units::Meters{pair_distance_m(sc.tags[t], plan.tag_pos[k][t],
                                          plan.rx_pos[k][r])},
            link);
        plan.g_back[k][r][t] =
            static_cast<float>(path.budget.backscatter_amplitude);
        if (t == 0) {
          plan.g_direct[k][r][0] =
              static_cast<float>(path.budget.direct_amplitude);
        }
        plan.rx_power_dbm[k][r][t] = path.sideband_power.raw();
      }
    }
  }
  return plan;
}

ScenePruning resolve_scene_pruning(const Scenario& sc, const ScenarioPlan& plan,
                                   SceneRendering mode) {
  // What must actually be synthesized, from the channel plan and capture
  // logic alone (everything here is a pure function of configuration — no
  // rendered signal is consulted, so the decision is cheap and
  // deterministic):
  //   * a tag is needed when one of its backscatter channels (channels_of,
  //     evaluated against its per-segment selected station) falls within
  //     kSceneNeighborhoodHz of some receiver's tuned channel;
  //   * a station is needed when its carrier falls within that margin of
  //     some receiver's tune, or when a needed tag selects it in any segment
  //     (the reflection carries the station's modulation);
  //   * station 0 is always needed — it is the scene center the legacy
  //     `station` field and single-station power semantics hang off.
  // Everything needed is synthesized for ALL receivers: pruning decides what
  // enters the scene, never per-receiver superposition lists, so dense mode
  // (every flag forced on) reproduces the historical engine exactly.
  ScenePruning pr;
  pr.station_needed.assign(plan.num_stations, 1);
  pr.tag_needed.assign(sc.tags.size(), 1);
  if (mode != SceneRendering::kSparse) return pr;
  const std::vector<std::vector<int>>& sel = plan.selected_station;
  auto near_some_receiver = [&](double channel_hz) {
    for (const ScenarioReceiver& rx : sc.receivers) {
      if (std::abs(channel_hz - rx.tune_offset.raw()) <=
          kSceneNeighborhoodHz + 1e-6) {
        return true;
      }
    }
    return false;
  };
  for (std::size_t s = 1; s < plan.num_stations; ++s) {
    pr.station_needed[s] = near_some_receiver(plan.station_offset[s]) ? 1 : 0;
  }
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    pr.tag_needed[t] = 0;
    // A burst the MAC never let on the air reflects nothing — skip its
    // waveform (and don't force its stations) no matter how audible its
    // channel would have been.
    if (!plan.tags[t].transmitted) continue;
    for (std::size_t k = 0; k < plan.num_segments && !pr.tag_needed[t]; ++k) {
      units::Hertz ch[2];
      const units::Hertz station_offset{
          plan.station_offset[static_cast<std::size_t>(sel[k][t])]};
      const int n = tag_backscatter_channels(sc.tags[t], station_offset, ch);
      for (int c = 0; c < n; ++c) {
        if (near_some_receiver(ch[c].raw())) {
          pr.tag_needed[t] = 1;
          break;
        }
      }
    }
    if (!pr.tag_needed[t]) continue;
    for (std::size_t k = 0; k < plan.num_segments; ++k) {
      pr.station_needed[static_cast<std::size_t>(sel[k][t])] = 1;
    }
  }
  return pr;
}

ScenarioResult ScenarioEngine::run(const Scenario& sc) const {
  // Everything decided before a sample exists lives in the shared pre-render
  // plan; the shared renderer turns it into per-receiver IQ blocks and the
  // shared receiver decoders consume them one block at a time, making every
  // global decision (pilot detect, the station's RDS) over the whole capture.
  const ScenarioPlan plan = resolve_scenario_plan(sc);
  SceneRenderer scene(sc, plan, config_.scene_rendering, std::nullopt);
  ScenarioResult result;
  scene.report(result);

  std::vector<ReceiverDecoder> decoders;
  decoders.reserve(sc.receivers.size());
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    decoders.emplace_back(sc, plan, scene, r, units::Seconds{0.0},
                          units::Seconds{0.0}, nullptr,
                          config_.keep_captures);
  }
  std::vector<dsp::cvec> block;
  for (std::size_t b = 0; b < scene.num_blocks(); ++b) {
    scene.render_block(b, block);
    const double now = static_cast<double>(b + 1) * kBlockSeconds;
    for (std::size_t r = 0; r < decoders.size(); ++r) {
      decoders[r].push(block[r], now);
    }
  }

  result.receivers.resize(sc.receivers.size());
  const double end = static_cast<double>(scene.num_blocks()) * kBlockSeconds;
  for (std::size_t r = 0; r < decoders.size(); ++r) {
    decoders[r].finish(end, result.receivers[r]);
  }
  assemble_best_links(result, sc.tags.size());
  return result;
}

void apply_scenario_seed_policy(Scenario& scenario, std::size_t index,
                                const SweepConfig& config) {
  if (scenario.seed == 0) scenario.seed = derive_seed(config.base_seed, index);
  if (scenario.station.seed == 0) scenario.station.seed = config.base_seed;
  for (std::size_t s = 0; s < scenario.stations.size(); ++s) {
    if (scenario.stations[s].config.seed == 0) {
      scenario.stations[s].config.seed =
          derive_seed(config.base_seed, kStationSeedStream + s);
    }
  }
}

std::vector<ScenarioResult> run_scenario_sweep(SweepRunner& runner,
                                               const ScenarioEngine& engine,
                                               std::vector<Scenario> scenarios) {
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    apply_scenario_seed_policy(scenarios[i], i, runner.config());
  }
  return runner.map(scenarios,
                    [&engine](const Scenario& sc) { return engine.run(sc); });
}

std::vector<Series> run_scenario_grid(SweepRunner& runner,
                                      const ScenarioEngine& engine,
                                      const std::vector<ScenarioGridRow>& rows,
                                      const std::vector<double>& xs) {
  for (const ScenarioGridRow& row : rows) {
    if (!row.make_scenario || !row.eval) {
      throw std::invalid_argument(
          "run_scenario_grid: row needs make_scenario and eval");
    }
  }
  return runner.run_cells(
      rows, xs, [&](const ScenarioGridRow& row, double x, std::size_t index) {
        Scenario sc = row.make_scenario(x);
        apply_scenario_seed_policy(sc, index, runner.config());
        return [sc = std::move(sc), &engine, &row, x] {
          return row.eval(engine.run(sc), x);
        };
      });
}

}  // namespace fmbs::core
