#include "core/experiment.h"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <stdexcept>
#include <utility>

#include "audio/speech_synth.h"
#include "audio/tone.h"
#include "core/scenario.h"
#include "dsp/spectrum.h"
#include "rx/cooperative.h"
#include "rx/mrc.h"
#include "tag/baseband.h"

namespace fmbs::core {

namespace {

/// Seed offsets so the station program, tag content and channel noise are
/// mutually independent processes.
constexpr std::uint64_t kContentSeedOffset = 0x100000;
constexpr std::uint64_t kNoiseSeedOffset = 0x200000;

/// Settle time before the data starts: lets the receiver filters, pilot
/// envelope tracker and AGC converge so the first symbol is clean (real
/// deployments begin every packet with a preamble that serves the same
/// purpose).
constexpr units::Seconds kSettle{0.08};

/// Sends `content` from the tag after `lead_in` of silence, in a scene of
/// `duration` (lead-in included) changed by `adjust` when given, as overlay
/// (mono band) or stereo (L-R) content; stereo content brings the 19 kHz
/// pilot when the station is mono (mono-to-stereo conversion). Returns the
/// receiver output carrying that band, the mono downmix or the stereo
/// stream recovered as (L-R)/2, with the lead-in dropped.
audio::MonoBuffer transmit(const ExperimentPoint& point, units::Seconds lead_in,
                           const audio::MonoBuffer& content, bool stereo_band,
                           units::Seconds duration,
                           const std::function<void(Scenario&)>& adjust = {}) {
  Scenario sc = make_scenario(point, {}, duration);
  if (adjust) adjust(sc);
  const audio::MonoBuffer sent = audio::concat(
      audio::make_silence(lead_in.raw(), content.sample_rate), content);
  sc.tags[0].custom_baseband =
      stereo_band
          ? tag::compose_stereo_baseband(sent, !sc.station.program.stereo)
          : tag::compose_overlay_baseband(sent, kOverlayLevel);
  ReceiverCapture capture =
      std::move(ScenarioEngine().run(sc).receivers[0].capture);
  audio::MonoBuffer heard =
      stereo_band ? capture.stereo.side() : std::move(capture.mono);
  const auto skip =
      static_cast<std::ptrdiff_t>(lead_in.raw() * heard.sample_rate);
  if (std::ssize(heard.samples) > skip) {
    heard.samples.erase(heard.samples.begin(), heard.samples.begin() + skip);
  }
  return heard;
}

/// Sends `bits` as FSK and returns the bits demodulated from the receiver.
std::vector<std::uint8_t> send_fsk(const ExperimentPoint& point,
                                   const std::vector<std::uint8_t>& bits,
                                   tag::DataRate rate, bool stereo_band) {
  const units::Seconds duration{
      static_cast<double>(bits.size()) / tag::bits_per_second(rate) + 0.15 +
      kSettle.raw()};
  const audio::MonoBuffer heard =
      transmit(point, kSettle, tag::modulate_fsk(bits, rate, fm::kAudioRate),
               stereo_band, duration);
  return rx::demodulate_fsk(heard, rate, bits.size()).bits;
}

/// An MRC transmission: `repetitions` back-to-back copies of one FSK
/// payload, sent as overlay content and heard in one capture.
struct RepeatedFsk {
  std::size_t payload_samples;  ///< all copies, lead-in excluded
  audio::MonoBuffer heard;
};

RepeatedFsk send_repeated_fsk(
    const ExperimentPoint& point, const std::vector<std::uint8_t>& bits,
    tag::DataRate rate, std::size_t repetitions,
    const std::function<void(Scenario&)>& adjust = {}) {
  if (repetitions == 0) throw std::invalid_argument("zero MRC repetitions");
  const audio::MonoBuffer one = tag::modulate_fsk(bits, rate, fm::kAudioRate);
  audio::MonoBuffer all = one;
  for (std::size_t r = 1; r < repetitions; ++r) all = audio::concat(all, one);
  const units::Seconds duration{all.duration_seconds() + kSettle.raw() +
                                0.15};
  return {static_cast<std::size_t>(all.duration_seconds() * fm::kAudioRate),
          transmit(point, kSettle, all, false, duration, adjust)};
}

/// Trims the capture so the copies tile exactly and combines them.
audio::MonoBuffer combine_repetitions(const RepeatedFsk& tx,
                                      std::size_t repetitions) {
  audio::MonoBuffer heard = tx.heard;
  if (heard.size() > tx.payload_samples) {
    heard.samples.resize(tx.payload_samples);
  }
  // Repetitions are sample-synchronous here (one capture), so realignment is
  // disabled: a +-1 sample correlation error would rotate the highest FSK
  // tones enough to partially cancel instead of combine.
  audio::MonoBuffer combined = rx::mrc_combine(heard, repetitions, 0);
  // The pipeline group delay shifts the data by a few tens of samples, so the
  // final symbol of the last repetition ends just past the trimmed buffer.
  // Repetitions are cyclic, so extending the buffer with its own head
  // restores that tail for the demodulator.
  const auto size = std::ssize(combined.samples);
  const auto extra = std::min<std::ptrdiff_t>(size, 480);
  combined.samples.resize(static_cast<std::size_t>(size + extra));
  std::copy_n(combined.samples.begin(), extra, combined.samples.begin() + size);
  return combined;
}

rx::BerResult demodulate_and_compare(const audio::MonoBuffer& audio_in,
                                     const std::vector<std::uint8_t>& bits,
                                     tag::DataRate rate) {
  return rx::compare_bits(bits,
                          rx::demodulate_fsk(audio_in, rate, bits.size()).bits);
}

audio::MonoBuffer tag_speech(double duration_seconds, std::uint64_t seed) {
  // pitch_hz: a voice distinct from the news announcer's.
  return audio::synthesize_speech({.pitch_hz = 165.0, .level_rms = 0.2},
                                  duration_seconds, fm::kAudioRate, seed);
}

/// Sends tag speech and scores the receiver output against it.
double speech_pesq(const ExperimentPoint& point, units::Seconds duration,
                   bool stereo_band) {
  const audio::MonoBuffer speech =
      tag_speech(duration.raw(), point.seed + kContentSeedOffset);
  return audio::pesq_like(
      speech, transmit(point, units::Seconds{0.0}, speech, stereo_band,
                       units::Seconds{duration.raw() + 0.1}));
}

}  // namespace

Scenario make_scenario(const ExperimentPoint& point, dsp::rvec tag_baseband,
                       units::Seconds duration) {
  Scenario sc;
  sc.name = "experiment";
  sc.station.program.genre = point.genre;
  sc.station.program.stereo = point.stereo_station;
  sc.station.seed = point.station_seed != 0 ? point.station_seed : point.seed;
  sc.settle = units::Seconds{0.0};
  sc.duration = duration;
  sc.seed = point.seed + kNoiseSeedOffset;

  ScenarioTag t;
  t.name = "tag";
  // An empty baseband means "unmodulated always-on switch" (the engine
  // zero-pads to the scene length); keep one explicit zero sample so the
  // engine does not mistake it for an FSK payload tag.
  t.custom_baseband =
      tag_baseband.empty() ? dsp::rvec(1, 0.0F) : std::move(tag_baseband);
  t.tag_power = point.tag_power;
  t.distance_override = point.distance;
  t.fading_seed = sc.seed + 1;
  sc.tags.push_back(std::move(t));

  ScenarioReceiver device = point.receiver == ReceiverKind::kCar
                                ? car_listening_to(sc.tags[0].subcarrier)
                                : phone_listening_to(sc.tags[0].subcarrier);
  device.name = "backscatter-rx";
  device.noise_seed = sc.seed;
  sc.receivers.push_back(std::move(device));
  return sc;
}

double run_tone_snr(const ExperimentPoint& point, units::Hertz tone,
                    bool stereo_band, units::Seconds duration) {
  const double tone_hz = tone.raw();
  const audio::MonoBuffer measured = transmit(
      point, units::Seconds{0.0},
      audio::make_tone(tone_hz, 1.0, duration.raw(), fm::kAudioRate),
      stereo_band, duration, [](Scenario& sc) {
        // Fig. 6 methodology: "we simulate an FM station transmitting no
        // audio information (FM_audio = 0, a single tone at fc)".
        sc.station.program.genre = audio::ProgramGenre::kSilence;
        sc.station.program.stereo = false;
      });
  // Skip the filter-settling head before measuring.
  const auto skip = static_cast<std::size_t>(0.1 * fm::kAudioRate);
  if (measured.size() <= skip + 4096) {
    throw std::invalid_argument("run_tone_snr: capture too short");
  }
  const std::span<const float> body(measured.samples.data() + skip,
                                    measured.size() - skip);
  return dsp::tone_snr_db(body, fm::kAudioRate, tone_hz, 100.0, 15000.0);
}

rx::BerResult run_overlay_ber(const ExperimentPoint& point, tag::DataRate rate,
                              std::size_t num_bits) {
  const auto bits =
      tag::random_bits(num_bits, point.seed + kContentSeedOffset);
  return rx::compare_bits(bits, send_fsk(point, bits, rate, false));
}

rx::BerResult run_overlay_ber_mrc(const ExperimentPoint& point, tag::DataRate rate,
                                  std::size_t num_bits, std::size_t repetitions) {
  const auto bits =
      tag::random_bits(num_bits, point.seed + kContentSeedOffset);
  const RepeatedFsk tx = send_repeated_fsk(point, bits, rate, repetitions);
  return demodulate_and_compare(combine_repetitions(tx, repetitions), bits,
                                rate);
}

rx::BerResult run_overlay_ber_coded(const ExperimentPoint& point,
                                    tag::DataRate rate, std::size_t payload_bits,
                                    tag::FecScheme scheme) {
  const auto payload =
      tag::random_bits(payload_bits, point.seed + kContentSeedOffset);
  const auto received =
      send_fsk(point, tag::fec_encode(payload, scheme), rate, false);
  return rx::compare_bits(payload,
                          tag::fec_decode(received, scheme, payload_bits));
}

rx::BerResult run_stereo_ber(const ExperimentPoint& point, tag::DataRate rate,
                             std::size_t num_bits) {
  const auto bits =
      tag::random_bits(num_bits, point.seed + kContentSeedOffset);
  return rx::compare_bits(bits, send_fsk(point, bits, rate, true));
}

double run_overlay_pesq(const ExperimentPoint& point, units::Seconds duration) {
  return speech_pesq(point, duration, false);
}

double run_stereo_pesq(const ExperimentPoint& point, units::Seconds duration) {
  return speech_pesq(point, duration, true);
}

double run_cooperative_pesq(const ExperimentPoint& point,
                            units::Seconds duration) {
  const double duration_seconds = duration.raw();
  tag::CoopPilotConfig pilot;  // defaults match rx::CooperativeConfig
  const audio::MonoBuffer speech =
      tag_speech(duration_seconds, point.seed + kContentSeedOffset);
  Scenario sc = make_scenario(
      point, tag::compose_cooperative_baseband(speech, kOverlayLevel, pilot),
      units::Seconds{duration_seconds + pilot.preamble_seconds + 0.1});
  // Exercise the receiver-side problem the technique solves: hardware gain
  // control. Receiver AGCs track channel level with slow loop dynamics, so
  // the gain is near-constant within the preamble and within the payload —
  // the two states the 13 kHz pilot calibration compares.
  rx::PhoneChainConfig& phone = sc.receivers[0].phone;
  phone.enable_agc = true;
  phone.agc.attack_seconds = 0.4;
  phone.agc.release_seconds = 2.0;
  phone.agc.min_gain = 0.5;  // real record paths adjust gain mildly
  phone.agc.max_gain = 2.0;
  // The second phone of the pair listens to the ambient station itself.
  ScenarioReceiver ambient = sc.receivers[0];
  ambient.name = "ambient-rx";
  ambient.tune_offset = units::Hertz{0.0};
  ambient.noise_seed = sc.seed + 0x9e3779b9ULL;
  sc.receivers.push_back(std::move(ambient));

  const ScenarioResult result = ScenarioEngine().run(sc);
  rx::CooperativeConfig coop;
  coop.pilot = pilot;
  const rx::CooperativeResult cancelled =
      rx::cancel_ambient(result.receivers[1].capture.mono,
                         result.receivers[0].capture.mono, coop);
  return audio::pesq_like(speech, cancelled.backscatter_audio);
}

rx::BerResult run_fabric_ber(channel::Mobility mobility, tag::DataRate rate,
                             std::size_t num_bits, std::size_t mrc_repetitions,
                             std::uint64_t seed, std::uint64_t station_seed) {
  ExperimentPoint point;
  // Paper section 6.2: outdoor ambient level of -35 to -40 dBm, phone worn
  // close to the shirt.
  point.tag_power = units::Dbm{-37.5};
  point.distance = units::Feet{3.0};
  point.genre = audio::ProgramGenre::kNews;
  point.seed = seed;
  point.station_seed = station_seed;

  const auto bits = tag::random_bits(num_bits, seed + kContentSeedOffset);
  const RepeatedFsk tx = send_repeated_fsk(
      point, bits, rate, mrc_repetitions, [mobility](Scenario& sc) {
        sc.tags[0].antenna = tag::tshirt_meander_antenna(/*worn=*/true);
        sc.tags[0].fading = channel::fading_for_mobility(mobility);
        // On-body operation adds absorption and detuning beyond the
        // antenna's own efficiency: the link runs with little margin, which
        // is exactly why the paper measures visible BER here.
        sc.receivers[0].link.implementation_loss = units::Db{13.0};
      });
  // A single copy is demodulated whole, padding tail included.
  return demodulate_and_compare(
      mrc_repetitions > 1 ? combine_repetitions(tx, mrc_repetitions) : tx.heard,
      bits, rate);
}

void print_table(std::ostream& os, const std::string& title,
                 const std::string& x_label, const std::vector<double>& xs,
                 const std::vector<Series>& series, int precision) {
  os << "== " << title << " ==\n";
  os << std::setw(14) << x_label;
  for (const Series& s : series) os << std::setw(14) << s.label;
  os << "\n";
  os << std::fixed << std::setprecision(precision);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << std::setw(14) << xs[i];
    for (const Series& s : series) {
      if (i < s.values.size()) {
        os << std::setw(14) << s.values[i];
      } else {
        os << std::setw(14) << "-";
      }
    }
    os << "\n";
  }
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6) << std::flush;
}

}  // namespace fmbs::core
