#include "core/experiment.h"

#include <cmath>
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

double duration_for_bits(tag::DataRate rate, std::size_t num_bits) {
  return static_cast<double>(num_bits) / tag::bits_per_second(rate) + 0.15;
}

/// Settle time before the data starts: lets the receiver filters, pilot
/// envelope tracker and AGC converge so the first symbol is clean (real
/// deployments begin every packet with a preamble that serves the same
/// purpose).
constexpr double kSettleSeconds = 0.08;

audio::MonoBuffer with_lead_in(const audio::MonoBuffer& wave) {
  return audio::concat(audio::make_silence(kSettleSeconds, wave.sample_rate), wave);
}

audio::MonoBuffer drop_lead_in(const audio::MonoBuffer& mono) {
  const auto skip = static_cast<std::size_t>(kSettleSeconds * mono.sample_rate);
  if (mono.size() <= skip) return mono;
  return audio::MonoBuffer(
      std::vector<float>(mono.samples.begin() + static_cast<std::ptrdiff_t>(skip),
                         mono.samples.end()),
      mono.sample_rate);
}

// The pipeline group delay shifts the data by a few tens of samples, so the
// final symbol of the last repetition ends just past the trimmed combine
// buffer. Repetitions are cyclic, so extending the buffer with its own head
// restores that tail for the demodulator.
void extend_circularly(audio::MonoBuffer& combined) {
  const std::size_t extra = std::min<std::size_t>(combined.size(), 480);
  combined.samples.insert(combined.samples.end(), combined.samples.begin(),
                          combined.samples.begin() + static_cast<std::ptrdiff_t>(extra));
}

/// Runs `sc` and returns the capture of its first receiver (the device on
/// the tag's channel).
ReceiverCapture capture_of(const Scenario& sc) {
  return std::move(ScenarioEngine().run(sc).receivers[0].capture);
}

rx::BerResult demodulate_and_compare(const audio::MonoBuffer& audio_in,
                                     const std::vector<std::uint8_t>& bits,
                                     tag::DataRate rate) {
  const rx::FskDemodResult demod =
      rx::demodulate_fsk(audio_in, rate, bits.size());
  return rx::compare_bits(bits, demod.bits);
}

audio::MonoBuffer tag_speech(double duration_seconds, std::uint64_t seed) {
  audio::SpeechConfig sc;
  sc.pitch_hz = 165.0;  // distinct voice from the news announcer
  sc.level_rms = 0.2;
  return audio::synthesize_speech(sc, duration_seconds, fm::kAudioRate, seed);
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
  const double duration_seconds = duration.raw();
  const audio::MonoBuffer tone_wave =
      audio::make_tone(tone_hz, 1.0, duration_seconds, fm::kAudioRate);
  Scenario sc = make_scenario(
      point,
      stereo_band
          ? tag::compose_stereo_baseband(tone_wave, /*insert_pilot=*/true)
          : tag::compose_overlay_baseband(tone_wave, kOverlayLevel),
      duration);
  // Fig. 6 methodology: "we simulate an FM station transmitting no audio
  // information (FM_audio = 0, a single tone at fc)".
  sc.station.program.genre = audio::ProgramGenre::kSilence;
  sc.station.program.stereo = false;
  const ReceiverCapture heard = capture_of(sc);

  const audio::MonoBuffer& measured =
      stereo_band ? heard.stereo.side() : heard.mono;
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
  const audio::MonoBuffer wave = with_lead_in(
      tag::modulate_fsk(bits, rate, fm::kAudioRate));
  const ReceiverCapture heard = capture_of(make_scenario(
      point, tag::compose_overlay_baseband(wave, kOverlayLevel),
      units::Seconds{duration_for_bits(rate, num_bits) + kSettleSeconds}));
  return demodulate_and_compare(drop_lead_in(heard.mono), bits, rate);
}

rx::BerResult run_overlay_ber_mrc(const ExperimentPoint& point, tag::DataRate rate,
                                  std::size_t num_bits, std::size_t repetitions) {
  if (repetitions == 0) throw std::invalid_argument("run_overlay_ber_mrc: 0 reps");
  const auto bits =
      tag::random_bits(num_bits, point.seed + kContentSeedOffset);
  const audio::MonoBuffer one = tag::modulate_fsk(bits, rate, fm::kAudioRate);
  audio::MonoBuffer all = one;
  for (std::size_t r = 1; r < repetitions; ++r) all = audio::concat(all, one);

  const double payload_seconds = all.duration_seconds();
  const ReceiverCapture heard = capture_of(make_scenario(
      point, tag::compose_overlay_baseband(with_lead_in(all), kOverlayLevel),
      units::Seconds{payload_seconds + kSettleSeconds + 0.15}));

  // Trim the padding tail so the N segments tile exactly, then combine.
  audio::MonoBuffer mono = drop_lead_in(heard.mono);
  const auto payload_samples =
      static_cast<std::size_t>(payload_seconds * fm::kAudioRate);
  if (mono.size() > payload_samples) mono.samples.resize(payload_samples);
  // Repetitions are sample-synchronous here (one capture), so realignment is
  // disabled: a +-1 sample correlation error would rotate the highest FSK
  // tones enough to partially cancel instead of combine.
  audio::MonoBuffer combined = rx::mrc_combine(mono, repetitions, 0);
  extend_circularly(combined);
  return demodulate_and_compare(combined, bits, rate);
}

rx::BerResult run_overlay_ber_coded(const ExperimentPoint& point,
                                    tag::DataRate rate, std::size_t payload_bits,
                                    tag::FecScheme scheme) {
  const auto payload =
      tag::random_bits(payload_bits, point.seed + kContentSeedOffset);
  const auto coded = tag::fec_encode(payload, scheme);
  const audio::MonoBuffer wave =
      with_lead_in(tag::modulate_fsk(coded, rate, fm::kAudioRate));
  const ReceiverCapture heard = capture_of(make_scenario(
      point, tag::compose_overlay_baseband(wave, kOverlayLevel),
      units::Seconds{duration_for_bits(rate, coded.size()) + kSettleSeconds}));
  const rx::FskDemodResult demod =
      rx::demodulate_fsk(drop_lead_in(heard.mono), rate, coded.size());
  const auto decoded = tag::fec_decode(demod.bits, scheme, payload_bits);
  return rx::compare_bits(payload, decoded);
}

rx::BerResult run_stereo_ber(const ExperimentPoint& point, tag::DataRate rate,
                             std::size_t num_bits) {
  const bool insert_pilot = !point.stereo_station;  // mono-to-stereo conversion
  const auto bits =
      tag::random_bits(num_bits, point.seed + kContentSeedOffset);
  const audio::MonoBuffer wave = with_lead_in(
      tag::modulate_fsk(bits, rate, fm::kAudioRate));
  const ReceiverCapture heard = capture_of(make_scenario(
      point, tag::compose_stereo_baseband(wave, insert_pilot),
      units::Seconds{duration_for_bits(rate, num_bits) + kSettleSeconds}));
  // The receiver outputs L and R; recover the stereo stream as (L-R)/2.
  return demodulate_and_compare(drop_lead_in(heard.stereo.side()), bits, rate);
}

double run_overlay_pesq(const ExperimentPoint& point, units::Seconds duration) {
  const double duration_seconds = duration.raw();
  const audio::MonoBuffer speech =
      tag_speech(duration_seconds, point.seed + kContentSeedOffset);
  const ReceiverCapture heard = capture_of(make_scenario(
      point, tag::compose_overlay_baseband(speech, kOverlayLevel),
      units::Seconds{duration_seconds + 0.1}));
  return audio::pesq_like(speech, heard.mono);
}

double run_stereo_pesq(const ExperimentPoint& point, units::Seconds duration) {
  const double duration_seconds = duration.raw();
  const bool insert_pilot = !point.stereo_station;
  const audio::MonoBuffer speech =
      tag_speech(duration_seconds, point.seed + kContentSeedOffset);
  const ReceiverCapture heard = capture_of(make_scenario(
      point, tag::compose_stereo_baseband(speech, insert_pilot),
      units::Seconds{duration_seconds + 0.1}));
  return audio::pesq_like(speech, heard.stereo.side());
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
  const audio::MonoBuffer one = tag::modulate_fsk(bits, rate, fm::kAudioRate);
  audio::MonoBuffer all = one;
  for (std::size_t r = 1; r < mrc_repetitions; ++r) all = audio::concat(all, one);
  const double payload_seconds = all.duration_seconds();
  Scenario sc = make_scenario(
      point, tag::compose_overlay_baseband(with_lead_in(all), kOverlayLevel),
      units::Seconds{payload_seconds + kSettleSeconds + 0.15});
  sc.tags[0].antenna = tag::tshirt_meander_antenna(/*worn=*/true);
  sc.tags[0].fading = channel::fading_for_mobility(mobility);
  // On-body operation adds absorption and detuning beyond the antenna's own
  // efficiency: the link runs with little margin, which is exactly why the
  // paper measures visible BER here.
  sc.receivers[0].link.implementation_loss = units::Db{13.0};

  audio::MonoBuffer combined = drop_lead_in(capture_of(sc).mono);
  if (mrc_repetitions > 1) {
    // Trim the padding tail so the N segments tile exactly, combine, then
    // restore the group-delayed tail of the last symbol circularly.
    const auto payload_samples =
        static_cast<std::size_t>(payload_seconds * fm::kAudioRate);
    if (combined.size() > payload_samples) {
      combined.samples.resize(payload_samples);
    }
    combined = rx::mrc_combine(combined, mrc_repetitions, 0);
    extend_circularly(combined);
  }
  return demodulate_and_compare(combined, bits, rate);
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
