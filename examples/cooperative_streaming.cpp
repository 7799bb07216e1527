// Cooperative backscatter (paper section 3.3): two phones near a poster
// share their FM audio over Wi-Fi Direct / Bluetooth and form a 2x2 MIMO
// system. Phone 1 tunes to the ambient station, phone 2 to the backscatter
// channel; after x10 resampling, cross-correlation alignment and 13 kHz
// pilot AGC calibration, subtracting the streams cancels the station and
// leaves clean tag audio. Writes before/after WAVs.
//
//   $ ./cooperative_streaming [out_dir]
#include <cstdio>
#include <string>

#include "core/fmbs.h"

int main(int argc, char** argv) {
  using namespace fmbs;
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  core::ExperimentPoint point;
  point.genre = audio::ProgramGenre::kNews;
  point.tag_power = units::Dbm{-35.0};
  point.distance = units::Feet{6.0};

  // Tag content: a speech clip, preceded by the 13 kHz calibration preamble.
  const double seconds = 4.0;
  audio::SpeechConfig sc;
  sc.pitch_hz = 170.0;
  const audio::MonoBuffer speech =
      audio::synthesize_speech(sc, seconds, fm::kAudioRate, 42);
  tag::CoopPilotConfig pilot;
  core::Scenario scene = core::make_scenario(
      point,
      tag::compose_cooperative_baseband(speech, core::kOverlayLevel, pilot),
      units::Seconds{seconds + pilot.preamble_seconds + 0.2});
  core::ScenarioReceiver& phone2 = scene.receivers[0];  // the tag's channel
  phone2.phone.enable_agc = true;  // the problem the pilot calibrates out
  phone2.phone.agc.attack_seconds = 0.4;
  phone2.phone.agc.release_seconds = 2.0;
  phone2.phone.agc.min_gain = 0.5;
  phone2.phone.agc.max_gain = 2.0;
  core::ScenarioReceiver phone1 = phone2;  // the ambient station
  phone1.tune_offset = units::Hertz{0.0};
  phone1.noise_seed = *phone2.noise_seed + 0x9e3779b9ULL;  // its own noise
  scene.receivers.push_back(std::move(phone1));

  std::puts("simulating two phones next to the poster...");
  const core::ScenarioResult sim = core::ScenarioEngine().run(scene);
  const audio::MonoBuffer& ambient = sim.receivers[1].capture.mono;
  const audio::MonoBuffer& composite = sim.receivers[0].capture.mono;

  rx::CooperativeConfig coop;
  coop.pilot = pilot;
  const rx::CooperativeResult result =
      rx::cancel_ambient(ambient, composite, coop);

  std::printf("alignment: %.1f samples @ x10 rate; AGC ratio %.2f; ambient "
              "gain %.2f\n",
              result.delay_samples, result.agc_ratio, result.ambient_gain);

  const double pesq_before = audio::pesq_like(speech, composite);
  const double pesq_after = audio::pesq_like(speech, result.backscatter_audio);
  std::printf("PESQ-like: overlay (phone 2 alone) %.2f -> cooperative %.2f\n",
              pesq_before, pesq_after);
  std::printf("(paper: ~2 -> ~4)\n");

  audio::write_wav(out_dir + "/coop_phone2_composite.wav", composite);
  audio::write_wav(out_dir + "/coop_cancelled.wav", result.backscatter_audio);
  std::printf("wrote %s/coop_phone2_composite.wav and %s/coop_cancelled.wav\n",
              out_dir.c_str(), out_dir.c_str());
  return pesq_after > pesq_before ? 0 : 1;
}
