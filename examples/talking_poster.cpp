// Talking poster (paper section 6.1): a bus-stop poster with a copper-tape
// dipole backscatters a local news station. It simultaneously
//  * overlays a music snippet for anyone who tunes to the shifted channel,
//  * broadcasts a notification packet ("SIMPLY THREE - 50% OFF TONIGHT") at
//    100 bps that a phone app can decode from the same audio.
// Writes the received audio to /tmp so you can listen to the composite.
//
//   $ ./talking_poster [out_dir]
#include <cstdio>
#include <string>

#include "core/fmbs.h"

int main(int argc, char** argv) {
  using namespace fmbs;
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  // The paper's deployment: news station at 94.9 MHz, -35..-40 dBm at the
  // poster, user ~10 ft away with headphones.
  core::ExperimentPoint point;
  point.genre = audio::ProgramGenre::kNews;
  point.tag_power = units::Dbm{-37.0};
  point.distance = units::Feet{10.0};

  // Content: 4 s of music, then the notification packet, looped by the tag.
  const double music_seconds = 4.0;
  const audio::MonoBuffer music = audio::synthesize_music(
      audio::pop_music_config(), music_seconds, fm::kAudioRate, 7);

  const std::string notice = "SIMPLY THREE - 50% OFF TONIGHT";
  const auto bits = tag::encode_frame(
      std::vector<std::uint8_t>(notice.begin(), notice.end()));
  const audio::MonoBuffer packet =
      tag::modulate_fsk(bits, tag::DataRate::k100bps, fm::kAudioRate);

  const audio::MonoBuffer content = audio::concat(music, packet);
  core::Scenario scene = core::make_scenario(
      point, tag::compose_overlay_baseband(content, core::kOverlayLevel),
      units::Seconds{content.duration_seconds() + 0.2});
  // The 40"x60" prototype's copper-tape dipole.
  scene.tags[0].antenna = tag::poster_dipole_antenna();

  std::printf("poster: %s, %.1f s music + %zu-bit packet\n",
              scene.tags[0].antenna.name.c_str(), music_seconds, bits.size());

  const core::ScenarioResult result = core::ScenarioEngine().run(scene);
  const audio::MonoBuffer& received = result.receivers[0].capture.mono;

  // The phone hears the composite: station news + poster music/packet.
  audio::write_wav(out_dir + "/talking_poster_received.wav", received);
  audio::write_wav(out_dir + "/talking_poster_station_only.wav",
                   result.station->program.mid());
  std::printf("wrote %s/talking_poster_received.wav (what the user hears)\n",
              out_dir.c_str());

  // Decode the notification from the tail of the capture.
  const auto music_samples =
      static_cast<std::size_t>(music_seconds * fm::kAudioRate);
  audio::MonoBuffer tail(
      std::vector<float>(
          received.samples.begin() + static_cast<std::ptrdiff_t>(music_samples),
          received.samples.end()),
      fm::kAudioRate);
  const auto demod =
      rx::demodulate_fsk(tail, tag::DataRate::k100bps, bits.size());
  const auto frame = tag::decode_frame(demod.bits);
  if (frame) {
    std::printf("notification decoded: \"%s\"\n",
                std::string(frame->begin(), frame->end()).c_str());
  } else {
    std::puts("notification not decoded");
    return 1;
  }

  // Audio quality of the overlaid music for the curious.
  const audio::MonoBuffer head(
      std::vector<float>(received.samples.begin(),
                         received.samples.begin() +
                             static_cast<std::ptrdiff_t>(music_samples)),
      fm::kAudioRate);
  std::printf("overlay music PESQ-like score: %.2f (paper: ~2 is clearly audible)\n",
              audio::pesq_like(music, head));
  return 0;
}
