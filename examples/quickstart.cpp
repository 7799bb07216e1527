// Quickstart: the smallest complete use of the library.
//
// A news station broadcasts on 94.9 MHz; a poster-mounted tag backscatters
// the message "HELLO FM BACKSCATTER" as a CRC-framed packet at 100 bps into
// the empty channel 600 kHz up; a phone tuned to 95.5 MHz decodes it from
// its FM radio audio output. Everything — station, RF, tag switch, channel,
// receiver — is the real pipeline.
//
//   $ ./quickstart
#include <cstdio>
#include <string>

#include "core/fmbs.h"

int main() {
  using namespace fmbs;

  // 1. Describe the scene: program genre, power at the tag, tag->phone range.
  core::ExperimentPoint point;
  point.genre = audio::ProgramGenre::kNews;
  point.tag_power = units::Dbm{-35.0};  // typical urban ambient power (paper Fig. 2)
  point.distance = units::Feet{6.0};

  // 2. Build the tag's transmission: frame the message, modulate 2-FSK.
  const std::string message = "HELLO FM BACKSCATTER";
  const std::vector<std::uint8_t> payload(message.begin(), message.end());
  const auto bits = tag::encode_frame(payload);
  const auto waveform = tag::modulate_fsk(bits, tag::DataRate::k100bps,
                                          fm::kAudioRate);
  const auto tag_baseband =
      tag::compose_overlay_baseband(waveform, core::kOverlayLevel);

  std::printf("tag: %zu payload bytes -> %zu bits -> %.2f s on air at 100 bps\n",
              payload.size(), bits.size(), waveform.duration_seconds());

  // 3. Build the one-tag scene and price its link: the plan's in-channel
  // power at the phone, and the reflection's budget relative to the tag.
  const double duration = waveform.duration_seconds() + 0.2;
  const core::Scenario scene =
      core::make_scenario(point, tag_baseband, units::Seconds{duration});
  const double rx_dbm =
      core::resolve_scenario_plan(scene).rx_power_dbm[0][0][0];
  channel::LinkBudgetConfig link = scene.receivers[0].link;
  link.tag_antenna_gain = units::Db{scene.tags[0].antenna.effective_gain_db()};
  link.rx_antenna_gain = core::receiver_antenna_gain(scene.receivers[0]);
  const channel::BackscatterPath path = channel::compute_backscatter_path(
      point.tag_power, std::nullopt, point.distance.to_meters(), link);
  std::printf("scene: backscatter reaches the phone at %.1f dBm (budget %+.1f dB)\n",
              rx_dbm, path.budget.backscatter_gain.raw());

  // 4. Run the physical simulation and decode on the phone: FM audio out ->
  // FSK demod -> frame decode.
  const core::ScenarioResult result = core::ScenarioEngine().run(scene);
  const auto demod = rx::demodulate_fsk(result.receivers[0].capture.mono,
                                        tag::DataRate::k100bps, bits.size());
  const auto decoded = tag::decode_frame(demod.bits);
  if (!decoded) {
    std::puts("no intact frame decoded (try a stronger scene)");
    return 1;
  }
  const std::string text(decoded->begin(), decoded->end());
  std::printf("phone decoded: \"%s\" (CRC ok)\n", text.c_str());
  return text == message ? 0 : 1;
}
