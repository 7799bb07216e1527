// Smart fabric (paper section 6.2): a t-shirt with a machine-sewn meander
// dipole of conductive thread streams vital signs (heart rate, breathing
// rate, step count) to the wearer's phone while standing, walking and
// running. Sensor readings are packed into CRC frames and sent at 100 bps
// (robust) with a 1.6 kbps + 2x MRC comparison, over a live news broadcast.
//
//   $ ./smart_fabric
#include <cstdio>
#include <cstdint>
#include <vector>

#include "core/fmbs.h"

namespace {

using namespace fmbs;

// A vital-signs sample as the shirt's sensor hub would report it.
struct Vitals {
  std::uint8_t heart_rate_bpm;
  std::uint8_t breaths_per_min;
  std::uint16_t steps;
};

std::vector<std::uint8_t> pack(const Vitals& v) {
  return {v.heart_rate_bpm, v.breaths_per_min,
          static_cast<std::uint8_t>(v.steps >> 8),
          static_cast<std::uint8_t>(v.steps & 0xFF)};
}

bool stream_vitals(channel::Mobility mobility, const char* label,
                   const Vitals& vitals) {
  core::ExperimentPoint point;
  point.genre = audio::ProgramGenre::kNews;
  point.tag_power = units::Dbm{-37.5};  // outdoor ambient level (paper section 6.2)
  point.distance = units::Feet{2.0};    // shirt to pocket/hand

  const auto bits = tag::encode_frame(pack(vitals));
  const auto wave = tag::modulate_fsk(bits, tag::DataRate::k100bps, fm::kAudioRate);
  core::Scenario scene = core::make_scenario(
      point, tag::compose_overlay_baseband(wave, core::kOverlayLevel),
      units::Seconds{wave.duration_seconds() + 0.2});
  scene.tags[0].antenna = tag::tshirt_meander_antenna(/*worn=*/true);
  scene.tags[0].fading = channel::fading_for_mobility(mobility);
  const core::ScenarioResult result = core::ScenarioEngine().run(scene);

  const auto demod = rx::demodulate_fsk(result.receivers[0].capture.mono,
                                        tag::DataRate::k100bps, bits.size());
  const auto frame = tag::decode_frame(demod.bits);
  if (!frame || frame->size() != 4) {
    std::printf("  %-9s packet lost\n", label);
    return false;
  }
  const auto& f = *frame;
  const int steps = (f[2] << 8) | f[3];
  std::printf("  %-9s HR %3d bpm, breath %2d /min, steps %5d  (CRC ok)\n",
              label, f[0], f[1], steps);
  return true;
}

}  // namespace

int main() {
  std::puts("Smart fabric: vital signs over FM backscatter");
  std::printf("antenna: %s (worn; body loss applied)\n\n",
              tag::tshirt_meander_antenna(true).name.c_str());

  bool ok = true;
  ok &= stream_vitals(channel::Mobility::kStanding, "standing", {62, 14, 0});
  ok &= stream_vitals(channel::Mobility::kWalking, "walking", {84, 18, 1204});
  ok &= stream_vitals(channel::Mobility::kRunning, "running", {148, 28, 3577});

  // Rate comparison at the paper's Fig. 17b operating points.
  std::puts("\nBER check (paper Fig. 17b):");
  for (const auto& [mobility, label] :
       {std::pair{channel::Mobility::kStanding, "standing"},
        std::pair{channel::Mobility::kWalking, "walking"},
        std::pair{channel::Mobility::kRunning, "running"}}) {
    const auto slow =
        core::run_fabric_ber(mobility, tag::DataRate::k100bps, 160, 1);
    const auto fast =
        core::run_fabric_ber(mobility, tag::DataRate::k1600bps, 480, 2);
    std::printf("  %-9s 100bps BER %.4f | 1.6kbps+2xMRC BER %.4f\n", label,
                slow.ber, fast.ber);
  }
  return ok ? 0 : 1;
}
