#include "tag/baseband.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/nco.h"
#include "fm/rds.h"

namespace fmbs::tag {

namespace {

dsp::rvec upsample_to_mpx(const audio::MonoBuffer& content, double mpx_rate) {
  if (content.sample_rate <= 0.0 || mpx_rate <= 0.0) {
    throw std::invalid_argument("tag baseband: bad sample rate");
  }
  const double ratio = mpx_rate / content.sample_rate;
  const auto factor = static_cast<std::size_t>(ratio + 0.5);
  if (factor == 0 || std::abs(ratio - static_cast<double>(factor)) > 1e-9) {
    throw std::invalid_argument(
        "tag baseband: mpx_rate must be an integer multiple of the content rate");
  }
  if (factor == 1) return content.samples;
  dsp::FirInterpolator<float> interp(
      dsp::fir_design_lowpass((16 * factor) | 1U,
                              0.45 / static_cast<double>(factor)),
      factor);
  return interp.process(content.samples);
}

}  // namespace

dsp::rvec compose_overlay_baseband(const audio::MonoBuffer& content, double level,
                                   double mpx_rate) {
  dsp::rvec up = upsample_to_mpx(content, mpx_rate);
  const auto g = static_cast<float>(level);
  for (auto& v : up) v *= g;
  return up;
}

dsp::rvec compose_stereo_baseband(const audio::MonoBuffer& side_content,
                                  bool insert_pilot, double mpx_rate) {
  dsp::rvec up = upsample_to_mpx(side_content, mpx_rate);
  dsp::Oscillator subcarrier(fm::kStereoCarrierHz, mpx_rate);
  dsp::Oscillator pilot(fm::kPilotHz, mpx_rate);
  const auto prog = static_cast<float>(fm::kProgramLevel);
  const auto pil = static_cast<float>(fm::kPilotLevel);
  for (auto& v : up) {
    float s = prog * v * subcarrier.next_real();
    if (insert_pilot) {
      s += pil * pilot.next_real();
    } else {
      (void)pilot.next_real();
    }
    v = s;
  }
  return up;
}

dsp::rvec compose_cooperative_baseband(const audio::MonoBuffer& content,
                                       double level,
                                       const CoopPilotConfig& pilot_cfg,
                                       double mpx_rate) {
  dsp::rvec payload = upsample_to_mpx(content, mpx_rate);
  const auto preamble_len =
      static_cast<std::size_t>(pilot_cfg.preamble_seconds * mpx_rate);
  dsp::rvec out(preamble_len + payload.size());
  dsp::Oscillator pilot(pilot_cfg.pilot_hz, mpx_rate);
  const auto pre = static_cast<float>(pilot_cfg.preamble_level);
  const auto pay = static_cast<float>(pilot_cfg.payload_level);
  const auto g = static_cast<float>(level);
  for (std::size_t i = 0; i < preamble_len; ++i) {
    out[i] = pre * pilot.next_real();
  }
  for (std::size_t i = 0; i < payload.size(); ++i) {
    out[preamble_len + i] = g * payload[i] + pay * pilot.next_real();
  }
  return out;
}

dsp::rvec compose_rds_baseband(std::span<const unsigned char> rds_bits,
                               std::size_t num_samples, double level,
                               double mpx_rate) {
  if (!(level > 0.0 && level <= 1.0)) {  // NaN fails too
    throw std::invalid_argument("compose_rds_baseband: level must be in (0, 1]");
  }
  dsp::rvec wave = fm::modulate_rds_subcarrier(rds_bits, num_samples, mpx_rate);
  const auto g = static_cast<float>(level);
  for (auto& v : wave) v *= g;
  return wave;
}

}  // namespace fmbs::tag
