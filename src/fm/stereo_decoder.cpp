#include "fm/stereo_decoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/goertzel.h"
#include "dsp/iir.h"
#include "dsp/math_util.h"
#include "fm/emphasis.h"

namespace fmbs::fm {

namespace {
constexpr std::size_t kChannelFilterTaps = 127;  // odd -> integer group delay
}

StereoDecodeResult decode_stereo(std::span<const float> mpx,
                                 const StereoDecoderConfig& config) {
  if (mpx.empty()) throw std::invalid_argument("decode_stereo: empty mpx");
  const double rate = config.mpx_rate;
  const double audio_ratio = rate / config.audio_rate;
  const auto decim = static_cast<std::size_t>(audio_ratio + 0.5);
  if (std::abs(audio_ratio - static_cast<double>(decim)) > 1e-9 || decim == 0) {
    throw std::invalid_argument("decode_stereo: mpx_rate must be an integer multiple of audio_rate");
  }

  StereoDecodeResult result;

  // ---- Pilot measurement. Real pilot detectors integrate over short
  // windows (a PLL lock detector with a few-hundred-Hz bandwidth), so the
  // detection SNR is pilot power against the noise inside that bandwidth —
  // this is what makes weak-signal receivers "default back to mono mode"
  // (paper section 5.3). 8 ms windows approximate a ~125 Hz detector.
  const double flank_lo = kPilotHz - 600.0;
  const double flank_hi = kPilotHz + 600.0;
  const auto window = static_cast<std::size_t>(0.008 * rate);
  std::vector<double> window_snr;
  for (std::size_t start = 0; start + window <= mpx.size(); start += window) {
    const auto block = mpx.subspan(start, window);
    const double p_pilot = dsp::goertzel_power(block, kPilotHz, rate);
    const double p_noise = 0.5 * (dsp::goertzel_power(block, flank_lo, rate) +
                                  dsp::goertzel_power(block, flank_hi, rate));
    window_snr.push_back(
        dsp::db_from_power_ratio(p_pilot / std::max(p_noise, 1e-30)));
  }
  result.pilot_snr_db =
      window_snr.empty()
          ? dsp::db_from_power_ratio(
                dsp::goertzel_power(mpx, kPilotHz, rate) /
                std::max(0.5 * (dsp::goertzel_power(mpx, flank_lo, rate) +
                                dsp::goertzel_power(mpx, flank_hi, rate)),
                         1e-30))
          : dsp::quantile(window_snr, 0.5);
  const bool stereo_mode = !config.force_mono &&
                           result.pilot_snr_db >= config.pilot_detect_threshold.raw();
  result.pilot_detected = stereo_mode;

  // ---- Mono path: L+R below 15 kHz. ----
  dsp::FirFilter<float> mono_lp(
      dsp::fir_design_lowpass(kChannelFilterTaps, kMonoAudioHiHz / rate));
  dsp::rvec mid(mpx.size());
  mono_lp.process_into(mpx, mid);

  dsp::rvec side(mid.size(), 0.0F);
  if (stereo_mode) {
    // ---- Pilot extraction and 38 kHz carrier regeneration. ----
    dsp::Biquad pilot_bp(dsp::biquad_bandpass(kPilotHz / rate, 40.0));
    dsp::OnePoleLowpass env_lp = dsp::OnePoleLowpass::from_corner(200.0, rate);
    dsp::rvec carrier38(mpx.size());
    for (std::size_t i = 0; i < mpx.size(); ++i) {
      const float p = pilot_bp.process_sample(mpx[i]);
      // Envelope: amplitude^2 = 2 * lowpass(p^2) for a sinusoid.
      const float e2 = env_lp.process_sample(p * p) * 2.0F;
      const float amp = std::sqrt(std::max(e2, 1e-12F));
      const float s = std::clamp(p / amp, -1.0F, 1.0F);  // ~cos(theta)
      carrier38[i] = 2.0F * s * s - 1.0F;                // cos(2 theta)
    }

    // ---- Stereo subband, synchronous demodulation. ----
    dsp::FirFilter<float> stereo_bp(dsp::fir_design_bandpass(
        kChannelFilterTaps, kStereoBandLoHz / rate, kStereoBandHiHz / rate));
    dsp::rvec sub(mpx.size());
    stereo_bp.process_into(mpx, sub);
    // The band-pass delays the subcarrier by (N-1)/2 samples; delay the
    // regenerated carrier equally so the product is phase-coherent.
    const std::size_t delay = (kChannelFilterTaps - 1) / 2;
    dsp::rvec product(sub.size(), 0.0F);
    for (std::size_t i = delay; i < sub.size(); ++i) {
      product[i] = 2.0F * sub[i] * carrier38[i - delay];
    }
    dsp::FirFilter<float> side_lp(
        dsp::fir_design_lowpass(kChannelFilterTaps, kMonoAudioHiHz / rate));
    side_lp.process_into(product, side);
    // `side` now lags `mid` by one extra channel-filter delay; realign.
    dsp::rvec aligned(side.size(), 0.0F);
    const std::size_t lag = (kChannelFilterTaps - 1) / 2;
    for (std::size_t i = 0; i + lag < side.size(); ++i) {
      aligned[i] = side[i + lag];
    }
    // mid must also discard its own leading transient consistently; both
    // paths share the first filter's delay so only the extra lag differs.
    side = std::move(aligned);
  }

  // ---- Matrix back to L/R, undo the program level, decimate to audio rate.
  const float inv_level = config.program_level > 0.0
                              ? static_cast<float>(1.0 / config.program_level)
                              : 1.0F;
  dsp::rvec left_mpx(mid.size()), right_mpx(mid.size());
  for (std::size_t i = 0; i < mid.size(); ++i) {
    const float m = mid[i] * inv_level;
    const float s = side[i] * inv_level;
    left_mpx[i] = m + s;
    right_mpx[i] = m - s;
  }

  const std::size_t trimmed = left_mpx.size() / decim * decim;
  left_mpx.resize(trimmed);
  right_mpx.resize(trimmed);
  const auto audio_taps = dsp::fir_design_lowpass(
      kChannelFilterTaps, 0.45 / static_cast<double>(decim));
  dsp::FirDecimator<float> dec_l(audio_taps, decim);
  dsp::FirDecimator<float> dec_r(audio_taps, decim);
  std::vector<float> left(trimmed / decim);
  std::vector<float> right(trimmed / decim);
  dec_l.process_into(left_mpx, left);
  dec_r.process_into(right_mpx, right);

  if (config.deemphasis) {
    DeEmphasis de_l(units::Seconds{kDeemphasisSeconds}, config.audio_rate);
    DeEmphasis de_r(units::Seconds{kDeemphasisSeconds}, config.audio_rate);
    de_l.process_inplace(left);
    de_r.process_inplace(right);
  }

  result.audio =
      audio::StereoBuffer(std::move(left), std::move(right), config.audio_rate);
  return result;
}

}  // namespace fmbs::fm
