#include "rx/cooperative.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/correlate.h"
#include "dsp/goertzel.h"
#include "dsp/iir.h"
#include "dsp/resample.h"

namespace fmbs::rx {

namespace {

double pilot_amplitude(std::span<const float> block, double pilot_hz, double rate) {
  if (block.empty()) return 0.0;
  // goertzel_power returns ~A^2/4 for a sinusoid of amplitude A.
  return 2.0 * std::sqrt(dsp::goertzel_power(block, pilot_hz, rate));
}

}  // namespace

CooperativeResult cancel_ambient(const audio::MonoBuffer& phone1,
                                 const audio::MonoBuffer& phone2,
                                 const CooperativeConfig& config) {
  if (phone1.empty() || phone2.empty()) {
    throw std::invalid_argument("cancel_ambient: empty input");
  }
  if (phone1.sample_rate != phone2.sample_rate) {
    throw std::invalid_argument("cancel_ambient: sample rate mismatch");
  }
  const double rate = phone1.sample_rate;
  const std::size_t up = config.resample_factor;
  const double up_rate = rate * static_cast<double>(up);

  // 1) Software resampling x10 (paper) and time alignment. The alignment is
  // coarse-to-fine: a whole-sample estimate at the native rate bounds the
  // search, then the x10 streams refine to 1/10-sample resolution — same
  // result as a full search at the upsampled rate at a fraction of the cost.
  const dsp::rvec a1 = dsp::upsample_linear(phone1.samples, up);
  const dsp::rvec a2 = dsp::upsample_linear(phone2.samples, up);

  const auto coarse_lag =
      static_cast<std::size_t>(config.max_align_seconds * rate);
  const auto window = std::min<std::size_t>(phone1.samples.size(),
                                            static_cast<std::size_t>(rate));
  const std::size_t skip = window / 8;  // skip receiver/AGC settling
  const dsp::DelayEstimate coarse = dsp::estimate_delay(
      std::span<const float>(phone2.samples).subspan(skip, window - skip),
      std::span<const float>(phone1.samples).subspan(skip, window - skip),
      coarse_lag);
  const long coarse_up = std::lround(coarse.delay_samples * static_cast<double>(up));

  // Fine search: +-2 native samples around the coarse peak at the x10 rate.
  const std::size_t fine_window = std::min<std::size_t>(a2.size(), window * up);
  const std::size_t fine_skip = fine_window / 8;
  const auto fine_span_a2 =
      std::span<const float>(a2).subspan(fine_skip, fine_window - fine_skip);
  const dsp::rvec a1_pre = dsp::shift_signal(a1, -coarse_up);
  const auto fine_span_a1 =
      std::span<const float>(a1_pre).subspan(fine_skip, fine_window - fine_skip);
  const dsp::DelayEstimate fine =
      dsp::estimate_delay(fine_span_a2, fine_span_a1, 2 * up);

  dsp::DelayEstimate est;
  est.delay_samples = static_cast<double>(coarse_up) + fine.delay_samples;
  est.peak_correlation = fine.peak_correlation;
  const long shift = std::lround(est.delay_samples);
  const dsp::rvec a1_aligned = dsp::shift_signal(a1, -shift);

  // 2) AGC calibration from the 13 kHz pilot.
  const auto preamble_len =
      static_cast<std::size_t>(config.pilot.preamble_seconds * up_rate);
  if (preamble_len + 16 >= a2.size()) {
    throw std::invalid_argument("cancel_ambient: signal shorter than preamble");
  }
  // Skip the edges of the preamble (filter transients).
  const std::size_t pre_start = preamble_len / 8;
  const std::size_t pre_count = preamble_len * 3 / 4;
  const double amp_pre = pilot_amplitude(
      std::span<const float>(a2).subspan(pre_start, pre_count),
      config.pilot.pilot_hz, up_rate);
  const double amp_pay = pilot_amplitude(
      std::span<const float>(a2).subspan(preamble_len,
                                         a2.size() - preamble_len),
      config.pilot.pilot_hz, up_rate);
  // Pilot level at the tag: preamble_level during preamble, payload_level
  // during payload; normalize both to recover the receiver gain change.
  const double tx_ratio = config.pilot.preamble_level / config.pilot.payload_level;
  double agc_ratio = 1.0;
  if (amp_pay > 1e-9 && amp_pre > 1e-9) {
    agc_ratio = amp_pre / (amp_pay * tx_ratio);
  }

  dsp::rvec a2_cal(a2.size());
  for (std::size_t i = 0; i < a2.size(); ++i) {
    a2_cal[i] = i < preamble_len ? a2[i]
                                 : static_cast<float>(a2[i] * agc_ratio);
  }

  // 3) Least-squares fit of phone1 onto phone2 over the (gain-corrected)
  // payload region. The backscattered content is uncorrelated with the
  // ambient program, so it does not bias the fit, and using the whole
  // payload keeps the estimate robust even when the program pauses (speech
  // gaps) during the short preamble.
  double num = 0.0, den = 0.0;
  for (std::size_t i = preamble_len; i < a2_cal.size(); ++i) {
    num += static_cast<double>(a2_cal[i]) * a1_aligned[i];
    den += static_cast<double>(a1_aligned[i]) * a1_aligned[i];
  }
  const double g = den > 1e-20 ? num / den : 1.0;

  // 4) Subtract and return the payload region at the original rate.
  dsp::rvec diff(a2_cal.size());
  for (std::size_t i = 0; i < a2_cal.size(); ++i) {
    diff[i] = a2_cal[i] - static_cast<float>(g) * a1_aligned[i];
  }
  dsp::rvec payload(diff.begin() + static_cast<std::ptrdiff_t>(preamble_len),
                    diff.end());
  dsp::rvec down = dsp::downsample_keep(payload, up);

  if (config.notch_pilot) {
    dsp::Biquad notch(dsp::biquad_notch(config.pilot.pilot_hz / rate, 8.0));
    notch.process_inplace(down);
  }

  CooperativeResult result;
  result.backscatter_audio = audio::MonoBuffer(std::move(down), rate);
  result.delay_samples = est.delay_samples;
  result.agc_ratio = agc_ratio;
  result.ambient_gain = g;
  return result;
}

}  // namespace fmbs::rx
