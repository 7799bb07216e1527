#include "fm/stereo_stream.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/goertzel.h"
#include "dsp/math_util.h"

namespace fmbs::fm {

namespace {
constexpr std::size_t kChannelFilterTaps = 127;  // odd -> integer group delay
constexpr std::size_t kFlushBlock = 24000;       // 0.1 s at the MPX rate
}

StereoStreamDecoder::StereoStreamDecoder(const StereoDecoderConfig& config,
                                         std::size_t total_mpx_samples,
                                         units::Seconds decision_window)
    : cfg_(config), total_(total_mpx_samples) {
  const double decision_window_seconds = decision_window.raw();
  const double rate = cfg_.mpx_rate;
  const double audio_ratio = rate / cfg_.audio_rate;
  decim_ = static_cast<std::size_t>(audio_ratio + 0.5);
  if (std::abs(audio_ratio - static_cast<double>(decim_)) > 1e-9 ||
      decim_ == 0) {
    throw std::invalid_argument(
        "StereoStreamDecoder: mpx_rate must be an integer multiple of audio_rate");
  }
  if (total_ == 0) {
    throw std::invalid_argument("StereoStreamDecoder: empty capture");
  }
  inv_level_ = cfg_.program_level > 0.0
                   ? static_cast<float>(1.0 / cfg_.program_level)
                   : 1.0F;
  decision_len_ =
      decision_window_seconds > 0.0
          ? std::min(total_, static_cast<std::size_t>(
                                 decision_window_seconds * rate))
          : total_;
  decision_buf_.reserve(decision_len_);
}

void StereoStreamDecoder::decide() {
  const double rate = cfg_.mpx_rate;
  const std::span<const float> mpx(decision_buf_);
  // Pilot measurement, verbatim from the one-shot decoder — over the
  // decision window instead of the whole capture (identical whenever the
  // window covers the capture, which it does for every golden scenario).
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
  pilot_snr_db_ =
      window_snr.empty()
          ? dsp::db_from_power_ratio(
                dsp::goertzel_power(mpx, kPilotHz, rate) /
                std::max(0.5 * (dsp::goertzel_power(mpx, flank_lo, rate) +
                                dsp::goertzel_power(mpx, flank_hi, rate)),
                         1e-30))
          : dsp::quantile(window_snr, 0.5);
  stereo_mode_ =
      !cfg_.force_mono && pilot_snr_db_ >= cfg_.pilot_detect_threshold.raw();

  mono_lp_.emplace(
      dsp::fir_design_lowpass(kChannelFilterTaps, kMonoAudioHiHz / rate));
  delay_ = (kChannelFilterTaps - 1) / 2;
  if (stereo_mode_) {
    pilot_bp_.emplace(dsp::biquad_bandpass(kPilotHz / rate, 40.0));
    env_lp_.emplace(dsp::OnePoleLowpass::from_corner(200.0, rate));
    stereo_bp_.emplace(dsp::fir_design_bandpass(
        kChannelFilterTaps, kStereoBandLoHz / rate, kStereoBandHiHz / rate));
    side_lp_.emplace(
        dsp::fir_design_lowpass(kChannelFilterTaps, kMonoAudioHiHz / rate));
    carrier_hist_.assign(delay_, 0.0F);
    mid_hist_.assign(delay_, 0.0F);
  }
  const auto audio_taps = dsp::fir_design_lowpass(
      kChannelFilterTaps, 0.45 / static_cast<double>(decim_));
  dec_l_.emplace(audio_taps, decim_);
  if (cfg_.deemphasis) {
    de_l_.emplace(units::Seconds{kDeemphasisSeconds}, cfg_.audio_rate);
  }
  if (stereo_mode_) {  // mono decodes L once and copies it to R
    dec_r_.emplace(audio_taps, decim_);
    if (cfg_.deemphasis) {
      de_r_.emplace(units::Seconds{kDeemphasisSeconds}, cfg_.audio_rate);
    }
  }
  decided_ = true;
}

void StereoStreamDecoder::process_chain(std::span<const float> mpx,
                                        dsp::rvec& left, dsp::rvec& right) {
  const std::size_t n = mpx.size();
  if (n == 0) return;
  const dsp::rvec mid = mono_lp_->process(mpx);
  if (stereo_mode_) {
    const dsp::rvec sub = stereo_bp_->process(mpx);
    product_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = processed_ + j;
      // 38 kHz carrier regeneration, sample by sample as in the one-shot
      // decoder; the ring holds the last `delay_` carrier values so the
      // product stays phase-coherent with the delayed subband.
      const float p = pilot_bp_->process_sample(mpx[j]);
      const float e2 = env_lp_->process_sample(p * p) * 2.0F;
      const float amp = std::sqrt(std::max(e2, 1e-12F));
      const float s = std::clamp(p / amp, -1.0F, 1.0F);
      const float c = 2.0F * s * s - 1.0F;
      product_[j] =
          g >= delay_ ? 2.0F * sub[j] * carrier_hist_[g % delay_] : 0.0F;
      carrier_hist_[g % delay_] = c;
    }
    const dsp::rvec side = side_lp_->process(product_);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = processed_ + j;
      if (g >= delay_) {
        // Realigned output sample g - delay_: its side value is side[g],
        // its mid value went into the ring delay_ samples ago.
        const float m = mid_hist_[g % delay_] * inv_level_;
        const float sv = side[j] * inv_level_;
        pend_l_.push_back(m + sv);
        pend_r_.push_back(m - sv);
      }
      mid_hist_[g % delay_] = mid[j];
    }
  } else {
    // Mono: R would be m - 0 beside L's m + 0, equal but for the sign of a
    // zero, which no FIR accumulator (all start at +0) carries to its
    // output. drain() decimates L alone and copies it to R.
    for (std::size_t j = 0; j < n; ++j) {
      const float m = mid[j] * inv_level_;
      const float sv = 0.0F * inv_level_;
      pend_l_.push_back(m + sv);
    }
  }
  processed_ += n;
  drain(left, right);
}

void StereoStreamDecoder::drain(dsp::rvec& left, dsp::rvec& right) {
  const std::size_t len = pend_l_.size() / decim_ * decim_;
  if (len == 0) return;
  dsp::rvec out_l =
      dec_l_->process(std::span<const float>(pend_l_.data(), len));
  if (de_l_) out_l = de_l_->process(out_l);
  left.insert(left.end(), out_l.begin(), out_l.end());
  pend_l_.erase(pend_l_.begin(),
                pend_l_.begin() + static_cast<std::ptrdiff_t>(len));
  if (!stereo_mode_) {
    right.insert(right.end(), out_l.begin(), out_l.end());
    return;
  }
  dsp::rvec out_r =
      dec_r_->process(std::span<const float>(pend_r_.data(), len));
  if (de_r_) out_r = de_r_->process(out_r);
  right.insert(right.end(), out_r.begin(), out_r.end());
  pend_r_.erase(pend_r_.begin(), pend_r_.begin() + static_cast<std::ptrdiff_t>(len));
}

void StereoStreamDecoder::flush_decision(dsp::rvec& left, dsp::rvec& right) {
  decide();
  // The chain is causal, so feeding the buffered window through it a block
  // at a time changes no sample and keeps its scratch block-sized even when
  // the window is the whole capture.
  const std::span<const float> window(decision_buf_);
  for (std::size_t at = 0; at < window.size(); at += kFlushBlock) {
    process_chain(window.subspan(at, std::min(kFlushBlock, window.size() - at)),
                  left, right);
  }
  std::vector<float>().swap(decision_buf_);  // decision memory is released
}

void StereoStreamDecoder::push(std::span<const float> mpx, dsp::rvec& left,
                               dsp::rvec& right) {
  std::size_t offset = 0;
  if (!decided_) {
    const std::size_t need = decision_len_ - decision_buf_.size();
    const std::size_t take = std::min(need, mpx.size());
    decision_buf_.insert(decision_buf_.end(), mpx.begin(),
                         mpx.begin() + static_cast<std::ptrdiff_t>(take));
    offset = take;
    if (decision_buf_.size() < decision_len_) return;
    flush_decision(left, right);
  }
  process_chain(mpx.subspan(offset), left, right);
}

void StereoStreamDecoder::finish(dsp::rvec& left, dsp::rvec& right) {
  if (!decided_) {
    // Capture ended inside the decision window (only possible when the
    // caller overstated the capture length): decide from what arrived.
    flush_decision(left, right);
  }
  if (stereo_mode_) {
    // The one-shot decoder zero-pads the realigned side past the capture:
    // the last `delay_` outputs carry side = 0 and the mids still in the
    // ring.
    const std::size_t tail = std::min(processed_, delay_);
    for (std::size_t i = processed_ - tail; i < processed_; ++i) {
      const float m = mid_hist_[i % delay_] * inv_level_;
      const float sv = 0.0F * inv_level_;
      pend_l_.push_back(m + sv);
      pend_r_.push_back(m - sv);
    }
  }
  drain(left, right);
  // Anything still pending is shorter than one decimation stride — the
  // one-shot decoder trims exactly the same remainder.
}

}  // namespace fmbs::fm
