#include "fm/stereo_stream.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/goertzel.h"
#include "dsp/math_util.h"

namespace fmbs::fm {

namespace {
constexpr std::size_t kChannelFilterTaps = 127;  // odd -> integer group delay
constexpr std::size_t kChainBlock = 480;         // 2 ms at 240 kHz
/// Undoes the transmitter's program level.
constexpr auto kInvLevel = static_cast<float>(1.0 / kProgramLevel);
static_assert((kChannelFilterTaps - 1) / 2 <= kChainBlock);  // see finish()
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
  // Pilot measurement, the one-shot decoder's — over the decision window
  // instead of the whole capture (identical whenever the window covers the
  // capture, which it does for every golden scenario). One bank pass per
  // block gives the pilot and both noise flanks; the bank's coefficients
  // and recurrence are goertzel_power's, so the SNRs keep their bits.
  const dsp::GoertzelBank bank({kPilotHz, kPilotHz - 600.0, kPilotHz + 600.0},
                               rate);
  const auto pilot_snr = [&bank](std::span<const float> block) {
    const std::vector<double> p = bank.powers(block);
    return dsp::db_from_power_ratio(p[0] /
                                    std::max(0.5 * (p[1] + p[2]), 1e-30));
  };
  const auto window = static_cast<std::size_t>(0.008 * rate);
  std::vector<double> window_snr;
  for (std::size_t start = 0; start + window <= mpx.size(); start += window) {
    window_snr.push_back(pilot_snr(mpx.subspan(start, window)));
  }
  pilot_snr_db_ = window_snr.empty() ? pilot_snr(mpx)
                                     : dsp::quantile(window_snr, 0.5);
  stereo_mode_ =
      !cfg_.force_mono && pilot_snr_db_ >= kPilotDetectThreshold.raw();

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
    sub_.resize(kChainBlock);
    side_.resize(kChainBlock);
    pend_r_.resize(kChainBlock + decim_);
  }
  mid_.resize(kChainBlock);
  pend_l_.resize(kChainBlock + decim_);
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
  // The chain is causal and every stage keeps its state, so walking the
  // block a chain block at a time changes no sample and keeps the scratch
  // chain-block sized even when the block is the whole decision window.
  for (std::size_t at = 0; at < mpx.size(); at += kChainBlock) {
    chain_block(mpx.subspan(at, std::min(kChainBlock, mpx.size() - at)), left,
                right);
  }
}

void StereoStreamDecoder::chain_block(std::span<const float> mpx,
                                      dsp::rvec& left, dsp::rvec& right) {
  const std::size_t n = mpx.size();
  const std::span<float> mid(mid_.data(), n);
  mono_lp_->process_into(mpx, mid);
  if (stereo_mode_) {
    const std::span<float> sub(sub_.data(), n);
    const std::span<float> side(side_.data(), n);
    stereo_bp_->process_into(mpx, sub);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = processed_ + j;
      // 38 kHz carrier regeneration, sample by sample as in the one-shot
      // decoder; the ring holds the last `delay_` carrier values so the
      // product (written over the subband) stays phase-coherent with the
      // delayed subband.
      const float p = pilot_bp_->process_sample(mpx[j]);
      const float e2 = env_lp_->process_sample(p * p) * 2.0F;
      const float amp = std::sqrt(std::max(e2, 1e-12F));
      const float s = std::clamp(p / amp, -1.0F, 1.0F);
      const float c = 2.0F * s * s - 1.0F;
      sub[j] = g >= delay_ ? 2.0F * sub[j] * carrier_hist_[g % delay_] : 0.0F;
      carrier_hist_[g % delay_] = c;
    }
    side_lp_->process_into(sub, side);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t g = processed_ + j;
      if (g >= delay_) {
        // Realigned output sample g - delay_: its side value is side[g],
        // its mid value went into the ring delay_ samples ago.
        const float m = mid_hist_[g % delay_] * kInvLevel;
        const float sv = side[j] * kInvLevel;
        pend_l_[pending_] = m + sv;
        pend_r_[pending_++] = m - sv;
      }
      mid_hist_[g % delay_] = mid[j];
    }
  } else {
    // Mono: R would be m - 0 beside L's m + 0, equal but for the sign of a
    // zero, which no FIR accumulator (all start at +0) carries to its
    // output. drain() decimates L alone and copies it to R.
    for (std::size_t j = 0; j < n; ++j) {
      const float m = mid[j] * kInvLevel;
      const float sv = 0.0F * kInvLevel;
      pend_l_[pending_++] = m + sv;
    }
  }
  processed_ += n;
  drain(left, right);
}

/// Decimates every whole stride of the pending L/R straight onto the end of
/// the caller's audio and moves the remainder to the front.
void StereoStreamDecoder::drain(dsp::rvec& left, dsp::rvec& right) {
  const std::size_t len = pending_ / decim_ * decim_;
  if (len == 0) return;
  const auto decimate = [&](dsp::FirDecimator<float>& dec,
                            std::optional<DeEmphasis>& de,
                            std::vector<float>& pend, dsp::rvec& audio) {
    const std::size_t at = audio.size();
    audio.resize(at + len / decim_);
    const std::span<float> out = std::span<float>(audio).subspan(at);
    dec.process_into(std::span<const float>(pend).first(len), out);
    if (de) de->process_inplace(out);
    std::copy(pend.begin() + static_cast<std::ptrdiff_t>(len),
              pend.begin() + static_cast<std::ptrdiff_t>(pending_),
              pend.begin());
  };
  decimate(*dec_l_, de_l_, pend_l_, left);
  if (stereo_mode_) {
    decimate(*dec_r_, de_r_, pend_r_, right);
  } else {
    const auto emitted = static_cast<std::ptrdiff_t>(len / decim_);
    right.insert(right.end(), left.end() - emitted, left.end());
  }
  pending_ -= len;
}

void StereoStreamDecoder::flush_decision(dsp::rvec& left, dsp::rvec& right) {
  decide();
  process_chain(decision_buf_, left, right);
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
    // ring (shorter than a chain block, so the pending L/R hold them all).
    const std::size_t tail = std::min(processed_, delay_);
    for (std::size_t i = processed_ - tail; i < processed_; ++i) {
      const float m = mid_hist_[i % delay_] * kInvLevel;
      const float sv = 0.0F * kInvLevel;
      pend_l_[pending_] = m + sv;
      pend_r_[pending_++] = m - sv;
    }
  }
  drain(left, right);
  // Anything still pending is shorter than one decimation stride — the
  // one-shot decoder trims exactly the same remainder.
}

}  // namespace fmbs::fm
