#include "rx/rds_stream.h"

#include <algorithm>
#include <cmath>

#include "fm/constants.h"
#include "fm/rds.h"

namespace fmbs::rx {

RdsStreamDecoder::RdsStreamDecoder(double sample_rate,
                                   std::size_t capture_samples,
                                   double start_seconds,
                                   double duration_seconds,
                                   double max_window_seconds)
    : sample_rate_(sample_rate),
      mixer_(-fm::kRdsCarrierHz, sample_rate),
      lowpass_(dsp::fir_design_lowpass(101, 2400.0 / sample_rate)) {
  // Same window arithmetic as decode_rds_link (which also returns an empty
  // report for an empty capture).
  if (capture_samples == 0 || sample_rate <= 0.0) return;
  begin_ = std::min(
      capture_samples,
      static_cast<std::size_t>(std::max(0.0, start_seconds) * sample_rate));
  length_ = capture_samples - begin_;
  if (duration_seconds >= 0.0) {
    length_ = std::min(
        length_, static_cast<std::size_t>(duration_seconds * sample_rate));
  }
  if (max_window_seconds > 0.0) {
    length_ = std::min(
        length_, static_cast<std::size_t>(max_window_seconds * sample_rate));
  }
  base_.reserve(length_);
}

void RdsStreamDecoder::push(std::span<const float> mpx) {
  const std::size_t lo = begin_;
  const std::size_t hi = begin_ + length_;
  const std::size_t block_lo = cursor_;
  const std::size_t block_hi = cursor_ + mpx.size();
  cursor_ = block_hi;
  if (block_hi <= lo || block_lo >= hi) return;
  const std::size_t from = std::max(block_lo, lo);
  const std::size_t to = std::min(block_hi, hi);
  // Front end of fm::decode_rds, block-streamed: complex downconversion of
  // the 57 kHz subcarrier (the mixer's phase started at the window begin,
  // exactly where the one-shot decoder starts it) into the persistent
  // low-pass, which filters straight onto the end of the window's baseband.
  // Block-fed FIR state makes the chunked output bit-identical to one-shot
  // filtering of the whole window.
  work_.resize(to - from);
  for (std::size_t i = 0; i < work_.size(); ++i) {
    work_[i] = dsp::cfloat(mpx[from - block_lo + i], 0.0F);
  }
  mixer_.process_inplace(work_);
  base_.resize(filtered_ + work_.size());
  lowpass_.process_into(work_,
                        std::span<dsp::cfloat>(base_).subspan(filtered_));
  filtered_ += to - from;
}

RdsLinkReport RdsStreamDecoder::finish() const {
  return rds_link_report_from(fm::decode_rds_baseband(base_, sample_rate_));
}

}  // namespace fmbs::rx
