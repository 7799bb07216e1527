// Streaming (block-fed) counterpart of fm::decode_stereo. The one-shot
// decoder makes exactly one global decision — is the 19 kHz pilot present? —
// from the median of short-window pilot SNRs over the whole capture; every
// other stage is a causal per-sample chain. The streaming decoder therefore
// buffers MPX only until a bounded decision window fills, decides once, and
// from then on streams the identical chain (mono low-pass; pilot band-pass +
// envelope + 38 kHz regeneration, stereo subband product, side low-pass,
// 63-sample realignment; matrix, per-channel decimation, optional
// de-emphasis; in mono, L is decimated once and copied to R, whose chain
// would reproduce it bit for bit) with persistent filter state —
// byte-identical to the one-shot decoder whenever the decision window covers
// the capture (every committed golden scenario), and O(window) memory on
// long runs where the one-shot decoder would hold the whole MPX.
//
// Every stage of the chain is a block method (dsp/fir.h, dsp/iir.h) that
// gives the same bytes however its stream is cut, so the decoder walks each
// block in chain blocks of 480 MPX samples through scratch of that size,
// and keeps only the fewer-than-M-sample decimation remainder between
// calls.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/units.h"
#include "dsp/fir.h"
#include "dsp/iir.h"
#include "dsp/types.h"
#include "fm/emphasis.h"
#include "fm/stereo_decoder.h"

namespace fmbs::fm {

/// Block-fed stereo decoder with persistent state. Feed every MPX block of
/// the capture in order; decoded L/R audio (at config.audio_rate) is
/// appended to the caller's buffers as it becomes available (nothing is
/// emitted until the pilot decision window fills).
class StereoStreamDecoder {
 public:
  /// `total_mpx_samples` — the capture length, known up front by the
  /// streaming engine. `decision_window` bounds the pilot decision
  /// (<= 0 uses the whole capture, exactly like the one-shot decoder); the
  /// window is clamped to the capture, so short runs always decide from
  /// everything the one-shot decoder would see.
  StereoStreamDecoder(const StereoDecoderConfig& config,
                      std::size_t total_mpx_samples,
                      units::Seconds decision_window = units::Seconds{-1.0});

  /// Consumes the next MPX block; appends any newly decoded audio.
  void push(std::span<const float> mpx, dsp::rvec& left, dsp::rvec& right);

  /// Flushes the realignment tail and the last decimator feed; appends the
  /// final audio samples. Call exactly once, after the last block.
  void finish(dsp::rvec& left, dsp::rvec& right);

  bool stereo_mode() const { return stereo_mode_; }
  double pilot_snr_db() const { return pilot_snr_db_; }

  /// Bytes of decision buffer this decoder holds at peak.
  std::size_t decision_buffer_bytes() const {
    return decision_len_ * sizeof(float);
  }

 private:
  void decide();
  void flush_decision(dsp::rvec& left, dsp::rvec& right);
  void process_chain(std::span<const float> mpx, dsp::rvec& left,
                     dsp::rvec& right);
  void chain_block(std::span<const float> mpx, dsp::rvec& left,
                   dsp::rvec& right);
  void drain(dsp::rvec& left, dsp::rvec& right);

  StereoDecoderConfig cfg_;
  std::size_t decim_ = 1;
  std::size_t total_ = 0;
  std::size_t decision_len_ = 0;

  std::vector<float> decision_buf_;
  bool decided_ = false;
  bool stereo_mode_ = false;
  double pilot_snr_db_ = 0.0;

  // Causal chain state, constructed at decision time.
  std::optional<dsp::FirFilter<float>> mono_lp_;
  std::optional<dsp::Biquad> pilot_bp_;
  std::optional<dsp::OnePoleLowpass> env_lp_;
  std::optional<dsp::FirFilter<float>> stereo_bp_;
  std::optional<dsp::FirFilter<float>> side_lp_;
  std::size_t delay_ = 0;             // (channel filter taps - 1) / 2
  std::vector<float> carrier_hist_;   // regenerated 38 kHz carrier, delayed
  std::vector<float> mid_hist_;       // mid samples awaiting realigned side
  std::size_t processed_ = 0;         // MPX samples through the chain

  // Chain scratch, one chain block each: mid, subband (then the product),
  // side, and the realigned L/R awaiting decimation, of which the first
  // pending_ samples are live (fewer than decim_ between calls).
  std::vector<float> mid_, sub_, side_;
  std::vector<float> pend_l_, pend_r_;
  std::size_t pending_ = 0;
  std::optional<dsp::FirDecimator<float>> dec_l_, dec_r_;
  std::optional<DeEmphasis> de_l_, de_r_;
};

}  // namespace fmbs::fm
