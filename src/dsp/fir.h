// FIR design (windowed-sinc, Kaiser-sized) and streaming FIR filters,
// including polyphase decimators and interpolators used by the RF <-> MPX
// <-> audio rate-conversion chain.
//
// Every float and complex<float> inner loop dispatches to the kernels in
// dsp/simd.h when FMBS_SIMD is on: eight-lane AVX2 kernels when the CPU has
// AVX2 (checked once per process), the four-lane SSE2 kernels otherwise.
// They vectorize across OUTPUTS and are register-blocked, each lane
// accumulating its own taps serially in the scalar order, so the filtered
// blocks are bit-identical to the scalar fallback whichever set runs —
// pinned by tests/dsp/test_simd_kernels.cpp.
//
// The kernels read a phase layout, in which every load is contiguous across
// outputs. FirFilter and FirInterpolator keep history plus input as one run
// (one phase) whose first h samples are the history: a call copies only its
// input in behind them and moves the run's last h samples to the front
// afterwards. FirDecimator stages it in its M phases instead, in the
// buffer that held the run: row p holds samples p, p + M, p + 2M, ... of
// history plus input, so tap t of output i, sample i * M + t, sits at row
// t % M, column i + t / M. The taps are read in the same order either way,
// so the output is the same to the bit as reading every Mth sample of one
// run, without strided loads.
//
// Stage contract: each filter has one block method, process_into(in, out),
// with `out` sized by the rate ratio (in.size(), / M or * L). State carries
// across calls, so any cut of a stream (multiples of M for a decimator)
// gives the same bytes as one call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dsp/simd.h"
#include "dsp/types.h"
#include "dsp/window.h"

namespace fmbs::dsp {

/// Designs a linear-phase low-pass FIR with unity DC gain.
/// cutoff is normalized to the sample rate (0 < cutoff < 0.5).
std::vector<float> fir_design_lowpass(std::size_t num_taps, double cutoff,
                                      WindowType window = WindowType::kHamming);

/// Designs a band-pass FIR passing [low, high] (normalized, 0 < low < high < 0.5).
std::vector<float> fir_design_bandpass(std::size_t num_taps, double low,
                                       double high,
                                       WindowType window = WindowType::kHamming);

/// Designs a Kaiser-windowed low-pass with the given stopband attenuation
/// (dB) and normalized transition width; tap count chosen automatically.
std::vector<float> fir_design_kaiser_lowpass(double cutoff, double transition_width,
                                             double attenuation_db);

namespace detail {

/// Reversed taps (rt[t] = taps[nt-1-t]) so the convolution loop reads them
/// in ascending order — the layout the SIMD kernels and the scalar loops
/// share.
inline std::vector<float> reverse_taps(const std::vector<float>& taps) {
  return std::vector<float>(taps.rbegin(), taps.rend());
}

/// out[i * out_stride] = sum_t x[(t % phases) * row_len + t / phases + i]
/// * rt[t], t ascending: the shared inner loop of every FIR variant below,
/// over the phase layout (header; phases == 1 is a contiguous run). Sample
/// is float or cfloat; taps are real. Dispatches to dsp::simd when compiled
/// in (bit-identical).
template <typename Sample>
inline void fir_apply(const Sample* x, std::size_t phases,
                      std::size_t row_len, const float* rt, std::size_t nt,
                      Sample* out, std::size_t out_stride, std::size_t n) {
#if FMBS_SIMD_ENABLED
  if constexpr (std::is_same_v<Sample, float>) {
    simd::fir_f32(x, phases, row_len, rt, nt, out, out_stride, n);
    return;
  } else if constexpr (std::is_same_v<Sample, cfloat>) {
    simd::fir_cx(reinterpret_cast<const float*>(x), phases, row_len, rt, nt,
                 reinterpret_cast<float*>(out), out_stride, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    Sample acc{};
    simd::TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      acc += x[tap.offset() + i] * rt[t];
    }
    out[i * out_stride] = acc;
  }
}

/// Copies `in` into the run behind its first h samples (the history).
template <typename Sample>
inline void append_to_run(std::vector<Sample>& run, std::size_t h,
                          std::span<const Sample> in) {
  run.resize(h + in.size());
  std::copy(in.begin(), in.end(), run.begin() + static_cast<std::ptrdiff_t>(h));
}

/// Moves the last h samples of a run of h + n to its front: the next call's
/// history.
template <typename Sample>
inline void keep_history(std::vector<Sample>& run, std::size_t h,
                         std::size_t n) {
  if (n > 0) {
    std::copy(run.begin() + static_cast<std::ptrdiff_t>(n),
              run.begin() + static_cast<std::ptrdiff_t>(n + h), run.begin());
  }
}

}  // namespace detail

/// Streaming FIR filter over float or complex samples. Maintains history
/// across process_into() calls so block boundaries are seamless.
template <typename Sample>
class FirFilter {
 public:
  explicit FirFilter(std::vector<float> taps) : taps_(std::move(taps)) {
    if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
    rtaps_ = detail::reverse_taps(taps_);
    run_.assign(taps_.size() - 1, Sample{});
  }

  std::size_t num_taps() const { return taps_.size(); }

  /// Filters a block into a caller-provided buffer of equal length.
  void process_into(std::span<const Sample> in, std::span<Sample> out) {
    if (out.size() != in.size()) throw std::invalid_argument("FirFilter: size mismatch");
    const std::size_t h = taps_.size() - 1;
    detail::append_to_run(run_, h, in);
    detail::fir_apply(run_.data(), 1, 0, rtaps_.data(), taps_.size(),
                      out.data(), 1, in.size());
    detail::keep_history(run_, h, in.size());
  }

  /// Clears the filter history.
  void reset() { std::fill_n(run_.begin(), taps_.size() - 1, Sample{}); }

 private:
  std::vector<float> taps_;
  std::vector<float> rtaps_;
  std::vector<Sample> run_;  // history (first taps - 1 samples), then input
};

/// Polyphase decimator: low-pass filter + keep-every-Mth-sample, computing
/// only the retained outputs. Input block lengths must be multiples of the
/// decimation factor.
template <typename Sample>
class FirDecimator {
 public:
  FirDecimator(std::vector<float> taps, std::size_t factor)
      : taps_(std::move(taps)), factor_(factor) {
    if (taps_.empty()) throw std::invalid_argument("FirDecimator: empty taps");
    if (factor_ == 0) throw std::invalid_argument("FirDecimator: factor must be >= 1");
    rtaps_ = detail::reverse_taps(taps_);
    history_.assign(taps_.size() - 1, Sample{});
  }

  std::size_t factor() const { return factor_; }
  const std::vector<float>& taps() const { return taps_; }

  /// Decimates a block into a caller-provided buffer of in.size() / factor()
  /// samples.
  void process_into(std::span<const Sample> in, std::span<Sample> out) {
    if (in.size() % factor_ != 0) {
      throw std::invalid_argument("FirDecimator: block not a multiple of factor");
    }
    if (out.size() != in.size() / factor_) {
      throw std::invalid_argument("FirDecimator: size mismatch");
    }
    const std::size_t h = history_.size();
    const std::size_t n = out.size();
    // The M-phase staging (header): ceil((h + in.size()) / M) columns,
    // filled a row at a time. At the engines' call sizes the run is in
    // cache, and this beats dealing it out one M-sample column at a time
    // (one store per row per column).
    const std::size_t row_len = n + (h + factor_ - 1) / factor_;
    work_.resize(factor_ * row_len);
    for (std::size_t p = 0; p < factor_; ++p) {
      Sample* row = work_.data() + p * row_len;
      std::size_t k = p;
      for (; k < h; k += factor_) *row++ = history_[k];
      for (; k < h + in.size(); k += factor_) *row++ = in[k - h];
    }
    detail::fir_apply(work_.data(), factor_, row_len, rtaps_.data(),
                      taps_.size(), out.data(), 1, n);
    // The history is the last h samples of history plus input.
    if (in.size() >= h) {
      std::copy(in.end() - static_cast<std::ptrdiff_t>(h), in.end(),
                history_.begin());
    } else {
      std::copy(history_.begin() + static_cast<std::ptrdiff_t>(in.size()),
                history_.end(), history_.begin());
      std::copy(in.begin(), in.end(),
                history_.end() - static_cast<std::ptrdiff_t>(in.size()));
    }
  }

 private:
  std::vector<float> taps_;
  std::vector<float> rtaps_;
  std::size_t factor_;
  std::vector<Sample> history_;
  std::vector<Sample> work_;  // the M rows of history plus input
};

/// Polyphase interpolator: insert L-1 zeros + low-pass, computed as L
/// subfilters so the zero multiplies are skipped. The prototype filter is
/// scaled by L internally to preserve signal amplitude.
template <typename Sample>
class FirInterpolator {
 public:
  FirInterpolator(std::vector<float> prototype_taps, std::size_t factor)
      : factor_(factor) {
    if (prototype_taps.empty()) {
      throw std::invalid_argument("FirInterpolator: empty taps");
    }
    if (factor_ == 0) throw std::invalid_argument("FirInterpolator: factor must be >= 1");
    // Pad the prototype to a multiple of L, scale by L (zero stuffing divides
    // the spectrum amplitude by L), then split into L polyphase branches.
    const std::size_t padded =
        (prototype_taps.size() + factor_ - 1) / factor_ * factor_;
    prototype_taps.resize(padded, 0.0F);
    const std::size_t branch_len = padded / factor_;
    branches_.assign(factor_, std::vector<float>(branch_len, 0.0F));
    for (std::size_t i = 0; i < padded; ++i) {
      branches_[i % factor_][i / factor_] =
          prototype_taps[i] * static_cast<float>(factor_);
    }
    rbranches_.reserve(factor_);
    for (const std::vector<float>& b : branches_) {
      rbranches_.push_back(detail::reverse_taps(b));
    }
    run_.assign(branch_len - 1, Sample{});
  }

  std::size_t factor() const { return factor_; }

  // Stays for perfbench until ROADMAP item 1b; nothing else calls it.
  std::vector<Sample> process(std::span<const Sample> in) {
    std::vector<Sample> out(in.size() * factor_);
    process_into(in, out);
    return out;
  }

  /// Interpolates a block into a caller-provided buffer of
  /// in.size() * factor() samples.
  void process_into(std::span<const Sample> in, std::span<Sample> out) {
    if (out.size() != in.size() * factor_) {
      throw std::invalid_argument("FirInterpolator: size mismatch");
    }
    const std::size_t bl = branches_[0].size();
    const std::size_t h = bl - 1;
    detail::append_to_run(run_, h, in);
    // Branch-major: each polyphase branch is one strided FIR pass across
    // every input sample (out[i*L + p] = branch p applied at input i), which
    // is the across-outputs layout the SIMD kernels want. Identical
    // arithmetic to the historical sample-major loop — each output is still
    // its branch's taps accumulated serially.
    for (std::size_t p = 0; p < factor_; ++p) {
      detail::fir_apply(run_.data(), 1, 0, rbranches_[p].data(), bl,
                        out.data() + p, factor_, in.size());
    }
    detail::keep_history(run_, h, in.size());
  }

 private:
  std::size_t factor_;
  std::vector<std::vector<float>> branches_;
  std::vector<std::vector<float>> rbranches_;
  std::vector<Sample> run_;  // history (first branch taps - 1), then input
};

}  // namespace fmbs::dsp
