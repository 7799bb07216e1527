#include "rx/tuner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace fmbs::rx {

namespace {

std::size_t compute_factor(const TunerConfig& cfg) {
  const double ratio = cfg.rf_rate / cfg.output_rate;
  const auto factor = static_cast<std::size_t>(ratio + 0.5);
  if (factor == 0 || std::abs(ratio - static_cast<double>(factor)) > 1e-9) {
    throw std::invalid_argument("Tuner: rf_rate must be an integer multiple of output_rate");
  }
  return factor;
}

std::vector<float> design_channel_filter(const TunerConfig& cfg) {
  // Place the -6 dB design cutoff beyond the passband edge so the channel
  // itself sees a flat response; the transition then runs to the adjacent
  // channel (offset - passband), where full selectivity is required.
  const double cutoff = cfg.passband_hz * 1.18 / cfg.rf_rate;
  const double stop_edge =
      (std::abs(cfg.offset_hz) > 2.0 * cfg.passband_hz
           ? std::abs(cfg.offset_hz) - cfg.passband_hz
           : 2.4 * cfg.passband_hz) /
      cfg.rf_rate;
  // Cap the transition width: a wide allowed transition would produce a
  // filter so short that the passband itself droops by a dB or more.
  const double transition = std::clamp(stop_edge - cutoff, 0.02, 0.05);
  return dsp::fir_design_kaiser_lowpass(cutoff, transition,
                                        cfg.stopband_attenuation_db);
}

/// Zero-phase square root of the channel filter's aliased power response at
/// the output rate. White noise of variance sigma^2 at the RF rate leaves the
/// decimator with autocorrelation sigma^2 * r_h[m * factor] (r_h: the taps'
/// autocorrelation), so its spectrum, relative to white noise of the same
/// density drawn at the output rate, is
///   P(w) = factor * sum_m r_h[m * factor] * exp(-j w m),
/// unity at DC and rolling off only where the transition band reaches the
/// output Nyquist edge. The shaper samples sqrt(P) on a grid, inverts it to a
/// symmetric impulse response and truncates it with a Hann taper. Every
/// cosine comes from one grid table: scenes build a tuner per receiver.
std::vector<float> design_noise_shaper(const std::vector<float>& h,
                                       std::size_t factor) {
  std::vector<double> r;  // factor * r_h at lags 0, factor, 2 * factor, ...
  r.reserve(h.size() / factor + 1);
  for (std::size_t lag = 0; lag < h.size(); lag += factor) {
    double acc = 0.0;
    for (std::size_t n = 0; n + lag < h.size(); ++n) {
      acc += static_cast<double>(h[n]) * h[n + lag];
    }
    r.push_back(static_cast<double>(factor) * acc);
  }
  constexpr std::size_t kGrid = 256;
  constexpr std::size_t kHalf = 15;  // 31 taps (tests/rx/test_tuner.cpp)
  std::array<double, kGrid> cos_table{};
  for (std::size_t k = 0; k < kGrid; ++k) {
    cos_table[k] = std::cos(2.0 * std::numbers::pi * static_cast<double>(k) /
                            static_cast<double>(kGrid));
  }
  std::array<double, kGrid> amp{};
  for (std::size_t i = 0; i < kGrid; ++i) {
    double p = r[0];
    for (std::size_t m = 1; m < r.size(); ++m) {
      p += 2.0 * r[m] * cos_table[(i * m) % kGrid];
    }
    amp[i] = std::sqrt(std::max(p, 0.0));
  }
  std::vector<float> taps(2 * kHalf + 1);
  for (std::size_t n = 0; n <= kHalf; ++n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < kGrid; ++i) {
      acc += amp[i] * cos_table[(i * n) % kGrid];
    }
    const double taper = 0.5 + 0.5 * std::cos(std::numbers::pi *
                                              static_cast<double>(n) /
                                              (kHalf + 1.0));
    const auto tap = static_cast<float>(taper * acc / kGrid);
    taps[kHalf + n] = tap;
    taps[kHalf - n] = tap;
  }
  return taps;
}

}  // namespace

Tuner::Tuner(const TunerConfig& config)
    : cfg_(config),
      factor_(compute_factor(config)),
      mixer_(-config.offset_hz, config.rf_rate),
      decimator_(design_channel_filter(config), factor_),
      noise_shaper_(design_noise_shaper(decimator_.taps(), factor_)) {}

dsp::cvec Tuner::process(std::span<const dsp::cfloat> rf) {
  if (rf.size() % factor_ != 0) {
    throw std::invalid_argument(
        "Tuner: block not a multiple of the decimation");
  }
  dsp::cvec out(rf.size() / factor_);
  // A channel already at DC needs no shift: decimate straight from the input.
  if (cfg_.offset_hz == 0.0) {
    decimator_.process_into(rf, out);
    return out;
  }
  // Otherwise shift a cache-sized chunk at a time through work_, so no copy
  // of the whole block is made; process_into does not depend on the cut.
  const std::size_t chunk = kProcessChunkOut * factor_;
  work_.resize(std::min(chunk, rf.size()));
  for (std::size_t at = 0; at < rf.size(); at += chunk) {
    const std::size_t n = std::min(chunk, rf.size() - at);
    std::copy_n(rf.begin() + static_cast<std::ptrdiff_t>(at), n, work_.begin());
    process_into(std::span<dsp::cfloat>(work_).first(n),
                 std::span<dsp::cfloat>(out).subspan(at / factor_, n / factor_));
  }
  return out;
}

void Tuner::process_into(std::span<dsp::cfloat> rf,
                         std::span<dsp::cfloat> out) {
  if (rf.size() % factor_ != 0) {
    throw std::invalid_argument(
        "Tuner: block not a multiple of the decimation");
  }
  // A channel already at DC needs no shift.
  if (cfg_.offset_hz != 0.0) mixer_.process_inplace(rf);
  decimator_.process_into(rf, out);
}

}  // namespace fmbs::rx
