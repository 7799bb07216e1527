// The tag's FM-modulated switching subcarrier — paper Eq. 2:
//   B(t) = cos(2 pi f_back t + 2 pi df Int FM_back(tau) dtau)
// approximated by a square wave toggling the antenna between reflect and
// absorb ("we approximate the cosine signal with a square wave alternating
// between +1 and -1 ... by changing the frequency of the resulting square
// wave, we can approximate a cosine signal with the desired time-varying
// frequencies").
//
// Three waveform models:
//  * kBandlimitedSquare — the square wave's odd-harmonic Fourier series
//    truncated below Nyquist (default; alias-free, carries the physical
//    4/pi k harmonic amplitudes),
//  * kHardSquare — literal sign() switching (for unit tests and harmonic
//    ablations; aliases above ~the 3rd harmonic at the default rates),
//  * kSingleSideband — complex subcarrier e^{j phi}, the paper's footnote-2
//    option that suppresses the mirror copy (cos(A-B) term).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/units.h"
#include "dsp/fir.h"
#include "dsp/nco.h"
#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::tag {

enum class SubcarrierMode {
  kBandlimitedSquare,
  kHardSquare,
  kSingleSideband,
};

/// Subcarrier generation parameters.
struct SubcarrierConfig {
  /// f_back. May be negative (backscatter to a channel *below* the station):
  /// a real square wave produces copies at +-|f_back| anyway, and in SSB
  /// mode the rotation direction follows the sign.
  units::Hertz shift{fm::kDefaultBackscatterShiftHz};
  units::Hertz deviation{fm::kMaxDeviationHz};  // df (max legal, as in paper)
  SubcarrierMode mode = SubcarrierMode::kBandlimitedSquare;
  /// Highest odd harmonic to synthesize in kBandlimitedSquare mode;
  /// 0 = every harmonic that fits below Nyquist.
  int max_harmonic = 0;
  /// Frequency-quantization bits of the digitally controlled oscillator
  /// (the IC uses an 8-bit binary-weighted capacitor bank); 0 = ideal DCO.
  int dco_bits = 0;
  double rf_rate = fm::kRfRate;
  double baseband_rate = fm::kMpxRate;
};

/// Streaming subcarrier generator. Feed tag baseband blocks at
/// `baseband_rate`; receive B(t) at `rf_rate` (complex; imaginary part is
/// zero except in SSB mode).
class SubcarrierGenerator {
 public:
  explicit SubcarrierGenerator(const SubcarrierConfig& config);

  const SubcarrierConfig& config() const { return cfg_; }

  /// Number of synthesized odd harmonics (1 means fundamental only).
  int harmonics_used() const { return harmonics_; }

  /// Generates B(t) for one baseband block. Output length is
  /// block.size() * (rf_rate / baseband_rate).
  dsp::cvec process(std::span<const float> baseband);

  /// Generates into a caller-provided buffer of that output length. The
  /// output is a pure function of the sample stream, however it is cut into
  /// calls, as long as every call but the last spans a multiple of four RF
  /// samples (the vector sincos groups).
  void process_into(std::span<const float> baseband,
                    std::span<dsp::cfloat> out);

 private:
  SubcarrierConfig cfg_;
  int harmonics_ = 1;
  std::size_t up_factor_;
  dsp::FirInterpolator<float> interpolator_;
  dsp::PhaseAccumulator phase_;
  dsp::rvec up_;           // per-call interpolated baseband
  std::vector<float> ph_;  // per-call phases (vector path)
};

}  // namespace fmbs::tag
