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
  /// Frequency-quantization bits of the digitally controlled oscillator
  /// (the IC uses an 8-bit binary-weighted capacitor bank); 0 = ideal DCO.
  int dco_bits = 0;
};

/// RF samples of B(t) per tag baseband sample: the tag's oscillator runs at
/// fm::kRfRate from baseband at fm::kMpxRate.
inline constexpr std::size_t kSubcarrierUpFactor = fm::kMpxToRfFactor;

/// True when the generator can synthesize `config`: a nonzero shift, a
/// positive deviation, and |shift| + deviation below the RF Nyquist rate
/// (fm::kRfRate / 2). NaN fails every check. The scenario plan and
/// SubcarrierGenerator both apply this one rule.
bool subcarrier_fits(const SubcarrierConfig& config);

/// Streaming subcarrier generator. Feed tag baseband blocks at
/// fm::kMpxRate; receive B(t) at fm::kRfRate (complex; imaginary part is
/// zero except in SSB mode). In kBandlimitedSquare mode it synthesizes every
/// odd harmonic that fits below Nyquist.
class SubcarrierGenerator {
 public:
  /// Throws std::invalid_argument unless subcarrier_fits(config).
  explicit SubcarrierGenerator(const SubcarrierConfig& config);

  /// Number of synthesized odd harmonics (1 means fundamental only).
  int harmonics_used() const { return harmonics_; }

  /// Generates B(t) for one baseband block into a caller-provided buffer of
  /// baseband.size() * kSubcarrierUpFactor samples: the one block
  /// method. The output is a pure function of the sample stream, however it
  /// is cut into calls, as long as every call but the last spans a multiple
  /// of four RF samples (the vector sincos groups).
  void process_into(std::span<const float> baseband,
                    std::span<dsp::cfloat> out);

  // Stays for perfbench until ROADMAP item 1b; nothing else calls it.
  dsp::cvec process(std::span<const float> baseband);

 private:
  SubcarrierConfig cfg_;
  int harmonics_ = 1;
  dsp::FirInterpolator<float> interpolator_;
  dsp::PhaseAccumulator phase_;
  dsp::rvec up_;           // per-call interpolated baseband
  std::vector<float> ph_;  // per-call phases (vector path)
};

}  // namespace fmbs::tag
