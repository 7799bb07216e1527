// Channel tuner: shifts the wanted FM channel to DC and decimates the
// wideband RF capture to the MPX processing rate. The stopband attenuation
// doubles as the receiver's adjacent-channel selectivity — the paper notes
// the effective noise floor "may instead be limited by power leaked from an
// adjacent channel", which this filter reproduces physically.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dsp/fir.h"
#include "dsp/nco.h"
#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::rx {

/// Tuner parameters.
struct TunerConfig {
  double offset_hz = fm::kDefaultBackscatterShiftHz;  // channel center in the capture
  double rf_rate = fm::kRfRate;
  double output_rate = fm::kMpxRate;
  double passband_hz = 110000.0;       // one-sided channel passband
  double stopband_attenuation_db = 70.0;  // adjacent-channel selectivity
};

/// Streaming tuner (mixer + polyphase decimator).
class Tuner {
 public:
  explicit Tuner(const TunerConfig& config);

  std::size_t decimation() const { return factor_; }

  /// Taps, at the output rate, that color white noise drawn there into the
  /// noise this tuner would emit for white noise of the same density at the
  /// RF rate: the channel filter's aliased power response (unity in band,
  /// a fraction of a dB down at the output Nyquist edge). The scenario
  /// engines add receiver noise after the tuner through these taps, a tenth
  /// of the Gaussian draws of noising the RF stream.
  const std::vector<float>& noise_shaping_taps() const { return noise_shaper_; }

  /// Processes an RF block; block length must be a multiple of decimation().
  /// Off-DC channels are shifted through a scratch of at most
  /// kProcessChunkOut * decimation() samples, not a copy of the block.
  dsp::cvec process(std::span<const dsp::cfloat> rf);

  /// Allocation-free variant for a caller's scratch block: mixes `rf` in
  /// place (leaving it shifted to the channel) and decimates it into `out`,
  /// rf.size() / decimation() samples. Bit-identical to process() however
  /// the stream is cut into blocks.
  void process_into(std::span<dsp::cfloat> rf, std::span<dsp::cfloat> out);

 private:
  static constexpr std::size_t kProcessChunkOut = 1024;

  TunerConfig cfg_;
  std::size_t factor_;
  dsp::Mixer mixer_;
  dsp::FirDecimator<dsp::cfloat> decimator_;
  std::vector<float> noise_shaper_;
  dsp::cvec work_;  // process()'s chunk scratch; empty until first used
};

}  // namespace fmbs::rx
