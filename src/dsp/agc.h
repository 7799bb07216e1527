// Automatic gain control. Models the phone FM receiver behaviour the paper
// has to fight in cooperative backscatter: "hardware gain control alters the
// amplitude of FM_audio(t) in the presence of FM_back(t)".
#pragma once

#include <cstddef>
#include <span>

namespace fmbs::dsp {

/// Feed-forward RMS-tracking AGC with separate attack/release smoothing.
class Agc {
 public:
  struct Config {
    double target_rms = 0.25;      // output RMS setpoint
    double attack_seconds = 0.02;  // gain-down smoothing
    double release_seconds = 0.2;  // gain-up smoothing
    double max_gain = 100.0;
    double min_gain = 0.01;
  };

  Agc(const Config& config, double sample_rate);

  /// Processes one sample.
  float process_sample(float x);

  /// Processes a block in place; the one block method (same bytes however
  /// the stream is cut into calls).
  void process_inplace(std::span<float> data);

  /// Current applied gain (observable for tests and calibration).
  double gain() const { return gain_; }

  void reset();

 private:
  Config cfg_;
  double attack_alpha_;
  double release_alpha_;
  double envelope_ = 0.0;
  double gain_ = 1.0;
};

}  // namespace fmbs::dsp
