#include "dsp/agc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "dsp/math_util.h"
#include "support/run_stage.h"

namespace fmbs::dsp {
namespace {

std::vector<float> tone(double amp, std::size_t n) {
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(amp * std::sin(kTwoPi * 0.01 * static_cast<double>(i)));
  }
  return x;
}

TEST(Agc, ConvergesToTargetRms) {
  Agc::Config cfg;
  cfg.target_rms = 0.25;
  Agc agc(cfg, 48000.0);
  const auto x = tone(0.05, 96000);  // quiet input
  const auto y = test::run_stage(agc, x);
  // Measure tail RMS after convergence.
  double acc = 0.0;
  const std::size_t tail = y.size() / 2;
  for (std::size_t i = tail; i < y.size(); ++i) acc += static_cast<double>(y[i]) * y[i];
  const double rms = std::sqrt(acc / static_cast<double>(y.size() - tail));
  // The asymmetric attack/release smoothing biases the envelope toward
  // peaks, so convergence is approximate (within ~25% of the setpoint).
  EXPECT_NEAR(rms, 0.25, 0.07);
}

TEST(Agc, GainDropsWhenSignalGetsLouder) {
  Agc::Config cfg;
  Agc agc(cfg, 48000.0);
  (void)test::run_stage(agc, tone(0.1, 48000));
  const double gain_quiet = agc.gain();
  (void)test::run_stage(agc, tone(0.8, 48000));
  const double gain_loud = agc.gain();
  EXPECT_LT(gain_loud, gain_quiet);
}

TEST(Agc, RespectsGainLimits) {
  Agc::Config cfg;
  cfg.min_gain = 0.5;
  cfg.max_gain = 2.0;
  Agc agc(cfg, 48000.0);
  (void)test::run_stage(agc, tone(1e-4, 48000));  // would need gain >> 2
  EXPECT_LE(agc.gain(), 2.0 + 1e-9);
  (void)test::run_stage(agc, tone(10.0, 48000));  // would need gain << 0.5
  EXPECT_GE(agc.gain(), 0.5 - 1e-9);
}

TEST(Agc, AttackFasterThanRelease) {
  Agc::Config cfg;
  cfg.attack_seconds = 0.01;
  cfg.release_seconds = 0.5;
  Agc agc(cfg, 48000.0);
  (void)test::run_stage(agc, tone(0.1, 96000));
  const double g0 = agc.gain();
  // A loud burst: gain should drop quickly (attack)...
  (void)test::run_stage(agc, tone(1.0, 4800));  // 100 ms
  const double g_after_burst = agc.gain();
  EXPECT_LT(g_after_burst, g0 * 0.7);
  // ...then recover slowly (release): after another 100 ms of quiet it
  // should NOT be back to g0 yet.
  (void)test::run_stage(agc, tone(0.1, 4800));
  EXPECT_LT(agc.gain(), g0 * 0.9);
}

TEST(Agc, ResetRestoresInitialState) {
  Agc::Config cfg;
  Agc agc(cfg, 48000.0);
  (void)test::run_stage(agc, tone(1.0, 48000));
  agc.reset();
  EXPECT_NEAR(agc.gain(), 1.0, 1e-12);
}

// `x <= 0` is false for NaN, so a NaN target or sample rate used to pass,
// and a NaN time constant became a NaN smoothing factor: the output went NaN.
TEST(Agc, Validation) {
  Agc::Config cfg;
  EXPECT_THROW(Agc(cfg, 0.0), std::invalid_argument);
  cfg.target_rms = 0.0;
  EXPECT_THROW(Agc(cfg, 48000.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Agc(Agc::Config{}, nan), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  for (double Agc::Config::*field :
       {&Agc::Config::target_rms, &Agc::Config::attack_seconds,
        &Agc::Config::release_seconds, &Agc::Config::min_gain,
        &Agc::Config::max_gain}) {
    Agc::Config spoiled;
    spoiled.*field = nan;
    EXPECT_THROW(Agc(spoiled, 48000.0), std::invalid_argument);
  }
  // std::clamp's precondition: finite gains, 0 <= min_gain <= max_gain.
  for (const auto& [min_gain, max_gain] :
       {std::pair{0.01, inf}, std::pair{-inf, 100.0},
        std::pair{-std::numeric_limits<double>::denorm_min(), 100.0},
        std::pair{5.0, 2.0}}) {
    Agc::Config spoiled;
    spoiled.min_gain = min_gain;
    spoiled.max_gain = max_gain;
    EXPECT_THROW(Agc(spoiled, 48000.0), std::invalid_argument)
        << "min_gain " << min_gain << ", max_gain " << max_gain;
  }
  Agc::Config edges;  // the closed ends pass
  edges.min_gain = 0.0;
  edges.max_gain = 0.0;
  EXPECT_NO_THROW(Agc(edges, 48000.0));
  edges.min_gain = edges.max_gain = 2.0;
  EXPECT_NO_THROW(Agc(edges, 48000.0));
}

TEST(Agc, NonPositiveTimeConstantIsInstant) {
  Agc::Config instant;
  instant.attack_seconds = 0.0;
  instant.release_seconds = -1.0;
  Agc agc(instant, 48000.0);
  (void)agc.process_sample(0.5F);  // attack: the envelope jumps up
  EXPECT_NEAR(agc.gain(), instant.target_rms / 0.5, 1e-12);
  (void)agc.process_sample(0.125F);  // release: and straight back down
  EXPECT_NEAR(agc.gain(), instant.target_rms / 0.125, 1e-12);
}

}  // namespace
}  // namespace fmbs::dsp
