#include "audio/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "audio/speech_synth.h"
#include "audio/tone.h"
#include "dsp/correlate.h"

namespace fmbs::audio {
namespace {

TEST(Snr, IdenticalSignalsScoreVeryHigh) {
  const MonoBuffer t = make_tone(1000.0, 0.5, 0.5, 48000.0);
  EXPECT_GE(snr_db(t.samples, t.samples), 100.0);
}

TEST(Snr, KnownNoiseLevel) {
  const MonoBuffer sig = make_tone(1000.0, 1.0, 1.0, 48000.0);
  const MonoBuffer noise = make_noise(0.1, 1.0, 48000.0, 3);
  const MonoBuffer noisy = mix(sig, noise);
  // SNR = (1/2) / 0.01 = 50 -> 17 dB.
  EXPECT_NEAR(snr_db(sig.samples, noisy.samples), 17.0, 0.5);
}

TEST(Snr, EmptyThrows) {
  EXPECT_THROW(snr_db({}, {}), std::invalid_argument);
}

TEST(AlignAndScale, RecoversDelayAndGain) {
  const MonoBuffer ref = synthesize_speech({}, 1.0, 48000.0, 6);
  // Delayed and attenuated copy.
  std::vector<float> delayed = dsp::shift_signal(ref.samples, 480);  // 10 ms
  for (auto& v : delayed) v *= 0.4F;
  const AlignedPair pair = align_and_scale(ref.samples, delayed, 4800);
  // `delayed` lags the reference, so it must be advanced by +480 samples.
  EXPECT_NEAR(pair.delay_samples, 480.0, 2.0);
  EXPECT_NEAR(pair.gain, 1.0 / 0.4, 0.05);
  // After alignment + scaling, the SNR must be very high.
  EXPECT_GT(snr_db(pair.reference, pair.test), 30.0);
}

TEST(AlignAndScale, HandlesAdvance) {
  const MonoBuffer ref = synthesize_speech({}, 1.0, 48000.0, 7);
  std::vector<float> advanced = dsp::shift_signal(ref.samples, -333);
  const AlignedPair pair = align_and_scale(ref.samples, advanced, 1000);
  EXPECT_NEAR(pair.delay_samples, -333.0, 2.0);
  EXPECT_GT(snr_db(pair.reference, pair.test), 30.0);
}

TEST(AlignAndScale, EmptyThrows) {
  EXPECT_THROW(align_and_scale({}, {}, 10), std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::audio
