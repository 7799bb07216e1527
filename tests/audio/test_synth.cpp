#include <gtest/gtest.h>

#include <cmath>

#include "audio/music_synth.h"
#include "audio/program.h"
#include "audio/speech_synth.h"
#include "audio/tone.h"
#include "dsp/math_util.h"
#include "dsp/spectrum.h"

namespace fmbs::audio {
namespace {

TEST(ToneGen, FrequencyAndAmplitude) {
  const MonoBuffer t = make_tone(1000.0, 0.5, 1.0, 48000.0);
  EXPECT_NEAR(dsp::rms(t.samples), 0.5 / std::sqrt(2.0), 0.01);
  const double p = dsp::band_power(t.samples, 48000.0, 900.0, 1100.0);
  EXPECT_NEAR(p, 0.125, 0.01);
}

TEST(ToneGen, NoiseRms) {
  const MonoBuffer n = make_noise(0.2, 1.0, 48000.0, 5);
  EXPECT_NEAR(dsp::rms(n.samples), 0.2, 0.01);
}

TEST(ToneGen, NoiseDeterministicPerSeed) {
  const MonoBuffer a = make_noise(0.1, 0.1, 48000.0, 42);
  const MonoBuffer b = make_noise(0.1, 0.1, 48000.0, 42);
  const MonoBuffer c = make_noise(0.1, 0.1, 48000.0, 43);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_NE(a.samples, c.samples);
}

TEST(ToneGen, MixAndConcat) {
  const MonoBuffer a = make_tone(100.0, 0.2, 0.1, 8000.0);
  const MonoBuffer b = make_tone(200.0, 0.2, 0.2, 8000.0);
  EXPECT_EQ(concat(a, b).size(), a.size() + b.size());
  EXPECT_EQ(mix(a, b).size(), a.size());
  const MonoBuffer other(std::vector<float>(10), 44100.0);
  EXPECT_THROW(concat(a, other), std::invalid_argument);
  EXPECT_THROW(mix(a, other), std::invalid_argument);
}

TEST(SpeechSynth, EnergyConcentratesInSpeechBand) {
  const MonoBuffer s = synthesize_speech({}, 4.0, 48000.0, 7);
  const double speech_band = dsp::band_power(s.samples, 48000.0, 100.0, 4000.0);
  const double high_band = dsp::band_power(s.samples, 48000.0, 8000.0, 15000.0);
  EXPECT_GT(speech_band, 30.0 * high_band)
      << "speech synthesizer should be spectrally speech-like";
}

TEST(SpeechSynth, HasPauses) {
  const MonoBuffer s = synthesize_speech({}, 6.0, 48000.0, 8);
  // Count 30 ms frames with negligible energy: news/talk should pause.
  const std::size_t frame = 1440;
  std::size_t silent = 0, total = 0;
  const double gate = 0.01 * dsp::mean_square(s.samples);
  for (std::size_t i = 0; i + frame <= s.size(); i += frame) {
    double p = 0.0;
    for (std::size_t k = i; k < i + frame; ++k) {
      p += static_cast<double>(s.samples[k]) * s.samples[k];
    }
    if (p / frame < gate) ++silent;
    ++total;
  }
  EXPECT_GT(static_cast<double>(silent) / static_cast<double>(total), 0.05);
}

TEST(SpeechSynth, NormalizedRms) {
  SpeechConfig cfg;
  cfg.level_rms = 0.15;
  const MonoBuffer s = synthesize_speech(cfg, 4.0, 48000.0, 9);
  EXPECT_NEAR(dsp::rms(s.samples), 0.15, 0.02);
}

TEST(SpeechSynth, DeterministicPerSeed) {
  const MonoBuffer a = synthesize_speech({}, 1.0, 48000.0, 10);
  const MonoBuffer b = synthesize_speech({}, 1.0, 48000.0, 10);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(MusicSynth, BroaderSpectrumThanSpeech) {
  const MonoBuffer m = synthesize_music(rock_music_config(), 4.0, 48000.0, 11);
  const MonoBuffer s = synthesize_speech({}, 4.0, 48000.0, 11);
  const auto ratio = [](const MonoBuffer& x) {
    return dsp::band_power(x.samples, 48000.0, 4000.0, 15000.0) /
           dsp::band_power(x.samples, 48000.0, 100.0, 4000.0);
  };
  EXPECT_GT(ratio(m), 3.0 * ratio(s));
}

TEST(MusicSynth, RockBrighterThanPop) {
  const MonoBuffer rock = synthesize_music(rock_music_config(), 4.0, 48000.0, 12);
  const MonoBuffer pop = synthesize_music(pop_music_config(), 4.0, 48000.0, 12);
  const auto treble = [](const MonoBuffer& x) {
    return dsp::band_power(x.samples, 48000.0, 3000.0, 12000.0) /
           dsp::mean_square(x.samples);
  };
  EXPECT_GT(treble(rock), treble(pop));
}

TEST(Program, NewsHasMinimalSideEnergy) {
  ProgramConfig cfg;
  cfg.genre = ProgramGenre::kNews;
  const StereoBuffer p = render_program(cfg, 4.0, 48000.0, 13);
  const double side = dsp::mean_square(p.side().samples);
  const double mid = dsp::mean_square(p.mid().samples);
  EXPECT_LT(side / mid, 0.01)
      << "news stations play the same speech on both channels (paper Fig. 5)";
}

TEST(Program, MusicHasSubstantialSideEnergy) {
  ProgramConfig cfg;
  cfg.genre = ProgramGenre::kRock;
  const StereoBuffer p = render_program(cfg, 4.0, 48000.0, 14);
  const double side = dsp::mean_square(p.side().samples);
  const double mid = dsp::mean_square(p.mid().samples);
  EXPECT_GT(side / mid, 0.02);
}

TEST(Program, MonoModeHasExactlyZeroSide) {
  ProgramConfig cfg;
  cfg.genre = ProgramGenre::kPop;
  cfg.stereo = false;
  const StereoBuffer p = render_program(cfg, 1.0, 48000.0, 15);
  for (const float v : p.side().samples) EXPECT_EQ(v, 0.0F);
}

TEST(Program, SilenceIsSilent) {
  ProgramConfig cfg;
  cfg.genre = ProgramGenre::kSilence;
  const StereoBuffer p = render_program(cfg, 0.5, 48000.0, 16);
  EXPECT_LT(dsp::rms(p.mid().samples), 1e-6);
}

TEST(Program, GenreNames) {
  EXPECT_EQ(to_string(ProgramGenre::kNews), "news");
  EXPECT_EQ(to_string(ProgramGenre::kMixed), "mixed");
  EXPECT_EQ(to_string(ProgramGenre::kPop), "pop");
  EXPECT_EQ(to_string(ProgramGenre::kRock), "rock");
}

}  // namespace
}  // namespace fmbs::audio
