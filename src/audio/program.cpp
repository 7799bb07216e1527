#include "audio/program.h"

#include <cmath>
#include <random>
#include <stdexcept>

#include "audio/music_synth.h"
#include "audio/speech_synth.h"
#include "audio/tone.h"

namespace fmbs::audio {

std::string to_string(ProgramGenre genre) {
  switch (genre) {
    case ProgramGenre::kSilence: return "silence";
    case ProgramGenre::kNews: return "news";
    case ProgramGenre::kMixed: return "mixed";
    case ProgramGenre::kPop: return "pop";
    case ProgramGenre::kRock: return "rock";
  }
  return "unknown";
}

namespace {

MonoBuffer render_mixed(double duration_seconds, double sample_rate,
                        std::uint64_t seed) {
  // Alternate ~4 s talk segments with ~4 s music segments.
  MonoBuffer out(std::vector<float>{}, sample_rate);
  double remaining = duration_seconds;
  bool talk = true;
  std::uint64_t segment = 0;
  while (remaining > 1e-9) {
    const double seg = std::min(4.0, remaining);
    MonoBuffer part =
        talk ? synthesize_speech(SpeechConfig{}, seg, sample_rate, seed + segment)
             : synthesize_music(pop_music_config(), seg, sample_rate, seed + segment);
    out = out.empty() ? std::move(part) : concat(out, part);
    remaining -= seg;
    talk = !talk;
    ++segment;
  }
  if (out.empty()) out = make_silence(0.0, sample_rate);
  return out;
}

}  // namespace

StereoBuffer render_program(const ProgramConfig& config, double duration_seconds,
                            double sample_rate, std::uint64_t seed) {
  if (!std::isfinite(duration_seconds) || duration_seconds < 0.0 ||
      !(sample_rate > 0.0)) {
    throw std::invalid_argument("render_program: bad duration or rate");
  }

  MonoBuffer main;
  switch (config.genre) {
    case ProgramGenre::kSilence:
      main = make_silence(duration_seconds, sample_rate);
      break;
    case ProgramGenre::kNews: {
      SpeechConfig sc;
      main = synthesize_speech(sc, duration_seconds, sample_rate, seed);
      break;
    }
    case ProgramGenre::kMixed:
      main = render_mixed(duration_seconds, sample_rate, seed);
      break;
    case ProgramGenre::kPop:
      main = synthesize_music(pop_music_config(), duration_seconds, sample_rate, seed);
      break;
    case ProgramGenre::kRock:
      main = synthesize_music(rock_music_config(), duration_seconds, sample_rate, seed);
      break;
  }

  const std::size_t n = main.size();
  std::vector<float> left(n), right(n);

  // Side (L-R) content: music genres pan a secondary line; news/talk has only
  // faint studio ambience. The "mixed" genre sits in between.
  double width = 0.0;
  switch (config.genre) {
    case ProgramGenre::kSilence: width = 0.0; break;
    case ProgramGenre::kNews: width = 0.0; break;
    case ProgramGenre::kMixed: width = kStereoWidth * 0.4; break;
    case ProgramGenre::kPop: width = kStereoWidth; break;
    case ProgramGenre::kRock: width = kStereoWidth * 1.2; break;
  }

  MonoBuffer side_content = make_silence(main.duration_seconds(), sample_rate);
  if (config.stereo && width > 0.0) {
    // A separately seeded synthesis acts as the panned content, uncorrelated
    // with the mid signal the way a panned rhythm guitar is with the vocal.
    MusicConfig mc = config.genre == ProgramGenre::kRock ? rock_music_config()
                                                         : pop_music_config();
    mc.percussion *= 0.3;
    side_content = synthesize_music(mc, main.duration_seconds(), sample_rate,
                                    seed ^ 0x51de5eedULL);
  }

  std::mt19937_64 rng(seed ^ 0xa111b1e2ceULL);
  std::normal_distribution<float> ambience(
      0.0F, static_cast<float>(kAmbienceLevel));
  for (std::size_t i = 0; i < n; ++i) {
    const float mid = main.samples[i];
    float side = 0.0F;
    if (config.stereo) {
      if (i < side_content.size()) {
        side = static_cast<float>(width) * side_content.samples[i];
      }
      side += ambience(rng);
    }
    left[i] = mid + side;
    right[i] = mid - side;
  }
  return StereoBuffer(std::move(left), std::move(right), sample_rate);
}

}  // namespace fmbs::audio
