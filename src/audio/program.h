// Station program models: what an FM station is broadcasting. Reproduces the
// paper's four station archetypes (news/information, mixed, pop music, rock
// music) including their stereo behaviour — news stations play the same
// speech on both channels (near-zero L-R energy, the basis of stereo
// backscatter), music stations pan instruments (substantial L-R energy).
#pragma once

#include <cstdint>
#include <string>

#include "audio/audio_buffer.h"

namespace fmbs::audio {

/// The paper's four program genres plus pure silence (for micro-benchmarks
/// that need an unmodulated carrier, e.g. Fig. 6).
enum class ProgramGenre {
  kSilence,
  kNews,
  kMixed,
  kPop,
  kRock,
};

/// Human-readable genre name (matches the paper's figure legends).
std::string to_string(ProgramGenre genre);

/// L-R content level relative to L+R for music genres (stereo width).
inline constexpr double kStereoWidth = 0.35;

/// Level of uncorrelated studio/ambience noise that leaks into L-R even on
/// news stations (keeps P_stereo/P_noise finite, as measured in Fig. 5).
inline constexpr double kAmbienceLevel = 0.004;

/// Program content descriptor.
struct ProgramConfig {
  ProgramGenre genre = ProgramGenre::kNews;
  /// True if the station transmits a stereo (L-R) stream + pilot.
  bool stereo = true;
};

/// Renders station program audio. Deterministic per (config, seed). Throws
/// std::invalid_argument unless the duration is finite and >= 0 and the
/// rate > 0.
StereoBuffer render_program(const ProgramConfig& config, double duration_seconds,
                            double sample_rate, std::uint64_t seed);

}  // namespace fmbs::audio
