#include "audio/tone.h"

#include <cmath>
#include <random>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::audio {

using dsp::kTwoPi;

namespace {
std::size_t sample_count(double duration_seconds, double sample_rate) {
  if (duration_seconds < 0.0 || sample_rate <= 0.0) {
    throw std::invalid_argument("tone: bad duration or sample rate");
  }
  return static_cast<std::size_t>(duration_seconds * sample_rate + 0.5);
}
}  // namespace

MonoBuffer make_tone(double frequency_hz, double amplitude,
                     double duration_seconds, double sample_rate,
                     double initial_phase) {
  const std::size_t n = sample_count(duration_seconds, sample_rate);
  std::vector<float> s(n);
  const double step = kTwoPi * frequency_hz / sample_rate;
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<float>(amplitude *
                              std::sin(initial_phase + step * static_cast<double>(i)));
  }
  return MonoBuffer(std::move(s), sample_rate);
}

MonoBuffer make_noise(double rms, double duration_seconds, double sample_rate,
                      std::uint64_t seed) {
  const std::size_t n = sample_count(duration_seconds, sample_rate);
  std::vector<float> s(n);
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0F, static_cast<float>(rms));
  for (auto& v : s) v = dist(rng);
  return MonoBuffer(std::move(s), sample_rate);
}

MonoBuffer make_silence(double duration_seconds, double sample_rate) {
  return MonoBuffer(std::vector<float>(sample_count(duration_seconds, sample_rate), 0.0F),
                    sample_rate);
}

MonoBuffer concat(const MonoBuffer& a, const MonoBuffer& b) {
  if (a.sample_rate != b.sample_rate) {
    throw std::invalid_argument("concat: sample rate mismatch");
  }
  std::vector<float> s;
  s.reserve(a.size() + b.size());
  s.insert(s.end(), a.samples.begin(), a.samples.end());
  s.insert(s.end(), b.samples.begin(), b.samples.end());
  return MonoBuffer(std::move(s), a.sample_rate);
}

MonoBuffer mix(const MonoBuffer& a, const MonoBuffer& b, float gain_a, float gain_b) {
  if (a.sample_rate != b.sample_rate) {
    throw std::invalid_argument("mix: sample rate mismatch");
  }
  const std::size_t n = std::min(a.size(), b.size());
  std::vector<float> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = gain_a * a.samples[i] + gain_b * b.samples[i];
  }
  return MonoBuffer(std::move(s), a.sample_rate);
}

}  // namespace fmbs::audio
