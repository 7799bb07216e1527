// Deterministic seed derivation for parallel sweeps, and the Gaussian
// stream the receiver and device noise models draw from. Every
// ExperimentPoint in a grid gets its own statistically independent seed
// computed from the sweep's base seed and the point's grid index — never
// from execution order or thread identity — so results are bit-identical at
// any thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace fmbs::core {

/// SplitMix64 finalizer over (base, index). Adjacent indices decorrelate
/// fully, and index 0 does not collapse onto the base seed itself.
constexpr std::uint64_t derive_seed(std::uint64_t base_seed,
                                    std::uint64_t index) {
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The block steps of NormalStream: the standard's mt19937_64 (its state
/// and output fully specified by [rand.predef]) and libstdc++'s
/// normal_distribution<float> over it. Each step has a plain C++ body here
/// and an AVX2 twin in dsp/simd.h that gives the same bits.
namespace mt64 {

inline constexpr std::size_t kStateWords = 312;

/// Seeds the state as std::mt19937_64(seed) does.
void seed(std::uint64_t seed, std::uint64_t* state);

/// Twists all 312 state words in place, then writes their tempered outputs
/// to words: the engine's next 312 draws.
void refill(std::uint64_t* state, std::uint64_t* words);

/// libstdc++'s generate_canonical<float, 24> of one draw: float(word),
/// rounded to nearest even, times 2^-64, with 1.0 clamped to
/// nextafter(1, 0).
float canonical(std::uint64_t word);

/// Marsaglia's polar method, as libstdc++'s normal_distribution<float>
/// runs it, over the consecutive word pairs (x, y) of words[0, n), n even:
/// x = float(double(2u) - 1) for canonical u, a pair is rejected when
/// r2 = x*x + y*y is > 1 or 0, and an accepted pair writes y * mult and
/// then x * mult, mult = sqrtf(-2 * logf(r2) / r2). Returns the number of
/// normals written, at most n.
std::size_t polar(const std::uint64_t* words, std::size_t n, float* out);

}  // namespace mt64

/// A Gaussian stream that reproduces std::normal_distribution<float>
/// (mean, stddev) over std::mt19937_64(seed), draw for draw, as libstdc++
/// implements the distribution. It owns the engine state and refills 312
/// draws at a time. The bits are its own except std::log(float), which
/// stays the libm call.
class NormalStream {
 public:
  explicit NormalStream(std::uint64_t seed, float mean = 0.0F,
                        float stddev = 1.0F);

  /// The next draw.
  float next() {
    if (pos_ == count_) refill();
    return normals_[pos_++] * stddev_ + mean_;
  }

  /// Fills out with the next out.size() draws.
  void fill(std::span<float> out);

 private:
  void refill();

  float mean_;
  float stddev_;
  std::size_t pos_ = 0;
  std::size_t count_ = 0;
  std::array<std::uint64_t, mt64::kStateWords> state_;
  std::array<std::uint64_t, mt64::kStateWords> words_;
  std::array<float, mt64::kStateWords> normals_;  // standard normals
};

}  // namespace fmbs::core
