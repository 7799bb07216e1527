#include "core/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "dsp/simd.h"

namespace fmbs::core {

namespace mt64 {

namespace {

constexpr std::size_t kShift = 156;  // the standard's m
constexpr std::uint64_t kUpper = 0xFFFFFFFF80000000ULL;
constexpr std::uint64_t kLower = 0x7FFFFFFFULL;
constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;

std::uint64_t twist(std::uint64_t cur, std::uint64_t next,
                    std::uint64_t far) {
  const std::uint64_t y = (cur & kUpper) | (next & kLower);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

std::uint64_t temper(std::uint64_t x) {
  x ^= (x >> 29) & 0x5555555555555555ULL;
  x ^= (x << 17) & 0x71D67FFFEDA60000ULL;
  x ^= (x << 37) & 0xFFF7EEE000000000ULL;
  return x ^ (x >> 43);
}

}  // namespace

void seed(std::uint64_t seed, std::uint64_t* state) {
  state[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    state[i] = 6364136223846793005ULL * (state[i - 1] ^ (state[i - 1] >> 62)) +
               static_cast<std::uint64_t>(i);
  }
}

void refill(std::uint64_t* state, std::uint64_t* words) {
  for (std::size_t i = 0; i < kStateWords; ++i) {
    state[i] = twist(state[i], state[(i + 1) % kStateWords],
                     state[(i + kShift) % kStateWords]);
  }
  for (std::size_t i = 0; i < kStateWords; ++i) words[i] = temper(state[i]);
}

float canonical(std::uint64_t word) {
  // A word of 2^53 and up converts as (word >> 11) * 2^11 with bits 0-10
  // folded into a sticky bit: they lie below the float's rounding bit,
  // where only their OR matters. Below 2^53 the word converts as it is.
  // Either way the double is exact, so the one float rounding is the
  // word's own, without the branch a plain uint64 -> float conversion
  // takes on the top bit.
  const std::uint64_t big = static_cast<std::uint64_t>((word >> 53) != 0);
  const std::uint64_t sticky = static_cast<std::uint64_t>((word & 0x7FF) != 0);
  const std::uint64_t shift = 11 * big;
  const auto v = static_cast<std::int64_t>((word >> shift) | (sticky & big));
  const double scale = std::bit_cast<double>((1023 + shift) << 52);
  const float u = static_cast<float>(static_cast<double>(v) * scale) * 0x1p-64F;
  return std::min(u, 0x1.fffffep-1F);
}

std::size_t polar(const std::uint64_t* words, std::size_t n, float* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const float x = static_cast<float>(
        static_cast<double>(2.0F * canonical(words[i])) - 1.0);
    const float y = static_cast<float>(
        static_cast<double>(2.0F * canonical(words[i + 1])) - 1.0);
    const float r2 = x * x + y * y;
    if (r2 > 1.0F || r2 == 0.0F) continue;
    const float mult = std::sqrt(-2.0F * std::log(r2) / r2);
    out[count++] = y * mult;
    out[count++] = x * mult;
  }
  return count;
}

}  // namespace mt64

NormalStream::NormalStream(std::uint64_t seed, float mean, float stddev)
    : mean_(mean), stddev_(stddev) {
  mt64::seed(seed, state_.data());
}

void NormalStream::fill(std::span<float> out) {
  for (std::size_t i = 0; i < out.size();) {
    if (pos_ == count_) refill();
    const std::size_t n = std::min(count_ - pos_, out.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      out[i + k] = normals_[pos_ + k] * stddev_ + mean_;
    }
    pos_ += n;
    i += n;
  }
}

void NormalStream::refill() {
  do {
#if FMBS_SIMD_ENABLED
    if (dsp::simd::avx2_available()) {
      dsp::simd::avx2::mt64_refill(state_.data(), words_.data());
      count_ = dsp::simd::avx2::mt64_polar(words_.data(), mt64::kStateWords,
                                           normals_.data());
      continue;
    }
#endif
    mt64::refill(state_.data(), words_.data());
    count_ = mt64::polar(words_.data(), mt64::kStateWords, normals_.data());
  } while (count_ == 0);
  pos_ = 0;
}

}  // namespace fmbs::core
