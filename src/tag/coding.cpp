#include "tag/coding.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

namespace fmbs::tag {

namespace {

// Hamming(7,4) generator: data d1..d4, parities p1 = d1^d2^d4,
// p2 = d1^d3^d4, p3 = d2^d3^d4; codeword [p1 p2 d1 p3 d2 d3 d4]
// (the classic positional layout, so the syndrome directly indexes the
// erroneous bit).
std::array<std::uint8_t, 7> hamming_codeword(std::uint8_t d1, std::uint8_t d2,
                                             std::uint8_t d3, std::uint8_t d4) {
  const std::uint8_t p1 = d1 ^ d2 ^ d4;
  const std::uint8_t p2 = d1 ^ d3 ^ d4;
  const std::uint8_t p3 = d2 ^ d3 ^ d4;
  return {p1, p2, d1, p3, d2, d3, d4};
}

}  // namespace

std::vector<std::uint8_t> hamming74_encode(std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out;
  out.reserve((bits.size() + 3) / 4 * 7);
  for (std::size_t i = 0; i < bits.size(); i += 4) {
    const auto bit = [&](std::size_t k) -> std::uint8_t {
      return i + k < bits.size() ? bits[i + k] : 0;
    };
    const auto cw = hamming_codeword(bit(0), bit(1), bit(2), bit(3));
    out.insert(out.end(), cw.begin(), cw.end());
  }
  return out;
}

std::vector<std::uint8_t> hamming74_decode(std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out;
  out.reserve(bits.size() / 7 * 4);
  for (std::size_t i = 0; i + 7 <= bits.size(); i += 7) {
    std::array<std::uint8_t, 7> cw{};
    for (std::size_t k = 0; k < 7; ++k) cw[k] = bits[i + k];
    // Syndrome bits: s1 checks positions 1,3,5,7; s2: 2,3,6,7; s3: 4,5,6,7
    // (1-indexed).
    const std::uint8_t s1 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
    const std::uint8_t s2 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
    const std::uint8_t s3 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
    const std::size_t syndrome =
        static_cast<std::size_t>(s1) | (static_cast<std::size_t>(s2) << 1) |
        (static_cast<std::size_t>(s3) << 2);
    if (syndrome != 0) cw[syndrome - 1] ^= 1;  // correct the flagged bit
    out.push_back(cw[2]);
    out.push_back(cw[4]);
    out.push_back(cw[5]);
    out.push_back(cw[6]);
  }
  return out;
}

namespace {

std::uint8_t parity(std::uint8_t v) {
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return v & 1;
}

}  // namespace

std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out;
  out.reserve(2 * (bits.size() + 6));
  std::uint8_t state = 0;  // 6 memory bits
  auto push = [&](std::uint8_t input) {
    const std::uint8_t reg = static_cast<std::uint8_t>((input << 6) | state);
    out.push_back(parity(reg & ConvolutionalCode::kPolyA));
    out.push_back(parity(reg & ConvolutionalCode::kPolyB));
    state = static_cast<std::uint8_t>(reg >> 1);
  };
  for (const std::uint8_t b : bits) push(b & 1);
  for (int i = 0; i < 6; ++i) push(0);  // flush to the zero state
  return out;
}

std::vector<std::uint8_t> viterbi_decode(std::span<const std::uint8_t> bits) {
  if (bits.size() % 2 != 0 || bits.size() < 12) {
    throw std::invalid_argument("viterbi_decode: need an even number of >= 12 bits");
  }
  const std::size_t steps = bits.size() / 2;
  constexpr std::size_t kStates = 64;
  constexpr int kInf = std::numeric_limits<int>::max() / 4;

  // Precompute expected outputs per (state, input).
  std::array<std::array<std::uint8_t, 2>, kStates * 2> expected{};
  std::array<std::array<std::uint8_t, 2>, kStates> next{};
  for (std::size_t s = 0; s < kStates; ++s) {
    for (std::uint8_t in = 0; in < 2; ++in) {
      const std::uint8_t reg = static_cast<std::uint8_t>((in << 6) | s);
      expected[s * 2 + in] = {parity(reg & ConvolutionalCode::kPolyA),
                              parity(reg & ConvolutionalCode::kPolyB)};
      next[s][in] = static_cast<std::uint8_t>(reg >> 1);
    }
  }

  std::vector<int> metric(kStates, kInf);
  metric[0] = 0;  // encoder starts in the zero state
  std::vector<std::uint8_t> backtrack(steps * kStates);

  std::vector<int> metric_next(kStates);
  for (std::size_t t = 0; t < steps; ++t) {
    std::fill(metric_next.begin(), metric_next.end(), kInf);
    std::vector<std::uint8_t> chosen_input(kStates, 0);
    std::vector<std::uint8_t> chosen_prev(kStates, 0);
    const std::uint8_t r0 = bits[2 * t];
    const std::uint8_t r1 = bits[2 * t + 1];
    for (std::size_t s = 0; s < kStates; ++s) {
      if (metric[s] >= kInf) continue;
      for (std::uint8_t in = 0; in < 2; ++in) {
        const auto& e = expected[s * 2 + in];
        const int branch = (e[0] != r0) + (e[1] != r1);
        const std::uint8_t ns = next[s][in];
        const int cand = metric[s] + branch;
        if (cand < metric_next[ns]) {
          metric_next[ns] = cand;
          chosen_input[ns] = in;
          chosen_prev[ns] = static_cast<std::uint8_t>(s);
        }
      }
    }
    metric.swap(metric_next);
    for (std::size_t ns = 0; ns < kStates; ++ns) {
      // Pack (input, prev) for traceback: input in bit 7, prev in bits 0-5.
      backtrack[t * kStates + ns] =
          static_cast<std::uint8_t>((chosen_input[ns] << 7) | chosen_prev[ns]);
    }
  }

  // Terminated in state 0 by the flush bits.
  std::vector<std::uint8_t> reversed;
  reversed.reserve(steps);
  std::uint8_t state = 0;
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint8_t entry = backtrack[t * kStates + state];
    reversed.push_back(static_cast<std::uint8_t>(entry >> 7));
    state = entry & 0x3F;
  }
  std::reverse(reversed.begin(), reversed.end());
  reversed.resize(steps - 6);  // drop the flush bits
  return reversed;
}

std::vector<std::uint8_t> interleave(std::span<const std::uint8_t> bits,
                                     std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("interleave: rows and cols must be >= 1");
  }
  const std::size_t block = rows * cols;
  const std::size_t blocks = (bits.size() + block - 1) / block;
  std::vector<std::uint8_t> out;
  out.reserve(blocks * block);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t idx = b * block + r * cols + c;
        out.push_back(idx < bits.size() ? bits[idx] : 0);
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> deinterleave(std::span<const std::uint8_t> bits,
                                       std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("deinterleave: rows and cols must be >= 1");
  }
  const std::size_t block = rows * cols;
  const std::size_t blocks = (bits.size() + block - 1) / block;
  std::vector<std::uint8_t> out(blocks * block, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::size_t k = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t src = b * block + k++;
        if (src < bits.size()) out[b * block + r * cols + c] = bits[src];
      }
    }
  }
  return out;
}

namespace {
constexpr std::size_t kInterleaveRows = 16;
constexpr std::size_t kInterleaveCols = 32;
}  // namespace

std::vector<std::uint8_t> fec_encode(std::span<const std::uint8_t> bits,
                                     FecScheme scheme) {
  switch (scheme) {
    case FecScheme::kNone:
      return std::vector<std::uint8_t>(bits.begin(), bits.end());
    case FecScheme::kHamming74: {
      const auto coded = hamming74_encode(bits);
      return interleave(coded, kInterleaveRows, kInterleaveCols);
    }
    case FecScheme::kConvolutionalK7: {
      const auto coded = convolutional_encode(bits);
      return interleave(coded, kInterleaveRows, kInterleaveCols);
    }
  }
  throw std::invalid_argument("fec_encode: unknown scheme");
}

std::vector<std::uint8_t> fec_decode(std::span<const std::uint8_t> bits,
                                     FecScheme scheme, std::size_t payload_bits) {
  std::vector<std::uint8_t> out;
  switch (scheme) {
    case FecScheme::kNone:
      out.assign(bits.begin(), bits.end());
      break;
    case FecScheme::kHamming74: {
      auto deint = deinterleave(bits, kInterleaveRows, kInterleaveCols);
      deint.resize((payload_bits + 3) / 4 * 7);
      out = hamming74_decode(deint);
      break;
    }
    case FecScheme::kConvolutionalK7: {
      auto deint = deinterleave(bits, kInterleaveRows, kInterleaveCols);
      deint.resize(2 * (payload_bits + 6));
      out = viterbi_decode(deint);
      break;
    }
  }
  if (out.size() > payload_bits) out.resize(payload_bits);
  return out;
}

double fec_rate(FecScheme scheme) {
  switch (scheme) {
    case FecScheme::kNone: return 1.0;
    case FecScheme::kHamming74: return 4.0 / 7.0;
    case FecScheme::kConvolutionalK7: return 0.5;
  }
  return 1.0;
}

const char* to_string(FecScheme scheme) {
  switch (scheme) {
    case FecScheme::kNone: return "uncoded";
    case FecScheme::kHamming74: return "Hamming(7,4)";
    case FecScheme::kConvolutionalK7: return "conv K=7 r=1/2";
  }
  return "unknown";
}

}  // namespace fmbs::tag
