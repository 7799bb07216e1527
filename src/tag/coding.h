// Forward error correction — the paper's section-8 extension: "We can use
// coding [Parks et al., turbocharging ambient backscatter] to improve the FM
// backscatter range." Two codes that fit a microwatt tag budget:
//
//  * Hamming(7,4): single-error-correcting block code; encoding is a few XOR
//    gates on the tag.
//  * Rate-1/2 K=7 convolutional code (industry-standard polynomials
//    171/133) with hard-decision Viterbi decoding at the receiver. The tag
//    side is just two shift-register taps; all complexity lands in the
//    phone, matching the paper's asymmetric design philosophy.
//
// A block interleaver breaks up the bursty errors that FM clicks and motion
// fades produce.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fmbs::tag {

// ---- Hamming(7,4) -----------------------------------------------------------

/// Encodes data bits (any length; zero-padded to a multiple of 4) into
/// Hamming(7,4) codewords. Output length = ceil(n/4) * 7 bits.
std::vector<std::uint8_t> hamming74_encode(std::span<const std::uint8_t> bits);

/// Decodes Hamming(7,4) codewords, correcting one error per 7-bit block.
/// Output length = (input length / 7) * 4 bits.
std::vector<std::uint8_t> hamming74_decode(std::span<const std::uint8_t> bits);

// ---- Rate-1/2 K=7 convolutional code ---------------------------------------

/// Convolutional code parameters (CCSDS / voyager polynomials).
struct ConvolutionalCode {
  static constexpr int kConstraintLength = 7;
  static constexpr std::uint8_t kPolyA = 0x6D;  // 155 octal = 1101101
  static constexpr std::uint8_t kPolyB = 0x4F;  // 117 octal = 1001111
};

/// Encodes bits at rate 1/2 with K=7, appending 6 flush bits so the decoder
/// terminates in the zero state. Output length = 2 * (n + 6).
std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits);

/// Hard-decision Viterbi decoding; returns the original n = input/2 - 6
/// bits. Throws std::invalid_argument when the input is malformed.
std::vector<std::uint8_t> viterbi_decode(std::span<const std::uint8_t> bits);

// ---- Block interleaver -------------------------------------------------------

/// Row-in/column-out block interleaver. Input is zero-padded to fill the
/// rows x cols matrix; the same (rows, cols) deinterleaves.
std::vector<std::uint8_t> interleave(std::span<const std::uint8_t> bits,
                                     std::size_t rows, std::size_t cols);

/// Inverse of interleave (returns rows*cols bits; caller trims).
std::vector<std::uint8_t> deinterleave(std::span<const std::uint8_t> bits,
                                       std::size_t rows, std::size_t cols);

// ---- Convenience pipelines ---------------------------------------------------

/// Which code protects a payload.
enum class FecScheme {
  kNone,
  kHamming74,
  kConvolutionalK7,
};

/// Encodes payload bits under a scheme (with a 16x32 interleaver for the
/// coded schemes). Returns the on-air bit sequence.
std::vector<std::uint8_t> fec_encode(std::span<const std::uint8_t> bits,
                                     FecScheme scheme);

/// Inverse of fec_encode; `payload_bits` is the original payload length.
std::vector<std::uint8_t> fec_decode(std::span<const std::uint8_t> bits,
                                     FecScheme scheme, std::size_t payload_bits);

/// Code rate (payload bits per channel bit).
double fec_rate(FecScheme scheme);

const char* to_string(FecScheme scheme);

}  // namespace fmbs::tag
