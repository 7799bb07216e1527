#include "tag/coding.h"

#include <gtest/gtest.h>

#include <random>

#include "tag/fsk.h"

namespace fmbs::tag {
namespace {

TEST(Hamming74, RoundTripClean) {
  const auto data = random_bits(64, 1);
  const auto coded = hamming74_encode(data);
  EXPECT_EQ(coded.size(), 64U / 4U * 7U);
  const auto decoded = hamming74_decode(coded);
  ASSERT_EQ(decoded.size(), data.size());
  EXPECT_EQ(decoded, data);
}

TEST(Hamming74, CorrectsSingleErrorPerBlock) {
  const auto data = random_bits(32, 2);
  auto coded = hamming74_encode(data);
  // Flip one bit in every 7-bit block (each position once over the blocks).
  for (std::size_t block = 0; block * 7 < coded.size(); ++block) {
    coded[block * 7 + block % 7] ^= 1;
  }
  const auto decoded = hamming74_decode(coded);
  EXPECT_EQ(decoded, data);
}

TEST(Hamming74, TwoErrorsPerBlockFail) {
  // Sanity: the code is only single-error-correcting.
  const std::vector<std::uint8_t> data{1, 0, 1, 1};
  auto coded = hamming74_encode(data);
  coded[0] ^= 1;
  coded[1] ^= 1;
  const auto decoded = hamming74_decode(coded);
  EXPECT_NE(decoded, data);
}

TEST(Hamming74, PadsPartialBlock) {
  const std::vector<std::uint8_t> data{1, 1, 0};  // not a multiple of 4
  const auto coded = hamming74_encode(data);
  EXPECT_EQ(coded.size(), 7U);
  const auto decoded = hamming74_decode(coded);
  ASSERT_EQ(decoded.size(), 4U);
  EXPECT_EQ(decoded[0], 1);
  EXPECT_EQ(decoded[1], 1);
  EXPECT_EQ(decoded[2], 0);
}

TEST(Convolutional, RoundTripClean) {
  const auto data = random_bits(200, 3);
  const auto coded = convolutional_encode(data);
  EXPECT_EQ(coded.size(), 2U * (200U + 6U));
  const auto decoded = viterbi_decode(coded);
  EXPECT_EQ(decoded, data);
}

TEST(Convolutional, CorrectsScatteredErrors) {
  const auto data = random_bits(200, 4);
  auto coded = convolutional_encode(data);
  // ~4% random errors, scattered (the interleaver's job in the pipeline).
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::size_t> pos(0, coded.size() - 1);
  for (int i = 0; i < static_cast<int>(coded.size() / 25); ++i) {
    coded[pos(rng)] ^= 1;
  }
  const auto decoded = viterbi_decode(coded);
  ASSERT_EQ(decoded.size(), data.size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (decoded[i] != data[i]) ++errors;
  }
  EXPECT_EQ(errors, 0U) << "K=7 Viterbi should clean up 4% scattered errors";
}

TEST(Convolutional, BurstWithoutInterleaverFails) {
  const auto data = random_bits(200, 6);
  auto coded = convolutional_encode(data);
  // A 30-bit burst exceeds the code's memory; expect residual errors.
  for (std::size_t i = 100; i < 130; ++i) coded[i] ^= 1;
  const auto decoded = viterbi_decode(coded);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (decoded[i] != data[i]) ++errors;
  }
  EXPECT_GT(errors, 0U);
}

TEST(Convolutional, Validation) {
  const std::vector<std::uint8_t> odd(13, 0);
  EXPECT_THROW(viterbi_decode(odd), std::invalid_argument);
  const std::vector<std::uint8_t> tiny(4, 0);
  EXPECT_THROW(viterbi_decode(tiny), std::invalid_argument);
}

TEST(Interleaver, RoundTrip) {
  const auto data = random_bits(16 * 32 * 2, 7);
  const auto inter = interleave(data, 16, 32);
  const auto deinter = deinterleave(inter, 16, 32);
  ASSERT_GE(deinter.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(deinter[i], data[i]);
  }
}

TEST(Interleaver, SpreadsBursts) {
  // A burst of B consecutive channel errors must land in distinct rows after
  // deinterleaving: no two errors closer than `cols` apart.
  const std::size_t rows = 8, cols = 16;
  std::vector<std::uint8_t> data(rows * cols, 0);
  auto inter = interleave(data, rows, cols);
  for (std::size_t i = 40; i < 46; ++i) inter[i] ^= 1;  // 6-bit burst
  const auto deinter = deinterleave(inter, rows, cols);
  std::vector<std::size_t> error_positions;
  for (std::size_t i = 0; i < deinter.size(); ++i) {
    if (deinter[i]) error_positions.push_back(i);
  }
  ASSERT_EQ(error_positions.size(), 6U);
  for (std::size_t i = 1; i < error_positions.size(); ++i) {
    EXPECT_GE(error_positions[i] - error_positions[i - 1], cols - 1);
  }
}

TEST(Interleaver, Validation) {
  const std::vector<std::uint8_t> bits{1};
  EXPECT_THROW(interleave(bits, 0, 4), std::invalid_argument);
  EXPECT_THROW(deinterleave(bits, 4, 0), std::invalid_argument);
}

class FecSchemes : public ::testing::TestWithParam<FecScheme> {};

TEST_P(FecSchemes, PipelineRoundTrip) {
  const auto data = random_bits(300, 8);
  const auto coded = fec_encode(data, GetParam());
  const auto decoded = fec_decode(coded, GetParam(), data.size());
  EXPECT_EQ(decoded, data);
}

TEST_P(FecSchemes, BurstToleranceOrdering) {
  // With the interleaver, a channel burst is survivable by the coded
  // schemes in proportion to their strength.
  const auto data = random_bits(300, 9);
  auto coded = fec_encode(data, GetParam());
  for (std::size_t i = 64; i < 72 && i < coded.size(); ++i) coded[i] ^= 1;
  const auto decoded = fec_decode(coded, GetParam(), data.size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (decoded[i] != data[i]) ++errors;
  }
  if (GetParam() == FecScheme::kNone) {
    EXPECT_EQ(errors, 8U);  // burst passes straight through
  } else {
    EXPECT_EQ(errors, 0U) << "coded scheme should absorb an 8-bit burst";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FecSchemes,
                         ::testing::Values(FecScheme::kNone,
                                           FecScheme::kHamming74,
                                           FecScheme::kConvolutionalK7));

TEST(Fec, RatesAndNames) {
  EXPECT_EQ(fec_rate(FecScheme::kNone), 1.0);
  EXPECT_NEAR(fec_rate(FecScheme::kHamming74), 4.0 / 7.0, 1e-12);
  EXPECT_EQ(fec_rate(FecScheme::kConvolutionalK7), 0.5);
  EXPECT_STREQ(to_string(FecScheme::kHamming74), "Hamming(7,4)");
}

}  // namespace
}  // namespace fmbs::tag
