#include "tag/framing.h"

#include <gtest/gtest.h>

#include <string>

namespace fmbs::tag {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc16(data), 0x29B1);
}

TEST(Crc16, EmptyIsInitialValue) { EXPECT_EQ(crc16({}), 0xFFFF); }

TEST(Frame, EncodeDecodeRoundTrip) {
  const auto payload = bytes_of("SIMPLY THREE - FALL TOUR");
  const auto bits = encode_frame(payload);
  const auto decoded = decode_frame(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Frame, BitLengthLayout) {
  const auto payload = bytes_of("AB");
  const auto bits = encode_frame(payload);
  EXPECT_EQ(bits.size(), 16U + 8U + 16U + 16U);
}

TEST(Frame, DecodeWithLeadingGarbage) {
  const auto payload = bytes_of("hello");
  auto bits = encode_frame(payload);
  std::vector<std::uint8_t> noisy{1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0};
  noisy.insert(noisy.end(), bits.begin(), bits.end());
  const auto decoded = decode_frame(noisy);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Frame, CorruptedCrcRejected) {
  const auto payload = bytes_of("data!");
  auto bits = encode_frame(payload);
  bits[30] ^= 1;  // flip a payload bit
  EXPECT_FALSE(decode_frame(bits).has_value());
}

TEST(Frame, CorruptedSyncNotFound) {
  const auto payload = bytes_of("x");
  auto bits = encode_frame(payload);
  bits[0] ^= 1;
  bits[5] ^= 1;
  EXPECT_FALSE(decode_frame(bits).has_value());
}

TEST(Frame, EmptyPayloadAllowed) {
  const auto bits = encode_frame({});
  const auto decoded = decode_frame(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(Frame, OversizedPayloadThrows) {
  const std::vector<std::uint8_t> big(256, 0x55);
  EXPECT_THROW(encode_frame(big), std::invalid_argument);
}

TEST(Frame, TruncatedFrameRejected) {
  const auto payload = bytes_of("truncate me");
  auto bits = encode_frame(payload);
  // erase, not resize(size()-10): GCC 12 cannot prove size()>=10 through the
  // inlined resize and emits a -Wstringop-overflow/-Warray-bounds false
  // positive (PR 107852) under -Werror; erasing a checked tail range does
  // the same truncation without the flagged memset path.
  ASSERT_GT(bits.size(), 10U);
  bits.erase(bits.end() - 10, bits.end());
  EXPECT_FALSE(decode_frame(bits).has_value());
}

TEST(Frame, FindsFrameInLongBitstream) {
  // Multiple frames: decoder returns the first intact one.
  const auto p1 = bytes_of("first");
  const auto p2 = bytes_of("second");
  auto bits = encode_frame(p1);
  const auto more = encode_frame(p2);
  bits.insert(bits.end(), more.begin(), more.end());
  const auto decoded = decode_frame(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p1);
}

}  // namespace
}  // namespace fmbs::tag
