#include "tag/framing.h"

#include <stdexcept>

namespace fmbs::tag {

std::uint16_t crc16(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

namespace {
void append_bits(std::vector<std::uint8_t>& bits, std::uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) {
    bits.push_back(static_cast<std::uint8_t>((value >> i) & 1U));
  }
}

std::uint32_t read_bits(std::span<const std::uint8_t> bits, std::size_t start,
                        int count) {
  std::uint32_t v = 0;
  for (int i = 0; i < count; ++i) {
    v = (v << 1) | bits[start + static_cast<std::size_t>(i)];
  }
  return v;
}
}  // namespace

std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload) {
  if (payload.size() > Frame::kMaxPayloadBytes) {
    throw std::invalid_argument("encode_frame: payload too large");
  }
  std::vector<std::uint8_t> bits;
  bits.reserve(16 + 8 + payload.size() * 8 + 16);
  append_bits(bits, Frame::kSyncWord, 16);
  append_bits(bits, static_cast<std::uint32_t>(payload.size()), 8);
  for (const std::uint8_t b : payload) append_bits(bits, b, 8);
  append_bits(bits, crc16(payload), 16);
  return bits;
}

std::optional<std::vector<std::uint8_t>> decode_frame(
    std::span<const std::uint8_t> bits) {
  if (bits.size() < 40) return std::nullopt;
  for (std::size_t start = 0; start + 40 <= bits.size(); ++start) {
    if (read_bits(bits, start, 16) != Frame::kSyncWord) continue;
    const std::uint32_t length = read_bits(bits, start + 16, 8);
    const std::size_t total = 16 + 8 + length * 8 + 16;
    if (start + total > bits.size()) continue;
    std::vector<std::uint8_t> payload(length);
    for (std::uint32_t i = 0; i < length; ++i) {
      payload[i] =
          static_cast<std::uint8_t>(read_bits(bits, start + 24 + i * 8, 8));
    }
    const auto crc =
        static_cast<std::uint16_t>(read_bits(bits, start + 24 + length * 8, 16));
    if (crc == crc16(payload)) return payload;
  }
  return std::nullopt;
}

}  // namespace fmbs::tag
