// Packet framing over the FSK modem: sync word + length + payload + CRC-16,
// plus frame repetition for the paper's maximal-ratio-combining scheme.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fmbs::tag {

/// CRC-16/CCITT-FALSE over a byte sequence.
std::uint16_t crc16(std::span<const std::uint8_t> data);

/// Frame layout constants.
struct Frame {
  /// 16-bit sync word chosen for good autocorrelation (0xF628).
  static constexpr std::uint16_t kSyncWord = 0xF628;
  static constexpr std::size_t kMaxPayloadBytes = 255;
};

/// Encodes payload bytes into a bit sequence:
/// [sync 16][length 8][payload 8*n][crc 16], MSB-first.
std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload);

/// Scans a decoded bit sequence for a frame; verifies length and CRC.
/// Returns the payload, or nullopt when no intact frame is found.
std::optional<std::vector<std::uint8_t>> decode_frame(
    std::span<const std::uint8_t> bits);

}  // namespace fmbs::tag
