#include "rx/multitag.h"

#include <algorithm>
#include <cmath>

namespace fmbs::rx {

BurstWindowBounds burst_window_bounds(const BurstSpec& burst,
                                      double sample_rate,
                                      std::size_t capture_samples) {
  BurstWindowBounds bounds;
  const double fs = sample_rate;
  bounds.begin = static_cast<std::size_t>(
      std::llround(std::max(burst.start_seconds, 0.0) * fs));
  const double payload_seconds = static_cast<double>(burst.bits.size()) /
                                 tag::bits_per_second(burst.rate);
  const auto want = static_cast<std::size_t>(
      (payload_seconds + kBurstTailSlackSeconds) * fs);
  bounds.valid = bounds.begin < capture_samples;
  bounds.length =
      bounds.valid ? std::min(want, capture_samples - bounds.begin) : 0;
  return bounds;
}

BurstReport score_burst_window(const audio::MonoBuffer& window,
                               const BurstSpec& burst, bool window_valid) {
  BurstReport report;
  const std::size_t num_bits = burst.bits.size();
  const std::size_t packet_bits =
      burst.packet_bits > 0 ? std::min(burst.packet_bits, num_bits) : num_bits;

  if (!window_valid || num_bits == 0) {
    // Nothing demodulable: every expected bit counts as lost.
    report.ber = compare_bits(burst.bits, {});
  } else {
    const FskDemodResult demod = demodulate_fsk(window, burst.rate, num_bits);
    report.mean_confidence = demod.mean_confidence;
    report.ber = compare_bits(burst.bits, demod.bits);

    // Packet accounting on the same demodulated stream. A ragged final
    // packet counts only its own bits toward bits_delivered.
    for (std::size_t p = 0; p * packet_bits < num_bits; ++p) {
      const std::size_t lo = p * packet_bits;
      const std::size_t hi = std::min(lo + packet_bits, num_bits);
      ++report.packets;
      bool ok = demod.bits.size() >= hi;
      for (std::size_t i = lo; ok && i < hi; ++i) {
        ok = demod.bits[i] == burst.bits[i];
      }
      if (ok) {
        ++report.packets_ok;
        report.bits_delivered += hi - lo;
      }
    }
  }
  if (report.packets == 0 && num_bits > 0) {
    report.packets = (num_bits + packet_bits - 1) / packet_bits;
  }
  report.per = report.packets > 0
                   ? 1.0 - static_cast<double>(report.packets_ok) /
                               static_cast<double>(report.packets)
                   : 0.0;
  return report;
}

BurstReport demodulate_burst(const audio::MonoBuffer& capture,
                             const BurstSpec& burst) {
  const double fs = capture.sample_rate;
  const BurstWindowBounds bounds =
      burst_window_bounds(burst, fs, capture.size());
  audio::MonoBuffer window({}, fs);
  if (bounds.valid) {
    window = audio::MonoBuffer(
        std::vector<float>(
            capture.samples.begin() + static_cast<std::ptrdiff_t>(bounds.begin),
            capture.samples.begin() +
                static_cast<std::ptrdiff_t>(bounds.begin + bounds.length)),
        fs);
  }
  return score_burst_window(window, burst, bounds.valid);
}

}  // namespace fmbs::rx
