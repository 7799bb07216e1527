// Multi-tag demodulation routing: one FM receiver capture may carry several
// tag transmissions (bursts) — concurrent tags on the same backscatter
// channel (ALOHA), or one tag's scheduled packets. Each burst is an expected
// transmission with a known start offset inside the continuous capture; the
// router extracts its audio window, runs the non-coherent FSK demodulator
// and scores BER plus packet-level statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "audio/audio_buffer.h"
#include "rx/fsk_demod.h"
#include "tag/fsk.h"

namespace fmbs::rx {

/// One expected tag transmission within a receiver's continuous capture.
struct BurstSpec {
  tag::DataRate rate = tag::DataRate::k1600bps;
  std::vector<std::uint8_t> bits;  // transmitted reference payload
  double start_seconds = 0.0;      // payload start within the capture
  /// Packet size for PER accounting; 0 = the whole payload is one packet.
  std::size_t packet_bits = 0;
};

/// Demodulation + scoring of one burst.
struct BurstReport {
  BerResult ber;
  std::size_t packets = 0;
  std::size_t packets_ok = 0;   // packets decoded with zero bit errors
  std::size_t bits_delivered = 0;  // total payload bits of the ok packets
  double per = 0.0;             // 1 - packets_ok / packets
  double mean_confidence = 0.0; // demodulator decision margin
};

/// Audio kept past the nominal payload end: covers the pipeline group delay
/// plus the timing search window of the demodulator.
inline constexpr double kBurstTailSlackSeconds = 0.05;

/// Where a burst's demodulation window sits inside a capture of
/// `capture_samples` at `sample_rate`: `[begin, begin + length)`, clamped to
/// the capture. `valid` is false when the burst starts past the end of the
/// capture (nothing demodulable — every expected bit counts as lost). Pure
/// arithmetic, shared by demodulate_burst and the streaming collector so
/// both slice bit-identical windows.
struct BurstWindowBounds {
  std::size_t begin = 0;
  std::size_t length = 0;
  bool valid = false;
};

BurstWindowBounds burst_window_bounds(const BurstSpec& burst,
                                      double sample_rate,
                                      std::size_t capture_samples);

/// Scores an already-extracted burst window (exactly the samples
/// demodulate_burst slices out of the capture via burst_window_bounds).
/// `window_valid` false marks a fully out-of-range burst: every expected bit
/// is an error and no packet is delivered. Shared by demodulate_burst and
/// the streaming rx::StreamingBurstDemodulator.
BurstReport score_burst_window(const audio::MonoBuffer& window,
                               const BurstSpec& burst, bool window_valid);

/// Demodulates one burst from the capture. The window starts exactly at
/// `start_seconds` (the transmitter-side lead-in convention) and extends a
/// slack past the payload to cover the pipeline group delay. Bursts that
/// fall (partly) outside the capture are scored against whatever bits could
/// be demodulated; fully out-of-range bursts report all bits as errors.
BurstReport demodulate_burst(const audio::MonoBuffer& capture,
                             const BurstSpec& burst);

}  // namespace fmbs::rx
