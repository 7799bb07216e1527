// Multi-tag subcarrier placement — paper section 8: "an alternative approach
// is to assign different backscatter devices to different unused FM channels
// in the band, allowing them to operate concurrently."
//
// The planner hands out f_back values on the 200 kHz FM channel raster so N
// tags around one ambient station occupy disjoint backscatter channels:
//
//  * A real square-wave subcarrier at +|f| also produces a mirror copy at
//    -|f| (cos(A-B) term), so a real-switching tag *consumes both* signed
//    channels. The first four tags therefore get 400/600/800/1000 kHz with
//    the classic square switch.
//  * Beyond four, tags use the paper's footnote-2 single-sideband switch,
//    which suppresses the mirror and unlocks the negative channels
//    independently: up to eight concurrent tags within the +-1.2 MHz scene.
//  * Beyond eight the band is full; extra tags are assigned round-robin onto
//    the existing channels and must share via a MAC (core/aloha.h, or the
//    signal-level core::ScenarioEngine with staggered bursts).
#pragma once

#include <cstddef>
#include <vector>

#include "tag/subcarrier.h"

namespace fmbs::tag {

/// One planned backscatter channel assignment.
struct ChannelAssignment {
  SubcarrierConfig subcarrier;  // shift_hz and mode set by the planner
  bool shared = false;          // true when the channel is reused (needs a MAC)
};

/// Plans subcarrier assignments for `num_tags` tags backscattering one
/// ambient station. Channels clear the station's Carson bandwidth (min
/// |f_back| = 400 kHz) and stay inside the fm::kRfRate scene. Throws
/// std::invalid_argument when num_tags is 0.
std::vector<ChannelAssignment> plan_subcarrier_channels(std::size_t num_tags);

}  // namespace fmbs::tag
