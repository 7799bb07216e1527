#include "tag/channel_plan.h"

#include <stdexcept>

namespace fmbs::tag {

namespace {

/// Lowest usable |f_back|: two channel spacings, so the backscatter channel's
/// Carson bandwidth (+-133 kHz) clears the station's own occupancy around DC.
constexpr double kMinShiftHz = 2.0 * fm::kChannelSpacingHz;

/// Positive channel-raster shifts that fit the scene: |f_back| + max
/// deviation must clear Nyquist with the subcarrier generator's margin.
std::vector<double> positive_shifts() {
  std::vector<double> shifts;
  for (double f = kMinShiftHz;; f += fm::kChannelSpacingHz) {
    if (f + fm::kMaxDeviationHz >= fm::kRfRate / 2.0) break;
    // The tuner needs the full channel passband alias-free.
    if (f + fm::kCarsonBandwidthHz / 2.0 >= fm::kRfRate / 2.0) break;
    shifts.push_back(f);
  }
  return shifts;
}

}  // namespace

std::vector<ChannelAssignment> plan_subcarrier_channels(std::size_t num_tags) {
  if (num_tags == 0) {
    throw std::invalid_argument("plan_subcarrier_channels: num_tags must be > 0");
  }
  const std::vector<double> pos = positive_shifts();

  // Disjoint channel list: +f (real square OK while only positive channels
  // are used), then -f (requires SSB everywhere so mirrors don't collide).
  const bool need_ssb = num_tags > pos.size();
  std::vector<double> channels;
  channels.reserve(2 * pos.size());
  for (const double f : pos) channels.push_back(f);
  if (need_ssb) {
    for (const double f : pos) channels.push_back(-f);
  }

  std::vector<ChannelAssignment> plan(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    ChannelAssignment& a = plan[i];
    a.subcarrier.shift = units::Hertz{channels[i % channels.size()]};
    a.subcarrier.mode = need_ssb ? SubcarrierMode::kSingleSideband
                                 : SubcarrierMode::kBandlimitedSquare;
    a.shared = i >= channels.size();
  }
  return plan;
}

}  // namespace fmbs::tag
