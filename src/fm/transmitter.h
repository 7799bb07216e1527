// FM station: program synthesis -> MPX composition. The MPX is the ambient
// signal every experiment backscatters; its carrier IQ is a pure function of
// it (paper Eq. 1), so it is not stored: whoever needs the IQ streams the MPX
// through an fm::FmModulator built from the station's deviation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "audio/audio_buffer.h"
#include "audio/program.h"
#include "core/units.h"
#include "dsp/types.h"
#include "fm/constants.h"
#include "fm/mpx.h"

namespace fmbs::fm {

/// Everything that defines an FM station in the simulation.
struct StationConfig {
  audio::ProgramConfig program;
  /// Frequency deviation; the paper uses the maximum allowed 75 kHz.
  units::Hertz deviation{kMaxDeviationHz};
  /// RDS injection (0 disables). PS name is broadcast as group 0A.
  double rds_level = 0.0;
  std::string rds_ps_name = "FMBSCTTR";
  /// Apply broadcast pre-emphasis to the program audio.
  bool preemphasis = false;
  /// Deterministic content seed.
  std::uint64_t seed = 1;
};

/// A rendered station transmission.
struct StationSignal {
  dsp::rvec mpx;                // the composite baseband the carrier carries
  audio::StereoBuffer program;  // the program audio (ground truth)
  double sample_rate = kMpxRate;
};

/// Renders `duration` (finite, > 0) of a station's program and MPX at the
/// MPX rate. Modulating the MPX gives unit-amplitude IQ; the RF scene applies
/// transmit power.
StationSignal render_station(const StationConfig& config, units::Seconds duration);

}  // namespace fmbs::fm
