#include "fm/transmitter.h"

#include <cmath>
#include <stdexcept>

#include "fm/rds.h"

namespace fmbs::fm {

StationSignal render_station(const StationConfig& config, units::Seconds duration) {
  if (!std::isfinite(duration.raw()) || duration.raw() <= 0.0) {
    throw std::invalid_argument(
        "render_station: duration must be finite and > 0");
  }
  StationSignal out;
  out.sample_rate = kMpxRate;
  out.program = audio::render_program(config.program, duration.raw(),
                                      kAudioRate, config.seed);

  MpxConfig mpx_cfg;
  mpx_cfg.stereo = config.program.stereo;
  mpx_cfg.rds_level = config.rds_level;
  mpx_cfg.preemphasis = config.preemphasis;

  std::vector<unsigned char> rds_bits;
  if (config.rds_level > 0.0) {
    rds_bits = serialize_groups(make_ps_groups(config.rds_ps_name));
  }
  out.mpx = compose_mpx(out.program, mpx_cfg, rds_bits);
  return out;
}

}  // namespace fmbs::fm
