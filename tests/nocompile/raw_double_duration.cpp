// The migrated public APIs refuse bare doubles: render_station's duration
// parameter is units::Seconds, so the pre-migration call shape no longer
// compiles. (This is the regression the whole harness guards: someone
// re-widening a typed API back to double would make this fixture build.)
// expect-error: (cannot|could not) convert .*.double.*to .*units::Seconds
#include "fm/transmitter.h"

int main() {
  fmbs::fm::StationConfig config;
  const auto signal = fmbs::fm::render_station(config, 0.5);
  return signal.mpx.empty() ? 1 : 0;
}
