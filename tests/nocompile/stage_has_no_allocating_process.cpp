// A DSP stage has one block method. A filter writes into a caller's buffer
// through process_into(in, out); the allocating process(span) -> vector
// that used to sit beside it is gone, so a second code path that returns a
// fresh vector per block cannot creep back unnoticed.
// expect-error: no member named .process.
#include <vector>

#include "dsp/fir.h"

int main() {
  const std::vector<float> taps{0.25F, 0.5F, 0.25F};
  const std::vector<float> x(8, 1.0F);
  const auto y = fmbs::dsp::FirFilter<float>{taps}.process(x);
  return y.empty() ? 0 : 1;
}
