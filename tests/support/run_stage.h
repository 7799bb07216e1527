// One allocating helper over the DSP stages' single block method. Every
// stage in src/ has exactly one: process_inplace(span) for a same-rate
// elementwise stage, process_into(in, out) for one whose output has another
// rate or type, with `out` sized by the rate ratio. Tests that want "the
// stage's output for this input" as a vector call run_stage instead of
// sizing the output themselves.
#pragma once

#include <cstddef>
#include <ranges>
#include <span>
#include <vector>

#include "dsp/fir.h"
#include "rx/tuner.h"
#include "tag/subcarrier.h"

namespace fmbs::test {

/// Output samples a stage emits for n input samples: n for a same-rate
/// stage, scaled by the rate ratio otherwise.
template <typename Stage>
std::size_t output_length(const Stage& /*stage*/, std::size_t n) {
  return n;
}
template <typename Sample>
std::size_t output_length(const dsp::FirDecimator<Sample>& s, std::size_t n) {
  return n / s.factor();
}
template <typename Sample>
std::size_t output_length(const dsp::FirInterpolator<Sample>& s,
                          std::size_t n) {
  return n * s.factor();
}
inline std::size_t output_length(const rx::Tuner& s, std::size_t n) {
  return n / s.decimation();
}
inline std::size_t output_length(const tag::SubcarrierGenerator& s,
                                 std::size_t n) {
  return n * static_cast<std::size_t>(
                 s.config().rf_rate / s.config().baseband_rate + 0.5);
}

namespace detail {
/// The output sample type of a process_into(in, std::span<Out>) member.
template <typename Method>
struct BlockOutput;
template <typename Stage, typename In, typename Out>
struct BlockOutput<void (Stage::*)(In, std::span<Out>)> {
  using type = Out;
};
}  // namespace detail

/// Runs `in` through the stage's block method in one call and returns the
/// output. The input is copied first (Tuner mixes its input in place).
template <typename Stage, typename Range>
auto run_stage(Stage& stage, const Range& in) {
  using In = std::ranges::range_value_t<Range>;
  std::vector<In> x(std::ranges::begin(in), std::ranges::end(in));
  if constexpr (requires(std::span<In> data) { stage.process_inplace(data); }) {
    stage.process_inplace(x);
    return x;
  } else {
    using Out =
        typename detail::BlockOutput<decltype(&Stage::process_into)>::type;
    std::vector<Out> out(output_length(stage, x.size()));
    stage.process_into(x, out);
    return out;
  }
}

}  // namespace fmbs::test
