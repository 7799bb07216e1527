#include "channel/awgn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::channel {

AwgnSource::AwgnSource(units::Dbm noise_in_ref_bw, units::Hertz reference_bandwidth,
                       double sample_rate, std::uint64_t seed,
                       std::vector<float> shaping_taps)
    : gauss_(seed) {
  if (!shaping_taps.empty()) shaper_.emplace(std::move(shaping_taps));
  if (reference_bandwidth.raw() <= 0.0 || sample_rate <= 0.0) {
    throw std::invalid_argument("AwgnSource: bad bandwidth or rate");
  }
  const double ref_power = noise_in_ref_bw.to_watts().raw();
  variance_ = ref_power * sample_rate / reference_bandwidth.raw();
  sigma_per_component_ = static_cast<float>(std::sqrt(variance_ / 2.0));
}

void AwgnSource::add_to(std::span<dsp::cfloat> block) {
  for (std::size_t at = 0; at < block.size(); at += kChunk) {
    const std::span<dsp::cfloat> noise(chunk_.data(),
                                       std::min(kChunk, block.size() - at));
    draw(noise);
    if (shaper_) shaper_->process_into(noise, noise);  // stages its input first
    for (std::size_t i = 0; i < noise.size(); ++i) block[at + i] += noise[i];
  }
}

void AwgnSource::draw(std::span<dsp::cfloat> out) {
  // Sample i takes draws 2i and 2i + 1 as imag = 2i, real = 2i + 1. That is
  // the order GCC gave the earlier cfloat(sigma * dist(rng), sigma *
  // dist(rng)), whose arguments it evaluates right to left; C++ leaves that
  // order unspecified, so it is spelled out here and every seed keeps its
  // noise on any compiler.
  gauss_.fill({reinterpret_cast<float*>(out.data()), 2 * out.size()});
  for (auto& v : out) {
    v = dsp::cfloat(sigma_per_component_ * v.imag(),
                    sigma_per_component_ * v.real());
  }
}

}  // namespace fmbs::channel
