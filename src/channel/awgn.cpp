#include "channel/awgn.h"

#include <cmath>
#include <stdexcept>

#include "dsp/math_util.h"

namespace fmbs::channel {

AwgnSource::AwgnSource(units::Dbm noise_in_ref_bw, units::Hertz reference_bandwidth,
                       double sample_rate, std::uint64_t seed,
                       std::vector<float> shaping_taps)
    : rng_(seed), dist_(0.0F, 1.0F) {
  if (!shaping_taps.empty()) shaper_.emplace(std::move(shaping_taps));
  if (reference_bandwidth.raw() <= 0.0 || sample_rate <= 0.0) {
    throw std::invalid_argument("AwgnSource: bad bandwidth or rate");
  }
  const double ref_power = noise_in_ref_bw.to_watts().raw();
  variance_ = ref_power * sample_rate / reference_bandwidth.raw();
  sigma_per_component_ = static_cast<float>(std::sqrt(variance_ / 2.0));
}

void AwgnSource::add_to(std::span<dsp::cfloat> block) {
  if (!shaper_) {
    for (auto& v : block) {
      v += dsp::cfloat(sigma_per_component_ * dist_(rng_),
                       sigma_per_component_ * dist_(rng_));
    }
    return;
  }
  colored_.resize(block.size());
  for (auto& v : colored_) {
    v = dsp::cfloat(sigma_per_component_ * dist_(rng_),
                    sigma_per_component_ * dist_(rng_));
  }
  shaper_->process_into(colored_, colored_);  // stages its input first
  for (std::size_t i = 0; i < block.size(); ++i) block[i] += colored_[i];
}

}  // namespace fmbs::channel
