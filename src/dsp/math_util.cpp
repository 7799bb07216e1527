#include "dsp/math_util.h"

#include <algorithm>
#include <stdexcept>

#include "core/units.h"

namespace fmbs::dsp {

// The scalar dB/dBm helpers delegate to the strong-type layer so the
// formulas (and the -300 dB floor) exist exactly once in the codebase.

double db_from_power_ratio(double ratio) {
  return units::Db::from_power_ratio(ratio).raw();
}


double db_from_amplitude_ratio(double ratio) {
  return units::Db::from_amplitude_ratio(ratio).raw();
}

double amplitude_ratio_from_db(double db) {
  return units::Db{db}.amplitude_ratio();
}

double watts_from_dbm(double dbm) { return units::Dbm{dbm}.to_watts().raw(); }

double dbm_from_watts(double watts) {
  return units::Watts{watts}.to_dbm().raw();
}

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

namespace {
template <typename T>
double mean_impl(std::span<const T> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const T v : x) acc += static_cast<double>(v);
  return acc / static_cast<double>(x.size());
}

template <typename T>
double stddev_impl(std::span<const T> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean_impl(x);
  double acc = 0.0;
  for (const T v : x) {
    const double d = static_cast<double>(v) - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(x.size()));
}
}  // namespace

double mean(std::span<const float> x) { return mean_impl(x); }
double mean(std::span<const double> x) { return mean_impl(x); }
double stddev(std::span<const float> x) { return stddev_impl(x); }
double stddev(std::span<const double> x) { return stddev_impl(x); }

double mean_square(std::span<const float> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const float v : x) acc += static_cast<double>(v) * v;
  return acc / static_cast<double>(x.size());
}

double rms(std::span<const float> x) { return std::sqrt(mean_square(x)); }

double quantile(std::span<const double> x, double p) {
  if (x.empty()) throw std::invalid_argument("quantile: empty input");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("quantile: p out of [0,1]");
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> cdf_at(std::span<const double> samples,
                           std::span<const double> probabilities) {
  std::vector<double> out;
  out.reserve(probabilities.size());
  for (const double p : probabilities) out.push_back(quantile(samples, p));
  return out;
}

}  // namespace fmbs::dsp
