// Small numeric helpers used throughout the library: dB conversions, unit
// conversions, descriptive statistics and CDF extraction for bench output.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace fmbs::dsp {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Converts a linear power ratio to decibels. Zero or negative input clamps
/// to -300 dB rather than producing -inf/NaN so downstream sorting and
/// printing stay well defined.
double db_from_power_ratio(double ratio);

/// Converts a linear amplitude ratio to decibels (20 log10).
double db_from_amplitude_ratio(double ratio);

/// Converts decibels to a linear amplitude ratio.
double amplitude_ratio_from_db(double db);

/// Converts power in dBm to watts.
double watts_from_dbm(double dbm);

/// Converts power in watts to dBm. Clamps at -300 dBm for non-positive input.
double dbm_from_watts(double watts);

/// Normalized sinc: sin(pi x) / (pi x), with sinc(0) = 1.
double sinc(double x);

/// Arithmetic mean of a sequence; 0 for an empty sequence.
double mean(std::span<const float> x);
double mean(std::span<const double> x);

/// Population standard deviation; 0 for sequences shorter than 2.
double stddev(std::span<const float> x);
double stddev(std::span<const double> x);

/// Mean of squares (signal power) of a real sequence.
double mean_square(std::span<const float> x);

/// Root-mean-square of a real sequence.
double rms(std::span<const float> x);

/// Linear interpolated p-quantile (p in [0,1]) of a copy-sorted sequence.
/// Throws std::invalid_argument when the sequence is empty.
double quantile(std::span<const double> x, double p);

/// Values of the empirical CDF at the requested probabilities (for compact
/// table output). Probabilities outside [0,1] throw std::invalid_argument.
std::vector<double> cdf_at(std::span<const double> samples,
                           std::span<const double> probabilities);

}  // namespace fmbs::dsp
