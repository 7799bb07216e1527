#include "tag/subcarrier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dsp/math_util.h"
#include "dsp/simd.h"

namespace fmbs::tag {

namespace {

dsp::FirInterpolator<float> make_interpolator() {
  constexpr double kCutoff = 0.45 / static_cast<double>(kSubcarrierUpFactor);
  return dsp::FirInterpolator<float>(
      dsp::fir_design_lowpass((16 * kSubcarrierUpFactor) | 1U, kCutoff),
      kSubcarrierUpFactor);
}

#if FMBS_SIMD_ENABLED
// The AVX2 bodies of process_into's vector loops: the four-lane loops' own
// operations at eight lanes (dsp::simd::avx2::sincos_ps is bit-identical to
// sincos_ps). Each returns how many samples it wrote, n rounded down to 8.

/// SSB: amp * (cos, sin)(ph[i]) into interleaved out.
FMBS_TARGET_AVX2 std::size_t ssb_avx2(const float* ph, std::size_t n,
                                      float amp, float* out) {
  const __m256 a = _mm256_set1_ps(amp);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 s;
    __m256 c;
    dsp::simd::avx2::sincos_ps(_mm256_loadu_ps(ph + i), &s, &c);
    c = _mm256_mul_ps(c, a);
    s = _mm256_mul_ps(s, a);
    const __m256 lo = _mm256_unpacklo_ps(c, s);  // samples 0 1 | 4 5
    const __m256 hi = _mm256_unpackhi_ps(c, s);  // samples 2 3 | 6 7
    _mm256_storeu_ps(out + 2 * i, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(out + 2 * i + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }
  return i;
}

/// Band-limited square: sum over odd k <= harmonics of
/// float(4 / (pi k)) * cos(k ph[i]), with a zero imaginary part.
FMBS_TARGET_AVX2 std::size_t square_avx2(const float* ph, std::size_t n,
                                         int harmonics, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 phv = _mm256_loadu_ps(ph + i);
    __m256 acc = _mm256_setzero_ps();
    for (int k = 1; k <= harmonics; k += 2) {
      __m256 s;
      __m256 c;
      dsp::simd::avx2::sincos_ps(
          _mm256_mul_ps(phv, _mm256_set1_ps(static_cast<float>(k))), &s, &c);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(c, _mm256_set1_ps(static_cast<float>(
                                                    4.0 / (dsp::kPi * k)))));
    }
    const __m256 zero = _mm256_setzero_ps();
    const __m256 lo = _mm256_unpacklo_ps(acc, zero);
    const __m256 hi = _mm256_unpackhi_ps(acc, zero);
    _mm256_storeu_ps(out + 2 * i, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(out + 2 * i + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }
  return i;
}
#endif

}  // namespace

bool subcarrier_fits(const SubcarrierConfig& config) {
  const double shift = std::abs(config.shift.raw());
  const double deviation = config.deviation.raw();
  return shift > 0.0 && deviation > 0.0 &&
         shift + deviation < fm::kRfRate / 2.0;
}

SubcarrierGenerator::SubcarrierGenerator(const SubcarrierConfig& config)
    : cfg_(config), interpolator_(make_interpolator()) {
  if (!subcarrier_fits(cfg_)) {
    throw std::invalid_argument(
        "SubcarrierGenerator: shift and deviation must be nonzero and fit "
        "below the RF Nyquist rate");
  }
  if (cfg_.mode == SubcarrierMode::kBandlimitedSquare) {
    // Highest instantaneous frequency of harmonic k is roughly
    // k (|shift| + deviation + baseband bandwidth); keep it below 0.48 fs.
    const double top =
        std::abs(cfg_.shift.raw()) + cfg_.deviation.raw() + 58000.0;
    while ((harmonics_ + 2) * top < 0.48 * fm::kRfRate) harmonics_ += 2;
  }
}

dsp::cvec SubcarrierGenerator::process(std::span<const float> baseband) {
  dsp::cvec out(baseband.size() * kSubcarrierUpFactor);
  process_into(baseband, out);
  return out;
}

void SubcarrierGenerator::process_into(std::span<const float> baseband,
                                       std::span<dsp::cfloat> out) {
  if (out.size() != baseband.size() * kSubcarrierUpFactor) {
    throw std::invalid_argument("SubcarrierGenerator: size mismatch");
  }
  up_.resize(out.size());
  interpolator_.process_into(baseband, up_);
  const dsp::rvec& up = up_;

  // The accumulated phase follows the signed shift: for real square waves
  // cos() makes the sign irrelevant (both +-|f_back| copies exist), while
  // the SSB exponential rotates toward the requested side.
  const double base_step = dsp::kTwoPi * cfg_.shift.raw() / fm::kRfRate;
  const double dev_step = dsp::kTwoPi * cfg_.deviation.raw() / fm::kRfRate;

  // Optional DCO quantization: the IC's capacitor bank realizes 2^bits
  // discrete frequencies across [shift - dev, shift + dev].
  const double levels = cfg_.dco_bits > 0 ? std::pow(2.0, cfg_.dco_bits) - 1.0 : 0.0;

#if FMBS_SIMD_ENABLED
  // The phase accumulation is inherently serial (each step depends on the
  // previous phase), but the waveform synthesis is not: run the accumulator
  // alone, then evaluate cos/sin eight phases at a time with the AVX2
  // sincos, four at a time with the SSE2 one (after the AVX2 loop, at most
  // one group) and libm on the last n % 4, so both kernel sets write the
  // same bytes. The phase SEQUENCE is identical to the scalar path — same
  // advance() calls in the same order — so streaming state is unaffected by
  // the gate; only the per-sample waveform values differ, at the ~1e-7
  // level of the Cephes float polynomials (tolerance pinned by
  // tests/dsp/test_simd_kernels.cpp). kHardSquare takes sign(cos), which a
  // 1e-7 wobble near a zero crossing could flip, so it stays on libm.
  if (cfg_.mode != SubcarrierMode::kHardSquare) {
    std::vector<float>& ph = ph_;
    ph.resize(up.size());
    for (std::size_t i = 0; i < up.size(); ++i) {
      double m = static_cast<double>(up[i]);
      if (levels > 0.0) {
        const double clamped = std::clamp(m, -1.0, 1.0);
        m = std::round((clamped + 1.0) / 2.0 * levels) / levels * 2.0 - 1.0;
      }
      ph[i] = static_cast<float>(phase_.advance(base_step + dev_step * m));
    }
    auto* of = reinterpret_cast<float*>(out.data());
    const std::size_t n = up.size();
    std::size_t i = 0;
    const bool avx2 = dsp::simd::avx2_available();
    if (cfg_.mode == SubcarrierMode::kSingleSideband) {
      if (avx2) {
        i = ssb_avx2(ph.data(), n, static_cast<float>(2.0 / dsp::kPi), of);
      }
      const __m128 amp = _mm_set1_ps(static_cast<float>(2.0 / dsp::kPi));
      for (; i + 4 <= n; i += 4) {
        __m128 s;
        __m128 c;
        dsp::simd::sincos_ps(_mm_loadu_ps(ph.data() + i), &s, &c);
        c = _mm_mul_ps(c, amp);
        s = _mm_mul_ps(s, amp);
        _mm_storeu_ps(of + 2 * i, _mm_unpacklo_ps(c, s));
        _mm_storeu_ps(of + 2 * i + 4, _mm_unpackhi_ps(c, s));
      }
      for (; i < n; ++i) {
        out[i] = dsp::cfloat(
            static_cast<float>(2.0 / dsp::kPi) * std::cos(ph[i]),
            static_cast<float>(2.0 / dsp::kPi) * std::sin(ph[i]));
      }
    } else {  // kBandlimitedSquare
      if (avx2) i = square_avx2(ph.data(), n, harmonics_, of);
      for (; i + 4 <= n; i += 4) {
        const __m128 phv = _mm_loadu_ps(ph.data() + i);
        __m128 acc = _mm_setzero_ps();
        for (int k = 1; k <= harmonics_; k += 2) {
          __m128 s;
          __m128 c;
          dsp::simd::sincos_ps(
              _mm_mul_ps(phv, _mm_set1_ps(static_cast<float>(k))), &s, &c);
          acc = _mm_add_ps(
              acc, _mm_mul_ps(c, _mm_set1_ps(static_cast<float>(
                                     4.0 / (dsp::kPi * k)))));
        }
        const __m128 zero = _mm_setzero_ps();
        _mm_storeu_ps(of + 2 * i, _mm_unpacklo_ps(acc, zero));
        _mm_storeu_ps(of + 2 * i + 4, _mm_unpackhi_ps(acc, zero));
      }
      for (; i < n; ++i) {
        float acc = 0.0F;
        for (int k = 1; k <= harmonics_; k += 2) {
          acc += static_cast<float>(4.0 / (dsp::kPi * k)) *
                 std::cos(static_cast<float>(k) * ph[i]);
        }
        out[i] = dsp::cfloat(acc, 0.0F);
      }
    }
    return;
  }
#endif

  for (std::size_t i = 0; i < up.size(); ++i) {
    double m = static_cast<double>(up[i]);
    if (levels > 0.0) {
      const double clamped = std::clamp(m, -1.0, 1.0);
      m = std::round((clamped + 1.0) / 2.0 * levels) / levels * 2.0 - 1.0;
    }
    const double ph = phase_.advance(base_step + dev_step * m);
    switch (cfg_.mode) {
      case SubcarrierMode::kBandlimitedSquare: {
        double acc = 0.0;
        for (int k = 1; k <= harmonics_; k += 2) {
          acc += 4.0 / (dsp::kPi * k) * std::cos(static_cast<double>(k) * ph);
        }
        out[i] = dsp::cfloat(static_cast<float>(acc), 0.0F);
        break;
      }
      case SubcarrierMode::kHardSquare:
        out[i] = dsp::cfloat(std::cos(ph) >= 0.0 ? 1.0F : -1.0F, 0.0F);
        break;
      case SubcarrierMode::kSingleSideband:
        // Same in-channel amplitude as one sideband of the square wave.
        out[i] = dsp::cfloat(static_cast<float>(2.0 / dsp::kPi * std::cos(ph)),
                             static_cast<float>(2.0 / dsp::kPi * std::sin(ph)));
        break;
    }
  }
}

}  // namespace fmbs::tag
