// Pins the FMBS_SIMD contract from dsp/simd.h:
//  * elementwise and FIR kernels (scale/axpy, fir_apply at every block edge,
//    phase layout and output stride, FirFilter, FirDecimator over any cut of
//    its input, FirInterpolator) are BIT-IDENTICAL to scalar references —
//    they vectorize across outputs and never reassociate an accumulation;
//  * both kernel sets, SSE2 and AVX2, called directly, match the scalar
//    loops byte for byte (the AVX2 cases skip on CPUs without AVX2), and so
//    do the AVX2-only kernels: the Goertzel bank, the mixer's span product,
//    the eight-lane sincos (against the four-lane one) and the modulator's
//    cos/sin (against libm);
//  * the tolerance-pinned exception (the subcarrier's vector sincos) stays
//    within its justified bound. The Mixer's rotator is one plain C++ path
//    in every build; tests/dsp/test_nco.cpp pins its accuracy.
// With FMBS_SIMD off this file still passes (both sides run the same scalar
// code), so the suite is valid in either build configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "channel/superpose.h"
#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/nco.h"
#include "dsp/simd.h"
#include "dsp/types.h"
#include "support/run_stage.h"
#include "tag/subcarrier.h"

namespace fmbs {
namespace {

std::vector<float> random_floats(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  std::vector<float> out(n);
  for (auto& v : out) v = u(rng);
  return out;
}

dsp::cvec random_complex(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  dsp::cvec out(n);
  for (auto& v : out) v = dsp::cfloat(u(rng), u(rng));
  return out;
}

TEST(SimdKernels, ScaleIntoBitIdenticalToScalar) {
  const dsp::cvec src = random_complex(1001, 11);  // odd length: covers tail
  dsp::cvec dst(src.size());
  channel::scale_into(dst, src, 0.3713F);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst[i], 0.3713F * src[i]) << "i=" << i;
  }
}

TEST(SimdKernels, AccumulateScaledBitIdenticalToScalar) {
  const dsp::cvec src = random_complex(997, 12);
  dsp::cvec dst = random_complex(997, 13);
  dsp::cvec expect = dst;
  channel::accumulate_scaled(dst, src, -1.625F);
  for (std::size_t i = 0; i < src.size(); ++i) {
    expect[i] += -1.625F * src[i];
    EXPECT_EQ(dst[i], expect[i]) << "i=" << i;
  }
}

// Scalar FIR reference in the library's accumulation order:
// out[i] = sum_t x[i * in_stride + t] * rt[t], t ascending.
template <typename Sample>
std::vector<Sample> fir_reference(std::span<const Sample> x,
                                  std::size_t in_stride,
                                  const std::vector<float>& rt,
                                  std::size_t n) {
  std::vector<Sample> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Sample acc{};
    for (std::size_t t = 0; t < rt.size(); ++t) {
      acc += x[i * in_stride + t] * rt[t];
    }
    out[i] = acc;
  }
  return out;
}

// The streaming filters' view: taps reversed, nt-1 zeros of history ahead
// of the block, one output per input sample.
template <typename Sample>
std::vector<Sample> fir_reference(const std::vector<Sample>& in,
                                  const std::vector<float>& taps) {
  const std::vector<float> rt(taps.rbegin(), taps.rend());
  std::vector<Sample> work(taps.size() - 1, Sample{});
  work.insert(work.end(), in.begin(), in.end());
  return fir_reference(std::span<const Sample>(work), 1, rt, in.size());
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// A FIR kernel under test, reading the phase layout of dsp/simd.h.
template <typename Sample>
using FirKernel = std::function<void(
    const Sample* x, std::size_t phases, std::size_t row_len, const float* rt,
    std::size_t nt, Sample* out, std::size_t out_stride, std::size_t n)>;

// Every block edge of the register-blocked kernels: output counts from 0
// through two AVX2 main steps (32 real or 16 complex outputs) plus every
// tail, so the SSE2 steps (16 or 8), both one-vector loops and the scalar
// tail are all crossed, at the decimators' phase counts (1, 5, 10) and the
// interpolator's output stride. The input is laid out in phases the way
// FirDecimator stages it, with NaN in the slots past each row's end, and
// must reproduce the strided scalar loop byte for byte. Output slots
// between strided outputs and past the last one must keep their sentinel.
template <typename Sample>
void expect_fir_matches_reference(const FirKernel<Sample>& fir,
                                  std::size_t main_step) {
  const Sample sentinel(42.0F);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t max_n = 3 * main_step;
  for (const std::size_t nt : {1U, 17U, 31U, 89U, 127U}) {
    const std::vector<float> rt = random_floats(nt, static_cast<unsigned>(nt));
    for (const std::size_t phases : {1U, 5U, 10U}) {
      std::vector<Sample> w(max_n * phases + nt - 1);
      const std::vector<float> re = random_floats(w.size(), 31);
      const std::vector<float> im = random_floats(w.size(), 32);
      for (std::size_t k = 0; k < w.size(); ++k) {
        if constexpr (std::is_same_v<Sample, float>) {
          w[k] = re[k];
        } else {
          w[k] = Sample(re[k], im[k]);
        }
      }
      for (std::size_t n = 0; n < max_n; ++n) {
        const std::size_t len = n * phases + nt - 1;
        const std::size_t row_len = n + (nt - 1 + phases - 1) / phases;
        std::vector<Sample> rows(phases * row_len, Sample(nan));
        for (std::size_t k = 0; k < len; ++k) {
          rows[(k % phases) * row_len + k / phases] = w[k];
        }
        const std::vector<Sample> ref =
            fir_reference(std::span<const Sample>(w), phases, rt, n);
        for (const std::size_t out_stride : {1U, 10U}) {
          std::vector<Sample> out(n * out_stride + out_stride, sentinel);
          fir(rows.data(), phases, row_len, rt.data(), nt, out.data(),
              out_stride, n);
          for (std::size_t k = 0; k < out.size(); ++k) {
            const bool is_output = k % out_stride == 0 && k / out_stride < n;
            ASSERT_TRUE(
                same_bytes(out[k], is_output ? ref[k / out_stride] : sentinel))
                << "nt=" << nt << " phases=" << phases << " n=" << n
                << " out_stride=" << out_stride << " slot " << k;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, FirApplyBlockEdgesFloat) {
  expect_fir_matches_reference<float>(&dsp::detail::fir_apply<float>, 32);
}

TEST(SimdKernels, FirApplyBlockEdgesComplex) {
  expect_fir_matches_reference<dsp::cfloat>(
      &dsp::detail::fir_apply<dsp::cfloat>, 16);
}

#if FMBS_SIMD_ENABLED
// One kernel set of dsp/simd.h, called directly rather than through the
// per-process dispatch.
struct KernelSet {
  bool available;
  void (*scale_f32)(float*, const float*, float, std::size_t);
  void (*axpy_f32)(float*, const float*, float, std::size_t);
  void (*fir_f32)(const float*, std::size_t, std::size_t, const float*,
                  std::size_t, float*, std::size_t, std::size_t);
  void (*fir_cx)(const float*, std::size_t, std::size_t, const float*,
                 std::size_t, float*, std::size_t, std::size_t);
};

KernelSet sse2_kernels() {
  namespace k = dsp::simd::sse2;
  return {true, &k::scale_f32, &k::axpy_f32, &k::fir_f32, &k::fir_cx};
}

KernelSet avx2_kernels() {
  namespace k = dsp::simd::avx2;
  return {dsp::simd::avx2_available(), &k::scale_f32, &k::axpy_f32,
          &k::fir_f32, &k::fir_cx};
}

// Lengths 0..40 cross the 8- and 4-lane loops and the scalar tail.
void expect_elementwise_match_scalar(const KernelSet& k) {
  const std::vector<float> src = random_floats(40, 51);
  const std::vector<float> base = random_floats(40, 52);
  const float gain = -0.7311F;
  for (std::size_t n = 0; n <= src.size(); ++n) {
    std::vector<float> scaled(n + 1, 42.0F);
    std::vector<float> acc = base;
    k.scale_f32(scaled.data(), src.data(), gain, n);
    k.axpy_f32(acc.data(), src.data(), gain, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bytes(scaled[i], gain * src[i])) << "n=" << n;
      ASSERT_TRUE(same_bytes(acc[i], base[i] + gain * src[i])) << "n=" << n;
    }
    ASSERT_EQ(scaled[n], 42.0F) << "n=" << n;
    for (std::size_t i = n; i < acc.size(); ++i) ASSERT_EQ(acc[i], base[i]);
  }
}

void expect_kernels_match_scalar(const KernelSet& k) {
  expect_elementwise_match_scalar(k);
  expect_fir_matches_reference<float>(k.fir_f32, 32);
  expect_fir_matches_reference<dsp::cfloat>(
      [&k](const dsp::cfloat* x, std::size_t phases, std::size_t row_len,
           const float* rt, std::size_t nt, dsp::cfloat* out,
           std::size_t out_stride, std::size_t n) {
        k.fir_cx(reinterpret_cast<const float*>(x), phases, row_len, rt, nt,
                 reinterpret_cast<float*>(out), out_stride, n);
      },
      16);
}

TEST(SimdKernels, Sse2KernelsMatchScalarByteForByte) {
  expect_kernels_match_scalar(sse2_kernels());
}

TEST(SimdKernels, Avx2KernelsMatchScalarByteForByte) {
  const KernelSet k = avx2_kernels();
  if (!k.available) GTEST_SKIP() << "this CPU has no AVX2";
  expect_kernels_match_scalar(k);
}

// The Goertzel recurrence of one tone, as GoertzelBank's scalar loop runs it.
void goertzel_reference(std::span<const float> x, double coeff, double& s1,
                        double& s2) {
  double s0 = 0.0;
  s1 = 0.0;
  s2 = 0.0;
  for (const float v : x) {
    s0 = static_cast<double>(v) + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
}

// 1-20 tones cross every lane tail of one to four vectors and a second
// 16-tone group (2 tones is the 100 bps set, 16 the 1.6 and 3.2 kbps set);
// lengths 0-300 cover the 240-sample 1.6 kbps symbol. Slots past the last
// tone keep their sentinel.
TEST(SimdKernels, Avx2GoertzelMatchesScalarByteForByte) {
  if (!dsp::simd::avx2_available()) GTEST_SKIP() << "this CPU has no AVX2";
  const std::vector<float> x = random_floats(300, 61);
  std::mt19937 rng(62);
  std::uniform_real_distribution<double> cycles(0.001, 0.499);
  for (std::size_t tones = 1; tones <= 20; ++tones) {
    std::vector<double> coeff(tones);
    for (auto& c : coeff) c = 2.0 * std::cos(dsp::kTwoPi * cycles(rng));
    for (std::size_t n = 0; n <= x.size(); ++n) {
      std::vector<double> s1(tones + 1, 42.0);
      std::vector<double> s2(tones + 1, 42.0);
      dsp::simd::avx2::goertzel(x.data(), n, coeff.data(), tones, s1.data(),
                                s2.data());
      for (std::size_t t = 0; t < tones; ++t) {
        double r1 = 0.0;
        double r2 = 0.0;
        goertzel_reference(std::span(x.data(), n), coeff[t], r1, r2);
        ASSERT_TRUE(same_bytes(s1[t], r1) && same_bytes(s2[t], r2))
            << "tones=" << tones << " n=" << n << " tone " << t;
      }
      ASSERT_EQ(s1[tones], 42.0) << "tones=" << tones << " n=" << n;
      ASSERT_EQ(s2[tones], 42.0) << "tones=" << tones << " n=" << n;
    }
  }
}

// dsp::Mixer's span loop (nco.cpp) as the scalar build runs it.
void mix_reference(float* v, std::size_t n, double sr, double si,
                   const double* tre, const double* tim) {
  for (std::size_t k = 0; k < n; ++k) {
    const auto cr = static_cast<float>(sr * tre[k] - si * tim[k]);
    const auto ci = static_cast<float>(sr * tim[k] + si * tre[k]);
    const float xr = v[2 * k];
    const float xi = v[2 * k + 1];
    v[2 * k] = xr * cr - xi * ci;
    v[2 * k + 1] = xr * ci + xi * cr;
  }
}

// Every table offset k0 of the mixer's 16-sample span and every length
// 0-16; the kernel takes the whole groups of four (as Mixer calls it) and
// leaves the rest of the input alone.
TEST(SimdKernels, Avx2MixerSpanMatchesScalarByteForByte) {
  if (!dsp::simd::avx2_available()) GTEST_SKIP() << "this CPU has no AVX2";
  std::mt19937 rng(63);
  std::uniform_real_distribution<double> angle(-dsp::kPi, dsp::kPi);
  std::vector<double> tre(32);
  std::vector<double> tim(32);
  for (std::size_t k = 0; k < tre.size(); ++k) {
    const double a = angle(rng);
    tre[k] = std::cos(a);
    tim[k] = std::sin(a);
  }
  const double seed = angle(rng);
  const double sr = std::cos(seed);
  const double si = std::sin(seed);
  const dsp::cvec x = random_complex(16, 64);
  for (std::size_t k0 = 0; k0 < 16; ++k0) {
    for (std::size_t len = 0; len <= 16; ++len) {
      const std::size_t n = len & ~std::size_t{3};
      dsp::cvec got = x;
      dsp::cvec ref = x;
      dsp::simd::avx2::mix_cx(reinterpret_cast<float*>(got.data()), n, sr, si,
                              tre.data() + k0, tim.data() + k0);
      mix_reference(reinterpret_cast<float*>(ref.data()), n, sr, si,
                    tre.data() + k0, tim.data() + k0);
      for (std::size_t k = 0; k < x.size(); ++k) {
        ASSERT_TRUE(same_bytes(got[k], ref[k]))
            << "k0=" << k0 << " len=" << len << " sample " << k;
      }
    }
  }
}

// Calls avx2::sincos_ps, which only AVX2 code may inline.
FMBS_TARGET_AVX2 void sincos_avx2(const float* x, float* s, float* c) {
  __m256 sv;
  __m256 cv;
  dsp::simd::avx2::sincos_ps(_mm256_loadu_ps(x), &sv, &cv);
  _mm256_storeu_ps(s, sv);
  _mm256_storeu_ps(c, cv);
}

// Every phase the subcarrier feeds it (+-100 rad), and a few ulp around
// every multiple of pi/4 there, where the quadrant counter and the
// polynomial choice switch; zeros and denormals too.
TEST(SimdKernels, Avx2SincosMatchesSse2ByteForByte) {
  if (!dsp::simd::avx2_available()) GTEST_SKIP() << "this CPU has no AVX2";
  std::vector<float> xs;
  for (double x = -100.0; x <= 100.0; x += 0.00137) {
    xs.push_back(static_cast<float>(x));
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (int j = -128; j <= 128; ++j) {
    const auto q = static_cast<float>(j * dsp::kPi / 4.0);
    for (const float toward : {-inf, inf}) {
      float v = q;
      for (int k = 0; k < 4; ++k, v = std::nextafter(v, toward)) {
        xs.push_back(v);
      }
    }
  }
  for (const float v : {0.0F, -0.0F, std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::min()}) {
    xs.push_back(v);
  }
  xs.resize((xs.size() + 7) / 8 * 8, 1.0F);
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    alignas(32) float s8[8];
    alignas(32) float c8[8];
    sincos_avx2(xs.data() + i, s8, c8);
    for (std::size_t half = 0; half < 8; half += 4) {
      __m128 s;
      __m128 c;
      dsp::simd::sincos_ps(_mm_loadu_ps(xs.data() + i + half), &s, &c);
      alignas(16) float s4[4];
      alignas(16) float c4[4];
      _mm_store_ps(s4, s);
      _mm_store_ps(c4, c);
      for (std::size_t lane = 0; lane < 4; ++lane) {
        ASSERT_TRUE(same_bytes(s8[half + lane], s4[lane]) &&
                    same_bytes(c8[half + lane], c4[lane]))
            << "x=" << xs[i + half + lane];
      }
    }
  }
}

// Runs avx2::cos_sin over phases and checks every output against
// float(std::cos) and float(std::sin) byte for byte. Returns how many
// phases called libm.
std::size_t check_cos_sin(const std::vector<double>& phases) {
  std::vector<float> out(2 * phases.size());
  const std::size_t libm =
      dsp::simd::avx2::cos_sin(phases.data(), phases.size(), out.data());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto c = static_cast<float>(std::cos(phases[i]));
    const auto s = static_cast<float>(std::sin(phases[i]));
    if (!same_bytes(out[2 * i], c) || !same_bytes(out[2 * i + 1], s)) {
      ADD_FAILURE() << "phase " << phases[i] << ": (" << out[2 * i] << ", "
                    << out[2 * i + 1] << ") vs libm (" << c << ", " << s
                    << ")";
      break;
    }
  }
  return libm;
}

// Phases whose sin or cos lies within a few double ulp of a float rounding
// midpoint m, in all four quadrants: there a kept lane and libm can round
// apart unless the margin sends the lane to libm.
std::vector<double> near_ties() {
  std::vector<double> out;
  for (int j = 0; j < 12000; ++j) {
    const float f = 0.05F + 0.94F * static_cast<float>(j) / 12000.0F;
    const double m = (static_cast<double>(f) +
                      static_cast<double>(std::nextafter(f, 1.0F))) /
                     2.0;
    for (const double a : {std::asin(m), std::acos(m)}) {
      out.insert(out.end(),
                 {a, dsp::kPi - a, dsp::kPi + a, dsp::kTwoPi - a});
    }
  }
  return out;
}

// The modulator's phases, random in [0, 2 pi); every double within 2000
// ulp of each multiple of pi/4 up to past the kernel's 256 rad limit,
// where the quadrant switches and sin or cos nears zero; and tiny, negative
// and non-finite phases, which mostly call libm.
TEST(SimdKernels, Avx2CosSinMatchesLibmByteForByte) {
  if (!dsp::simd::avx2_available()) GTEST_SKIP() << "this CPU has no AVX2";
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> turn(0.0, dsp::kTwoPi);
  std::vector<double> random(4'000'000);
  for (auto& v : random) v = turn(rng);
  const std::size_t libm = check_cos_sin(random);
  EXPECT_LE(libm, random.size() / 10000) << "libm lanes";

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> near;
  for (int k = -330; k <= 330; ++k) {
    double up = k * (dsp::kPi / 4.0);
    double down = up;
    for (int j = 0; j <= 2000; ++j) {
      near.push_back(up);
      near.push_back(down);
      up = std::nextafter(up, inf);
      down = std::nextafter(down, -inf);
    }
  }
  check_cos_sin(near);
  check_cos_sin(near_ties());

  std::vector<double> edges = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               1e-300,
                               1e-200,
                               1e-40,
                               0x1p-30,
                               1e-10,
                               1e-5,
                               -1e-5,
                               dsp::kTwoPi,
                               std::nextafter(dsp::kTwoPi, 0.0),
                               255.999,
                               256.0,
                               std::nextafter(256.0, inf),
                               -256.0,
                               1e3,
                               1e6,
                               1e22,
                               -1e22,
                               inf,
                               -inf,
                               std::numeric_limits<double>::quiet_NaN()};
  // Each edge in every lane, and in the libm tail.
  for (std::size_t shift = 0; shift < 4; ++shift) {
    std::vector<double> shifted(shift, 1.0);
    shifted.insert(shifted.end(), edges.begin(), edges.end());
    check_cos_sin(shifted);
    check_cos_sin({shifted.end() - 3, shifted.end()});
  }
}
#endif

TEST(SimdKernels, FirFilterFloatBitIdentical) {
  const auto taps = dsp::fir_design_lowpass(37, 0.2);
  const auto x = random_floats(517, 21);
  dsp::FirFilter<float> filt(taps);
  const auto got = test::run_stage(filt, x);
  const auto ref = fir_reference(x, taps);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "i=" << i;
  }
}

TEST(SimdKernels, FirFilterComplexBitIdentical) {
  const auto taps = dsp::fir_design_lowpass(33, 0.15);
  const dsp::cvec x = random_complex(259, 22);
  dsp::FirFilter<dsp::cfloat> filt(taps);
  const auto got = test::run_stage(filt, x);
  const std::vector<dsp::cfloat> xv(x.begin(), x.end());
  const auto ref = fir_reference(xv, taps);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "i=" << i;
  }
}

TEST(SimdKernels, FirDecimatorBitIdentical) {
  const auto taps = dsp::fir_design_lowpass(31, 0.08);
  const dsp::cvec x = random_complex(400, 23);
  dsp::FirDecimator<dsp::cfloat> dec(taps, 5);
  const auto got = test::run_stage(dec, x);
  const std::vector<dsp::cfloat> xv(x.begin(), x.end());
  const auto full = fir_reference(xv, taps);
  ASSERT_EQ(got.size(), x.size() / 5);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], full[i * 5]) << "i=" << i;
  }
}

// The stereo decoder's audio decimator shape (127 taps, 240 kHz -> 48 kHz),
// across two blocks so the history seam is covered too.
TEST(SimdKernels, FirDecimatorFloatBitIdentical) {
  const std::size_t factor = 5;
  const auto taps = dsp::fir_design_lowpass(127, 0.45 / factor);
  const auto x = random_floats(1685, 25);
  dsp::FirDecimator<float> dec(taps, factor);
  auto got = test::run_stage(dec, std::span<const float>(x.data(), 485));
  const auto second =
      test::run_stage(dec, std::span<const float>(x).subspan(485));
  got.insert(got.end(), second.begin(), second.end());
  const auto full = fir_reference(x, taps);
  ASSERT_EQ(got.size(), x.size() / factor);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], full[i * factor]) << "i=" << i;
  }
}

// The decimator stages each call's history plus input in its phase rows, so
// every way of cutting a stream must give the bytes of one whole call: empty
// cuts, cuts shorter than the history (the history then shifts) and cuts of
// several filter lengths.
template <typename Sample>
void expect_decimator_cut_invariant(std::size_t factor, std::size_t nt,
                                    const std::vector<Sample>& x) {
  const auto taps = dsp::fir_design_lowpass(nt, 0.45 / factor);
  dsp::FirDecimator<Sample> whole(taps, factor);
  const std::vector<Sample> ref = test::run_stage(whole, x);
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> cut_frames(0, 3 * nt / factor);
  for (int trial = 0; trial < 20; ++trial) {
    dsp::FirDecimator<Sample> dec(taps, factor);
    std::vector<Sample> got;
    for (std::size_t at = 0; at < x.size();) {
      const std::size_t len =
          std::min(cut_frames(rng) * factor, x.size() - at);
      const std::vector<Sample> part =
          test::run_stage(dec, std::span<const Sample>(x).subspan(at, len));
      got.insert(got.end(), part.begin(), part.end());
      at += len;
    }
    ASSERT_EQ(got.size(), ref.size());
    ASSERT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(Sample)),
              0)
        << "trial " << trial;
  }
}

TEST(SimdKernels, FirDecimatorRandomCutsMatchOneCall) {
  // The tuner's shape (/10, complex) and the stereo decoder's (/5, real).
  expect_decimator_cut_invariant(10, 127, random_complex(4000, 26));
  expect_decimator_cut_invariant(5, 127, random_floats(3000, 27));
  expect_decimator_cut_invariant(3, 4, random_floats(600, 28));
}

TEST(SimdKernels, FirInterpolatorBitIdentical) {
  const std::size_t factor = 10;
  auto proto = dsp::fir_design_lowpass(16 * factor + 1, 0.45 / factor);
  const dsp::cvec x = random_complex(203, 24);
  dsp::FirInterpolator<dsp::cfloat> interp(proto, factor);
  const auto got = test::run_stage(interp, x);

  // Reference: the polyphase decomposition evaluated one output at a time.
  const std::size_t padded = (proto.size() + factor - 1) / factor * factor;
  proto.resize(padded, 0.0F);
  const std::size_t bl = padded / factor;
  std::vector<std::vector<float>> rbranch(factor, std::vector<float>(bl));
  for (std::size_t i = 0; i < padded; ++i) {
    rbranch[i % factor][bl - 1 - i / factor] =
        proto[i] * static_cast<float>(factor);
  }
  std::vector<dsp::cfloat> work(bl - 1, dsp::cfloat{});
  work.insert(work.end(), x.begin(), x.end());
  ASSERT_EQ(got.size(), x.size() * factor);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t p = 0; p < factor; ++p) {
      dsp::cfloat acc{};
      for (std::size_t t = 0; t < bl; ++t) acc += work[i + t] * rbranch[p][t];
      EXPECT_EQ(got[i * factor + p], acc) << "i=" << i << " p=" << p;
    }
  }
}

#if FMBS_SIMD_ENABLED
TEST(SimdKernels, SincosMatchesLibmWithinTolerance) {
  // The Cephes-style polynomials are good to ~2 ulp for |x| < 8192; the
  // subcarrier feeds phases below ~100 rad. Pin 1e-6 absolute over that
  // range, both signs.
  for (double x = -110.0; x < 110.0; x += 0.0137) {
    alignas(16) float in[4] = {static_cast<float>(x),
                               static_cast<float>(x + 1.1),
                               static_cast<float>(x + 2.3),
                               static_cast<float>(x + 3.7)};
    __m128 s;
    __m128 c;
    dsp::simd::sincos_ps(_mm_load_ps(in), &s, &c);
    alignas(16) float sv[4];
    alignas(16) float cv[4];
    _mm_store_ps(sv, s);
    _mm_store_ps(cv, c);
    for (int lane = 0; lane < 4; ++lane) {
      EXPECT_NEAR(sv[lane], std::sin(static_cast<double>(in[lane])), 1e-6)
          << "x=" << in[lane];
      EXPECT_NEAR(cv[lane], std::cos(static_cast<double>(in[lane])), 1e-6)
          << "x=" << in[lane];
    }
  }
}
#endif

// Scalar double-precision reference for SubcarrierGenerator::process — the
// pre-vectorization loop, verbatim.
dsp::cvec subcarrier_reference(const tag::SubcarrierConfig& cfg, int harmonics,
                               std::span<const float> baseband) {
  const std::size_t factor = tag::kSubcarrierUpFactor;
  dsp::FirInterpolator<float> interp(
      dsp::fir_design_lowpass((16 * factor) | 1U,
                              0.45 / static_cast<double>(factor)),
      factor);
  const dsp::rvec up = test::run_stage(interp, baseband);
  const double base_step = dsp::kTwoPi * cfg.shift.raw() / fm::kRfRate;
  const double dev_step = dsp::kTwoPi * cfg.deviation.raw() / fm::kRfRate;
  const double levels =
      cfg.dco_bits > 0 ? std::pow(2.0, cfg.dco_bits) - 1.0 : 0.0;
  dsp::PhaseAccumulator phase;
  dsp::cvec out(up.size());
  for (std::size_t i = 0; i < up.size(); ++i) {
    double m = static_cast<double>(up[i]);
    if (levels > 0.0) {
      const double clamped = std::clamp(m, -1.0, 1.0);
      m = std::round((clamped + 1.0) / 2.0 * levels) / levels * 2.0 - 1.0;
    }
    const double ph = phase.advance(base_step + dev_step * m);
    switch (cfg.mode) {
      case tag::SubcarrierMode::kBandlimitedSquare: {
        double acc = 0.0;
        for (int k = 1; k <= harmonics; k += 2) {
          acc += 4.0 / (dsp::kPi * k) * std::cos(static_cast<double>(k) * ph);
        }
        out[i] = dsp::cfloat(static_cast<float>(acc), 0.0F);
        break;
      }
      case tag::SubcarrierMode::kHardSquare:
        out[i] = dsp::cfloat(std::cos(ph) >= 0.0 ? 1.0F : -1.0F, 0.0F);
        break;
      case tag::SubcarrierMode::kSingleSideband:
        out[i] = dsp::cfloat(static_cast<float>(2.0 / dsp::kPi * std::cos(ph)),
                             static_cast<float>(2.0 / dsp::kPi * std::sin(ph)));
        break;
    }
  }
  return out;
}

TEST(SimdKernels, SubcarrierSquarePinnedToScalarReference) {
  tag::SubcarrierConfig cfg;
  cfg.shift = units::Hertz{100000.0};  // low shift => several harmonics fit below Nyquist
  cfg.dco_bits = 8;         // exercise the DCO quantization inside the loop
  tag::SubcarrierGenerator gen(cfg);
  ASSERT_GE(gen.harmonics_used(), 3) << "config should synthesize harmonics";
  const auto bb = random_floats(480, 41);
  const auto got = test::run_stage(gen, bb);
  const auto ref = subcarrier_reference(cfg, gen.harmonics_used(), bb);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), ref[i].real(), 1e-5F) << "i=" << i;
    EXPECT_EQ(got[i].imag(), 0.0F) << "i=" << i;
  }
}

TEST(SimdKernels, SubcarrierSsbPinnedToScalarReference) {
  tag::SubcarrierConfig cfg;
  cfg.mode = tag::SubcarrierMode::kSingleSideband;
  tag::SubcarrierGenerator gen(cfg);
  const auto bb = random_floats(480, 42);
  const auto got = test::run_stage(gen, bb);
  const auto ref = subcarrier_reference(cfg, gen.harmonics_used(), bb);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), ref[i].real(), 1e-5F) << "i=" << i;
    EXPECT_NEAR(got[i].imag(), ref[i].imag(), 1e-5F) << "i=" << i;
  }
}

TEST(SimdKernels, SubcarrierHardSquareStaysBitExact) {
  // sign(cos) cannot be tolerance-pinned (a 1e-7 wobble at a zero crossing
  // flips the sample), so kHardSquare must keep the libm path in every
  // build configuration.
  tag::SubcarrierConfig cfg;
  cfg.mode = tag::SubcarrierMode::kHardSquare;
  tag::SubcarrierGenerator gen(cfg);
  const auto bb = random_floats(480, 43);
  const auto got = test::run_stage(gen, bb);
  const auto ref = subcarrier_reference(cfg, gen.harmonics_used(), bb);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "i=" << i;
  }
}

}  // namespace
}  // namespace fmbs
