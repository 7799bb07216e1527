// SIMD kernels for the hot DSP inner loops, behind the FMBS_SIMD gate
// (CMake option FMBS_SIMD, ON by default; scalar fallbacks compile when the
// gate is off or the target has no SSE2).
//
// Two kernel sets, one contract. The SSE2 kernels (namespace sse2, 4 lanes)
// are baseline x86-64 and are defined inline below. The AVX2 kernels
// (namespace avx2, 8 lanes) live in simd.cpp, each compiled with
// FMBS_TARGET_AVX2 (__attribute__((target("avx2")))), so the library still
// runs on any x86-64 CPU; no -march flag is involved. The unqualified entry
// points (simd::fir_f32, fir_cx, scale_f32, axpy_f32) call the AVX2 kernels
// when avx2_available() — a CPU check made once per process — and the SSE2
// ones otherwise. The AVX2 kernels hand their last few outputs to the SSE2
// kernels, and FMBS_SIMD=OFF keeps the scalar loops as the reference.
//
// Six AVX2 kernels have no entry point; their callers check
// avx2_available() themselves:
//  * avx2::goertzel, the dsp::GoertzelBank recurrence over all its tones,
//    and avx2::mix_cx, the dsp::Mixer span product (DDS rotator times
//    input); without AVX2 the callers run their scalar loops;
//  * avx2::mt64_refill and avx2::mt64_polar, core::NormalStream's refill
//    (core/rng.cpp); without AVX2 it runs their plain C++ twins;
//  * avx2::cos_sin, fm::FmModulator's cos/sin; without AVX2 the modulator
//    calls libm per sample;
//  * avx2::sincos_ps, sincos_ps at eight lanes for the tag subcarrier
//    (subcarrier.cpp), which then runs one four-lane group and libm on the
//    rest; without AVX2 the four-lane sincos_ps takes every group.
//
// Bit-compatibility contract: every kernel here vectorizes ACROSS OUTPUTS —
// each SIMD lane accumulates its output's taps serially, in exactly the
// scalar loop's order — so no floating-point reassociation happens and the
// results are bit-identical to the scalar implementations, whatever the
// lane count. (Vectorizing across taps would reassociate the accumulation
// and is deliberately avoided.) Goertzel vectorizes across independent
// recurrences, one tone per lane, which is the same contract: each lane runs
// its tone's recurrence sample by sample, as the scalar loop does. Every
// multiply and add stays a separate instruction: SSE2 has no FMA,
// target("avx2") does not enable it (never add "fma" to the target list;
// tools/check_no_fma.py fails CI on any fused multiply-add in libfmbs.a),
// and the build passes -ffp-contract=off, since GCC would otherwise fuse
// the scalar loops' a * b + c wherever FMA is enabled, even in ISO C++ mode.
//
// The mt19937_64 kernels keep the same contract by construction: integer
// work, then IEEE multiply, add, divide, square root and conversions, each
// rounding as its scalar twin's operation does, with std::log(float) still
// called once per accepted pair.
//
// A second contract, a rounding-tested approximation with a libm
// fallback, covers avx2::cos_sin. It evaluates cos and sin in double, far
// closer to the exact values than float resolution, and keeps a lane only
// if v * (1 - 2^-40) and v * (1 + 2^-40) round to the same float for both
// values. Any libm within 2^-41 of the exact value, relative, lies between
// those two, so a kept lane is float(libm) bit for bit; every other lane
// calls libm. Its output is the libm loop's, with or without AVX2 and
// under FMBS_SIMD=OFF alike; tests/dsp/test_simd_kernels.cpp checks it
// against libm around every multiple of pi/4 it accepts.
//
// The FIR kernels read their input in a phase layout: `phases` rows of
// row_len samples, tap t of output i at row t % phases, column i +
// t / phases, so every load is contiguous across outputs. One phase is the
// plain FIR over a contiguous run; dsp::FirDecimator stages its input in M
// phases (fir.h) and so reads every Mth sample without a strided load. The
// kernels are register-blocked: four independent accumulator vectors per
// step (16 real or 8 complex outputs on SSE2, twice that on AVX2), so they
// run at multiply/add throughput instead of waiting out each add's latency.
// Blocking changes which outputs share a step, never the order of any one
// output's sum.
//
// Two approximations live outside this header, each justified at its call
// site and pinned by tests:
//  * dsp::Mixer (nco.cpp) is a DDS: an exact 64-bit phase word re-seeds a
//    double rotator by one libm cos/sin pair every 1024 absolute samples,
//    with a 16-entry phasor table in between. Its span product runs in
//    avx2::mix_cx or in the scalar loop, byte for byte alike. Its output
//    stays within 6e-8 of an exact phasor (float rounding is 4.2e-8) over
//    100 simulated seconds (tests/dsp/test_nco.cpp);
//  * the tag subcarrier's vector sincos (subcarrier.cpp, sincos_ps below).
//    It is not libm, but the eight-lane avx2::sincos_ps is bit-identical to
//    the four-lane sincos_ps, so the kernel set does not change its output.
//
// std::complex<float> arrays are addressed through reinterpret_cast<float*>:
// the standard guarantees array-of-complex is layout-compatible with
// interleaved re/im float pairs ([complex.numbers.general]).
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(FMBS_SIMD) && defined(__SSE2__)
#define FMBS_SIMD_ENABLED 1
#include <immintrin.h>
#else
#define FMBS_SIMD_ENABLED 0
#endif

namespace fmbs::dsp::simd {

/// True when the SIMD kernels are compiled in (FMBS_SIMD + SSE2 target).
inline constexpr bool kEnabled = FMBS_SIMD_ENABLED == 1;

/// The kernel set the entry points below run in this process: "avx2",
/// "sse2", or "scalar" when the kernels are compiled out.
const char* kernel_isa();

/// Walks the FIR kernels' phase layout tap by tap: offset() is tap t's
/// distance, in samples, from output 0's input, (t % phases) * row_len +
/// t / phases, for t = 0, 1, ... as next() is called.
class TapWalk {
 public:
  TapWalk(std::size_t phases, std::size_t row_len)
      : phases_(phases), row_len_(row_len) {}

  std::size_t offset() const { return offset_; }

  void next() {
    if (++phase_ == phases_) {
      phase_ = 0;
      offset_ = ++column_;
    } else {
      offset_ += row_len_;
    }
  }

 private:
  std::size_t phases_;
  std::size_t row_len_;
  std::size_t phase_ = 0;
  std::size_t column_ = 0;
  std::size_t offset_ = 0;
};

#if FMBS_SIMD_ENABLED

/// True when this CPU runs the AVX2 kernels; checked once per process.
bool avx2_available();

// Compiles one function for AVX2 alone, never a whole file: a file-wide
// target would also emit the inline helpers it includes with AVX2
// encodings, and the linker may keep those copies for baseline callers.
// "fma" stays off the list (see the contract above).
#define FMBS_TARGET_AVX2 __attribute__((target("avx2")))

namespace sse2 {

/// dst[i] = gain * src[i] over n floats (a complex span is 2n floats).
inline void scale_f32(float* dst, const float* src, float gain,
                      std::size_t n) {
  const __m128 g = _mm_set1_ps(gain);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm_mul_ps(g, _mm_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = gain * src[i];
}

/// dst[i] += gain * src[i] over n floats.
inline void axpy_f32(float* dst, const float* src, float gain,
                     std::size_t n) {
  const __m128 g = _mm_set1_ps(gain);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm_add_ps(_mm_loadu_ps(dst + i),
                                      _mm_mul_ps(g, _mm_loadu_ps(src + i))));
  }
  for (; i < n; ++i) dst[i] += gain * src[i];
}

namespace detail {

/// Stores the four lanes of v to out[0], out[stride], ..., out[3 * stride].
inline void store_f32x4(float* out, std::size_t stride, __m128 v) {
  if (stride == 1) {
    _mm_storeu_ps(out, v);
    return;
  }
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, v);
  out[0] = lanes[0];
  out[stride] = lanes[1];
  out[2 * stride] = lanes[2];
  out[3 * stride] = lanes[3];
}

/// Stores two complex lanes of v at complex offsets 0 and stride.
inline void store_cx2(float* out, std::size_t stride, __m128 v) {
  if (stride == 1) {
    _mm_storeu_ps(out, v);
    return;
  }
  _mm_storel_pi(reinterpret_cast<__m64*>(out), v);
  _mm_storeh_pi(reinterpret_cast<__m64*>(out + 2 * stride), v);
}

}  // namespace detail

/// Real FIR across outputs over the phase layout:
///   out[i * out_stride] = sum_t x[(t % phases) * row_len + t / phases + i]
///                               * rt[t]
/// for i in [0, n), t ascending, with rt the REVERSED tap vector
/// (rt[t] = taps[nt-1-t]). phases == 1 is the plain FIR over x (row_len
/// unused); out_stride > 1 is the interpolator's branch interleave.
///
/// Register-blocked: the main loop keeps four independent accumulator
/// vectors, 16 outputs per step, so consecutive taps' adds do not wait on
/// each other. A one-vector loop and a scalar tail take the remainder. Every
/// lane accumulates its own output's taps serially, in ascending order.
inline void fir_f32(const float* x, std::size_t phases, std::size_t row_len,
                    const float* rt, std::size_t nt, float* out,
                    std::size_t out_stride, std::size_t n) {
  const std::size_t ov = 4 * out_stride;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const float* xi = x + i;
    __m128 a0 = _mm_setzero_ps();
    __m128 a1 = a0;
    __m128 a2 = a0;
    __m128 a3 = a0;
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      const __m128 h = _mm_set1_ps(rt[t]);
      const float* xt = xi + tap.offset();
      a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_loadu_ps(xt), h));
      a1 = _mm_add_ps(a1, _mm_mul_ps(_mm_loadu_ps(xt + 4), h));
      a2 = _mm_add_ps(a2, _mm_mul_ps(_mm_loadu_ps(xt + 8), h));
      a3 = _mm_add_ps(a3, _mm_mul_ps(_mm_loadu_ps(xt + 12), h));
    }
    float* o = out + i * out_stride;
    detail::store_f32x4(o, out_stride, a0);
    detail::store_f32x4(o + ov, out_stride, a1);
    detail::store_f32x4(o + 2 * ov, out_stride, a2);
    detail::store_f32x4(o + 3 * ov, out_stride, a3);
  }
  for (; i + 4 <= n; i += 4) {
    __m128 acc = _mm_setzero_ps();
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(x + tap.offset() + i),
                                       _mm_set1_ps(rt[t])));
    }
    detail::store_f32x4(out + i * out_stride, out_stride, acc);
  }
  for (; i < n; ++i) {
    float acc = 0.0F;
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      acc += x[tap.offset() + i] * rt[t];
    }
    out[i * out_stride] = acc;
  }
}

/// Complex FIR across outputs with real taps, the same contract as fir_f32
/// on interleaved re/im float arrays; row_len and out_stride are in complex
/// samples. One vector holds two complex outputs, so the register-blocked
/// main loop computes 8 outputs per step, then a one-vector loop and a
/// scalar tail.
inline void fir_cx(const float* x, std::size_t phases, std::size_t row_len,
                   const float* rt, std::size_t nt, float* out,
                   std::size_t out_stride, std::size_t n) {
  const std::size_t ov = 4 * out_stride;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float* xi = x + 2 * i;
    __m128 a0 = _mm_setzero_ps();
    __m128 a1 = a0;
    __m128 a2 = a0;
    __m128 a3 = a0;
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      const __m128 h = _mm_set1_ps(rt[t]);
      const float* xt = xi + 2 * tap.offset();
      a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_loadu_ps(xt), h));
      a1 = _mm_add_ps(a1, _mm_mul_ps(_mm_loadu_ps(xt + 4), h));
      a2 = _mm_add_ps(a2, _mm_mul_ps(_mm_loadu_ps(xt + 8), h));
      a3 = _mm_add_ps(a3, _mm_mul_ps(_mm_loadu_ps(xt + 12), h));
    }
    float* o = out + 2 * (i * out_stride);
    detail::store_cx2(o, out_stride, a0);
    detail::store_cx2(o + ov, out_stride, a1);
    detail::store_cx2(o + 2 * ov, out_stride, a2);
    detail::store_cx2(o + 3 * ov, out_stride, a3);
  }
  for (; i + 2 <= n; i += 2) {
    __m128 acc = _mm_setzero_ps();
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(x + 2 * (tap.offset() + i)),
                                       _mm_set1_ps(rt[t])));
    }
    detail::store_cx2(out + 2 * (i * out_stride), out_stride, acc);
  }
  for (; i < n; ++i) {
    float re = 0.0F;
    float im = 0.0F;
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      const float* xt = x + 2 * (tap.offset() + i);
      re += xt[0] * rt[t];
      im += xt[1] * rt[t];
    }
    out[2 * (i * out_stride)] = re;
    out[2 * (i * out_stride) + 1] = im;
  }
}

}  // namespace sse2

/// The AVX2 kernels: the sse2 contract at eight lanes. Call them only when
/// avx2_available(); defined in simd.cpp.
namespace avx2 {
void scale_f32(float* dst, const float* src, float gain, std::size_t n);
void axpy_f32(float* dst, const float* src, float gain, std::size_t n);
void fir_f32(const float* x, std::size_t phases, std::size_t row_len,
             const float* rt, std::size_t nt, float* out,
             std::size_t out_stride, std::size_t n);
void fir_cx(const float* x, std::size_t phases, std::size_t row_len,
            const float* rt, std::size_t nt, float* out,
            std::size_t out_stride, std::size_t n);

/// The Goertzel recurrence s = (x[i] + coeff[t] * s1) - s2 of each of
/// `tones` tones over the n samples of x, across tones: four tones per
/// vector, up to four vectors interleaved. Writes each tone's last two
/// states, s1[t] and s2[t] (zero when n == 0).
void goertzel(const float* x, std::size_t n, const double* coeff,
              std::size_t tones, double* s1, double* s2);

/// The dsp::Mixer span product over n interleaved complex samples of v,
/// n a multiple of 4: v[k] *= float(sr * tre[k] - si * tim[k]) +
/// j float(sr * tim[k] + si * tre[k]), four rotator values per double
/// vector and eight samples per float step.
void mix_cx(float* v, std::size_t n, double sr, double si, const double* tre,
            const double* tim);

/// core::mt64::refill at four words per vector: twists the 312 mt19937_64
/// state words in place and writes their tempered outputs to words.
void mt64_refill(std::uint64_t* state, std::uint64_t* words);

/// core::mt64::polar at four word pairs per step, n a multiple of 8: the
/// canonical conversion, the pair test and mult's multiply, divide and
/// square root run in vectors, each rounding as the scalar operation does;
/// the accepted pairs are packed in order and std::log(float) runs per
/// pair. Returns the number of normals written to out.
std::size_t mt64_polar(const std::uint64_t* words, std::size_t n, float* out);

/// out[2i] = float(std::cos(phase[i])), out[2i + 1] = float(std::sin(
/// phase[i])), with libm's bits. Four phases at a time are reduced by pi/2
/// and evaluated by polynomials in double; a lane keeps that result only if
/// its phase lies in (0, 256] in magnitude and v * (1 - 2^-40) and
/// v * (1 + 2^-40) round to the same float for both values v. Every other
/// lane, and the last n % 4, call libm. Returns the number of phases that
/// called libm.
std::size_t cos_sin(const double* phase, std::size_t n, float* out);
}  // namespace avx2

// The entry points: the AVX2 kernel when avx2_available(), the SSE2 kernel
// otherwise. Defined in simd.cpp, so the kernels are compiled once rather
// than inlined into every filter.

/// dst[i] = gain * src[i] over n floats (a complex span is 2n floats).
void scale_f32(float* dst, const float* src, float gain, std::size_t n);

/// dst[i] += gain * src[i] over n floats.
void axpy_f32(float* dst, const float* src, float gain, std::size_t n);

/// Real FIR across outputs; see sse2::fir_f32 for the contract.
void fir_f32(const float* x, std::size_t phases, std::size_t row_len,
             const float* rt, std::size_t nt, float* out,
             std::size_t out_stride, std::size_t n);

/// Complex FIR across outputs; see sse2::fir_cx for the contract.
void fir_cx(const float* x, std::size_t phases, std::size_t row_len,
            const float* rt, std::size_t nt, float* out,
            std::size_t out_stride, std::size_t n);

/// 4-lane single-precision sin/cos (Cephes-style range reduction + minimax
/// polynomials, the classic sse_mathfun construction). Accurate to ~2 ulp
/// for |x| < 8192 — the subcarrier NCO feeds it phases below ~100 rad.
/// NOT bit-identical to libm cos/sin; call sites must be tolerance-pinned.
inline void sincos_ps(__m128 x, __m128* s, __m128* c) {
  const __m128 sign_mask = _mm_castsi128_ps(_mm_set1_epi32(
      static_cast<int>(0x80000000U)));
  __m128 sign_bit_sin = _mm_and_ps(x, sign_mask);
  x = _mm_andnot_ps(sign_mask, x);  // |x|

  // j = ((int)(x * 4/pi) + 1) & ~1 — quadrant counter, rounded to even.
  __m128 y = _mm_mul_ps(x, _mm_set1_ps(1.27323954473516F));
  __m128i j = _mm_cvttps_epi32(y);
  j = _mm_add_epi32(j, _mm_set1_epi32(1));
  j = _mm_and_si128(j, _mm_set1_epi32(~1));
  y = _mm_cvtepi32_ps(j);

  // sin sign flips when j & 4; the swap (j & 2) selects which polynomial
  // lands in which output; cos sign flips when exactly one of j&2, j&4.
  const __m128 flip_sin = _mm_castsi128_ps(
      _mm_slli_epi32(_mm_and_si128(j, _mm_set1_epi32(4)), 29));
  sign_bit_sin = _mm_xor_ps(sign_bit_sin, flip_sin);
  const __m128 sign_bit_cos = _mm_castsi128_ps(_mm_slli_epi32(
      _mm_and_si128(_mm_andnot_si128(_mm_sub_epi32(j, _mm_set1_epi32(2)),
                                     _mm_set1_epi32(4)),
                    _mm_set1_epi32(4)),
      29));
  const __m128 poly_mask = _mm_castsi128_ps(_mm_cmpeq_epi32(
      _mm_and_si128(j, _mm_set1_epi32(2)), _mm_setzero_si128()));

  // Extended-precision reduction: x -= j * pi/4 in three parts.
  x = _mm_add_ps(x, _mm_mul_ps(y, _mm_set1_ps(-0.78515625F)));
  x = _mm_add_ps(x, _mm_mul_ps(y, _mm_set1_ps(-2.4187564849853515625e-4F)));
  x = _mm_add_ps(x, _mm_mul_ps(y, _mm_set1_ps(-3.77489497744594108e-8F)));

  const __m128 z = _mm_mul_ps(x, x);
  // cos polynomial on the reduced argument.
  __m128 yc = _mm_set1_ps(2.443315711809948e-5F);
  yc = _mm_add_ps(_mm_mul_ps(yc, z), _mm_set1_ps(-1.388731625493765e-3F));
  yc = _mm_add_ps(_mm_mul_ps(yc, z), _mm_set1_ps(4.166664568298827e-2F));
  yc = _mm_mul_ps(_mm_mul_ps(yc, z), z);
  yc = _mm_sub_ps(yc, _mm_mul_ps(z, _mm_set1_ps(0.5F)));
  yc = _mm_add_ps(yc, _mm_set1_ps(1.0F));
  // sin polynomial.
  __m128 ys = _mm_set1_ps(-1.9515295891e-4F);
  ys = _mm_add_ps(_mm_mul_ps(ys, z), _mm_set1_ps(8.3321608736e-3F));
  ys = _mm_add_ps(_mm_mul_ps(ys, z), _mm_set1_ps(-1.6666654611e-1F));
  ys = _mm_add_ps(_mm_mul_ps(_mm_mul_ps(ys, z), x), x);

  const __m128 sin_sel = _mm_or_ps(_mm_and_ps(poly_mask, ys),
                                   _mm_andnot_ps(poly_mask, yc));
  const __m128 cos_sel = _mm_or_ps(_mm_and_ps(poly_mask, yc),
                                   _mm_andnot_ps(poly_mask, ys));
  *s = _mm_xor_ps(sin_sel, sign_bit_sin);
  *c = _mm_xor_ps(cos_sel, sign_bit_cos);
}

namespace avx2 {

/// sincos_ps at eight lanes: the same constants and the same operations in
/// the same order, so every lane's bits equal the four-lane result. Call it
/// only from FMBS_TARGET_AVX2 code, when avx2_available().
FMBS_TARGET_AVX2 inline void sincos_ps(__m256 x, __m256* s, __m256* c) {
  const __m256 sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(
      static_cast<int>(0x80000000U)));
  __m256 sign_bit_sin = _mm256_and_ps(x, sign_mask);
  x = _mm256_andnot_ps(sign_mask, x);

  __m256 y = _mm256_mul_ps(x, _mm256_set1_ps(1.27323954473516F));
  __m256i j = _mm256_cvttps_epi32(y);
  j = _mm256_add_epi32(j, _mm256_set1_epi32(1));
  j = _mm256_and_si256(j, _mm256_set1_epi32(~1));
  y = _mm256_cvtepi32_ps(j);

  const __m256 flip_sin = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_and_si256(j, _mm256_set1_epi32(4)), 29));
  sign_bit_sin = _mm256_xor_ps(sign_bit_sin, flip_sin);
  const __m256 sign_bit_cos = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_and_si256(
          _mm256_andnot_si256(_mm256_sub_epi32(j, _mm256_set1_epi32(2)),
                              _mm256_set1_epi32(4)),
          _mm256_set1_epi32(4)),
      29));
  const __m256 poly_mask = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(j, _mm256_set1_epi32(2)), _mm256_setzero_si256()));

  x = _mm256_add_ps(x, _mm256_mul_ps(y, _mm256_set1_ps(-0.78515625F)));
  x = _mm256_add_ps(
      x, _mm256_mul_ps(y, _mm256_set1_ps(-2.4187564849853515625e-4F)));
  x = _mm256_add_ps(
      x, _mm256_mul_ps(y, _mm256_set1_ps(-3.77489497744594108e-8F)));

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 yc = _mm256_set1_ps(2.443315711809948e-5F);
  yc = _mm256_add_ps(_mm256_mul_ps(yc, z),
                     _mm256_set1_ps(-1.388731625493765e-3F));
  yc = _mm256_add_ps(_mm256_mul_ps(yc, z),
                     _mm256_set1_ps(4.166664568298827e-2F));
  yc = _mm256_mul_ps(_mm256_mul_ps(yc, z), z);
  yc = _mm256_sub_ps(yc, _mm256_mul_ps(z, _mm256_set1_ps(0.5F)));
  yc = _mm256_add_ps(yc, _mm256_set1_ps(1.0F));
  __m256 ys = _mm256_set1_ps(-1.9515295891e-4F);
  ys = _mm256_add_ps(_mm256_mul_ps(ys, z), _mm256_set1_ps(8.3321608736e-3F));
  ys = _mm256_add_ps(_mm256_mul_ps(ys, z),
                     _mm256_set1_ps(-1.6666654611e-1F));
  ys = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(ys, z), x), x);

  const __m256 sin_sel = _mm256_or_ps(_mm256_and_ps(poly_mask, ys),
                                      _mm256_andnot_ps(poly_mask, yc));
  const __m256 cos_sel = _mm256_or_ps(_mm256_and_ps(poly_mask, yc),
                                      _mm256_andnot_ps(poly_mask, ys));
  *s = _mm256_xor_ps(sin_sel, sign_bit_sin);
  *c = _mm256_xor_ps(cos_sel, sign_bit_cos);
}

}  // namespace avx2

#endif  // FMBS_SIMD_ENABLED

}  // namespace fmbs::dsp::simd
