#include "dsp/simd.h"

#if FMBS_SIMD_ENABLED
#include <immintrin.h>
#endif

namespace fmbs::dsp::simd {

#if FMBS_SIMD_ENABLED

bool avx2_available() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
}

const char* kernel_isa() { return avx2_available() ? "avx2" : "sse2"; }

// Each AVX2 kernel is compiled for AVX2 alone, never for the whole file: a
// file-wide target would also emit the inline helpers it includes with AVX2
// encodings, and the linker may keep those copies for baseline callers.
// "fma" stays off the list (see the contract in simd.h).
#define FMBS_TARGET_AVX2 __attribute__((target("avx2")))

namespace avx2 {

namespace {

/// Stores the eight lanes of v to out[0], out[stride], ..., out[7 * stride].
FMBS_TARGET_AVX2 void store_f32x8(float* out, std::size_t stride, __m256 v) {
  if (stride == 1) {
    _mm256_storeu_ps(out, v);
    return;
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, v);
  for (std::size_t k = 0; k < 8; ++k) out[k * stride] = lanes[k];
}

/// Stores the four complex lanes of v at complex offsets 0, stride,
/// 2 * stride and 3 * stride.
FMBS_TARGET_AVX2 void store_cx4(float* out, std::size_t stride, __m256 v) {
  if (stride == 1) {
    _mm256_storeu_ps(out, v);
    return;
  }
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  _mm_storel_pi(reinterpret_cast<__m64*>(out), lo);
  _mm_storeh_pi(reinterpret_cast<__m64*>(out + 2 * stride), lo);
  _mm_storel_pi(reinterpret_cast<__m64*>(out + 4 * stride), hi);
  _mm_storeh_pi(reinterpret_cast<__m64*>(out + 6 * stride), hi);
}

}  // namespace

FMBS_TARGET_AVX2 void scale_f32(float* dst, const float* src, float gain,
                                std::size_t n) {
  const __m256 g = _mm256_set1_ps(gain);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(g, _mm256_loadu_ps(src + i)));
  }
  sse2::scale_f32(dst + i, src + i, gain, n - i);
}

FMBS_TARGET_AVX2 void axpy_f32(float* dst, const float* src, float gain,
                               std::size_t n) {
  const __m256 g = _mm256_set1_ps(gain);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(g, _mm256_loadu_ps(src + i))));
  }
  sse2::axpy_f32(dst + i, src + i, gain, n - i);
}

/// sse2::fir_f32 at eight lanes: 32 outputs per register-blocked step, then
/// 8 per one-vector step; the SSE2 kernel takes the last n % 8.
FMBS_TARGET_AVX2 void fir_f32(const float* x, std::size_t phases,
                              std::size_t row_len, const float* rt,
                              std::size_t nt, float* out,
                              std::size_t out_stride, std::size_t n) {
  const std::size_t ov = 8 * out_stride;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const float* xi = x + i;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = a0;
    __m256 a2 = a0;
    __m256 a3 = a0;
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      const __m256 h = _mm256_set1_ps(rt[t]);
      const float* xt = xi + tap.offset();
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(xt), h));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(xt + 8), h));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(xt + 16), h));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(xt + 24), h));
    }
    float* o = out + i * out_stride;
    store_f32x8(o, out_stride, a0);
    store_f32x8(o + ov, out_stride, a1);
    store_f32x8(o + 2 * ov, out_stride, a2);
    store_f32x8(o + 3 * ov, out_stride, a3);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(_mm256_loadu_ps(x + tap.offset() + i),
                                        _mm256_set1_ps(rt[t])));
    }
    store_f32x8(out + i * out_stride, out_stride, acc);
  }
  sse2::fir_f32(x + i, phases, row_len, rt, nt, out + i * out_stride,
                out_stride, n - i);
}

/// sse2::fir_cx at eight lanes (four complex outputs per vector): 16
/// outputs per register-blocked step, then 4 per one-vector step; the SSE2
/// kernel takes the last n % 4.
FMBS_TARGET_AVX2 void fir_cx(const float* x, std::size_t phases,
                             std::size_t row_len, const float* rt,
                             std::size_t nt, float* out,
                             std::size_t out_stride, std::size_t n) {
  const std::size_t ov = 8 * out_stride;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const float* xi = x + 2 * i;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = a0;
    __m256 a2 = a0;
    __m256 a3 = a0;
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      const __m256 h = _mm256_set1_ps(rt[t]);
      const float* xt = xi + 2 * tap.offset();
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(xt), h));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(xt + 8), h));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(xt + 16), h));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(xt + 24), h));
    }
    float* o = out + 2 * (i * out_stride);
    store_cx4(o, out_stride, a0);
    store_cx4(o + ov, out_stride, a1);
    store_cx4(o + 2 * ov, out_stride, a2);
    store_cx4(o + 3 * ov, out_stride, a3);
  }
  for (; i + 4 <= n; i += 4) {
    __m256 acc = _mm256_setzero_ps();
    TapWalk tap(phases, row_len);
    for (std::size_t t = 0; t < nt; ++t, tap.next()) {
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_loadu_ps(x + 2 * (tap.offset() + i)),
                             _mm256_set1_ps(rt[t])));
    }
    store_cx4(out + 2 * (i * out_stride), out_stride, acc);
  }
  sse2::fir_cx(x + 2 * i, phases, row_len, rt, nt, out + 2 * (i * out_stride),
               out_stride, n - i);
}

}  // namespace avx2

void scale_f32(float* dst, const float* src, float gain, std::size_t n) {
  if (avx2_available()) {
    avx2::scale_f32(dst, src, gain, n);
  } else {
    sse2::scale_f32(dst, src, gain, n);
  }
}

void axpy_f32(float* dst, const float* src, float gain, std::size_t n) {
  if (avx2_available()) {
    avx2::axpy_f32(dst, src, gain, n);
  } else {
    sse2::axpy_f32(dst, src, gain, n);
  }
}

void fir_f32(const float* x, std::size_t phases, std::size_t row_len,
             const float* rt, std::size_t nt, float* out,
             std::size_t out_stride, std::size_t n) {
  if (avx2_available()) {
    avx2::fir_f32(x, phases, row_len, rt, nt, out, out_stride, n);
  } else {
    sse2::fir_f32(x, phases, row_len, rt, nt, out, out_stride, n);
  }
}

void fir_cx(const float* x, std::size_t phases, std::size_t row_len,
            const float* rt, std::size_t nt, float* out,
            std::size_t out_stride, std::size_t n) {
  if (avx2_available()) {
    avx2::fir_cx(x, phases, row_len, rt, nt, out, out_stride, n);
  } else {
    sse2::fir_cx(x, phases, row_len, rt, nt, out, out_stride, n);
  }
}

#else

const char* kernel_isa() { return "scalar"; }

#endif  // FMBS_SIMD_ENABLED

}  // namespace fmbs::dsp::simd
