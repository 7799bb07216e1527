#include "dsp/simd.h"

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

namespace {

/// The Goertzel recurrence of up to 4 * NV tones in NV interleaved vectors,
/// so the NV chains' adds overlap. Lanes past `tones` run with coefficient
/// 0 and are dropped.
template <std::size_t NV>
FMBS_TARGET_AVX2 void goertzel_group(const float* x, std::size_t n,
                                     const double* coeff, std::size_t tones,
                                     double* s1_out, double* s2_out) {
  alignas(32) double lanes[4 * NV] = {};
  for (std::size_t t = 0; t < tones; ++t) lanes[t] = coeff[t];
  __m256d c[NV];
  __m256d s1[NV];
  __m256d s2[NV];
  for (std::size_t v = 0; v < NV; ++v) {
    c[v] = _mm256_load_pd(lanes + 4 * v);
    s1[v] = _mm256_setzero_pd();
    s2[v] = s1[v];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d xv = _mm256_set1_pd(static_cast<double>(x[i]));
    for (std::size_t v = 0; v < NV; ++v) {
      const __m256d s0 =
          _mm256_sub_pd(_mm256_add_pd(xv, _mm256_mul_pd(c[v], s1[v])), s2[v]);
      s2[v] = s1[v];
      s1[v] = s0;
    }
  }
  for (std::size_t v = 0; v < NV; ++v) {
    _mm256_store_pd(lanes + 4 * v, s1[v]);
  }
  for (std::size_t t = 0; t < tones; ++t) s1_out[t] = lanes[t];
  for (std::size_t v = 0; v < NV; ++v) {
    _mm256_store_pd(lanes + 4 * v, s2[v]);
  }
  for (std::size_t t = 0; t < tones; ++t) s2_out[t] = lanes[t];
}

/// The mixer's rotator at samples k..k+3, rounded to float.
FMBS_TARGET_AVX2 void rotator_x4(__m256d sr, __m256d si, const double* tre,
                                 const double* tim, __m128* cr, __m128* ci) {
  const __m256d re = _mm256_loadu_pd(tre);
  const __m256d im = _mm256_loadu_pd(tim);
  *cr = _mm256_cvtpd_ps(
      _mm256_sub_pd(_mm256_mul_pd(sr, re), _mm256_mul_pd(si, im)));
  *ci = _mm256_cvtpd_ps(
      _mm256_add_pd(_mm256_mul_pd(sr, im), _mm256_mul_pd(si, re)));
}

}  // namespace

FMBS_TARGET_AVX2 void goertzel(const float* x, std::size_t n,
                               const double* coeff, std::size_t tones,
                               double* s1, double* s2) {
  for (std::size_t t = 0; t < tones; t += 16) {
    const std::size_t group = tones - t < 16 ? tones - t : 16;
    switch ((group + 3) / 4) {
      case 1:
        goertzel_group<1>(x, n, coeff + t, group, s1 + t, s2 + t);
        break;
      case 2:
        goertzel_group<2>(x, n, coeff + t, group, s1 + t, s2 + t);
        break;
      case 3:
        goertzel_group<3>(x, n, coeff + t, group, s1 + t, s2 + t);
        break;
      default:
        goertzel_group<4>(x, n, coeff + t, group, s1 + t, s2 + t);
        break;
    }
  }
}

FMBS_TARGET_AVX2 void mix_cx(float* v, std::size_t n, double sr, double si,
                             const double* tre, const double* tim) {
  const __m256d vsr = _mm256_set1_pd(sr);
  const __m256d vsi = _mm256_set1_pd(si);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m128 cr_lo;
    __m128 ci_lo;
    __m128 cr_hi;
    __m128 ci_hi;
    rotator_x4(vsr, vsi, tre + k, tim + k, &cr_lo, &ci_lo);
    rotator_x4(vsr, vsi, tre + k + 4, tim + k + 4, &cr_hi, &ci_hi);
    // shuffle_ps deinterleaves the input as samples 0 1 4 5 | 2 3 6 7;
    // the rotator takes the same order, and unpacklo/hi restore it.
    const __m256 cr = _mm256_set_m128(_mm_movehl_ps(cr_hi, cr_lo),
                                      _mm_movelh_ps(cr_lo, cr_hi));
    const __m256 ci = _mm256_set_m128(_mm_movehl_ps(ci_hi, ci_lo),
                                      _mm_movelh_ps(ci_lo, ci_hi));
    const __m256 a = _mm256_loadu_ps(v + 2 * k);
    const __m256 b = _mm256_loadu_ps(v + 2 * k + 8);
    const __m256 xr = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 xi = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
    const __m256 yr =
        _mm256_sub_ps(_mm256_mul_ps(xr, cr), _mm256_mul_ps(xi, ci));
    const __m256 yi =
        _mm256_add_ps(_mm256_mul_ps(xr, ci), _mm256_mul_ps(xi, cr));
    _mm256_storeu_ps(v + 2 * k, _mm256_unpacklo_ps(yr, yi));
    _mm256_storeu_ps(v + 2 * k + 8, _mm256_unpackhi_ps(yr, yi));
  }
  if (k < n) {  // four samples left
    __m128 cr;
    __m128 ci;
    rotator_x4(vsr, vsi, tre + k, tim + k, &cr, &ci);
    const __m128 a = _mm_loadu_ps(v + 2 * k);
    const __m128 b = _mm_loadu_ps(v + 2 * k + 4);
    const __m128 xr = _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 xi = _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128 yr = _mm_sub_ps(_mm_mul_ps(xr, cr), _mm_mul_ps(xi, ci));
    const __m128 yi = _mm_add_ps(_mm_mul_ps(xr, ci), _mm_mul_ps(xi, cr));
    _mm_storeu_ps(v + 2 * k, _mm_unpacklo_ps(yr, yi));
    _mm_storeu_ps(v + 2 * k + 4, _mm_unpackhi_ps(yr, yi));
  }
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
