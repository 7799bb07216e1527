#include "dsp/simd.h"

#include <cmath>

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

namespace {

constexpr std::uint64_t kMtUpper = 0xFFFFFFFF80000000ULL;
constexpr std::uint64_t kMtLower = 0x7FFFFFFFULL;
constexpr std::uint64_t kMtMatrix = 0xB5026F5AA96619E9ULL;

FMBS_TARGET_AVX2 __m256i load_u64x4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

FMBS_TARGET_AVX2 void store_u64x4(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// One mt19937_64 twist step on four words.
FMBS_TARGET_AVX2 __m256i mt_twist(__m256i cur, __m256i next, __m256i far) {
  const __m256i y =
      _mm256_or_si256(_mm256_and_si256(cur, _mm256_set1_epi64x(kMtUpper)),
                      _mm256_and_si256(next, _mm256_set1_epi64x(kMtLower)));
  const __m256i odd = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(y, _mm256_set1_epi64x(1)));
  return _mm256_xor_si256(
      _mm256_xor_si256(far, _mm256_srli_epi64(y, 1)),
      _mm256_and_si256(odd, _mm256_set1_epi64x(kMtMatrix)));
}

FMBS_TARGET_AVX2 __m256i mt_temper(__m256i x) {
  x = _mm256_xor_si256(
      x, _mm256_and_si256(_mm256_srli_epi64(x, 29),
                          _mm256_set1_epi64x(0x5555555555555555LL)));
  x = _mm256_xor_si256(
      x, _mm256_and_si256(_mm256_slli_epi64(x, 17),
                          _mm256_set1_epi64x(0x71D67FFFEDA60000LL)));
  x = _mm256_xor_si256(
      x, _mm256_and_si256(_mm256_slli_epi64(x, 37),
                          _mm256_set1_epi64x(
                              static_cast<long long>(0xFFF7EEE000000000ULL))));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 43));
}

/// float(w) for four words, rounded to nearest even as a uint64 -> float
/// conversion is. Words of 2^53 and up fold bits 0-10 into a sticky bit 11
/// (they lie below the float's rounding bit, where only their OR matters),
/// so every value spans at most 53 bits and converts to double exactly, as
/// (2^84 + hi * 2^32) - (2^84 + 2^52) + (2^52 + lo); the one float rounding
/// is then the word's own.
FMBS_TARGET_AVX2 __m128 u64_to_f32(__m256i w) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i low_bits = _mm256_set1_epi64x(0x7FF);
  const __m256i sticky = _mm256_andnot_si256(
      _mm256_cmpeq_epi64(_mm256_and_si256(w, low_bits), zero),
      _mm256_set1_epi64x(0x800));
  const __m256i folded =
      _mm256_or_si256(_mm256_andnot_si256(low_bits, w), sticky);
  const __m256i small = _mm256_cmpeq_epi64(_mm256_srli_epi64(w, 53), zero);
  const __m256i v = _mm256_blendv_epi8(folded, w, small);
  const __m256d hi = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(v, 32), _mm256_set1_epi64x(0x4530000000000000LL)));
  const __m256d lo = _mm256_castsi256_pd(_mm256_blend_epi32(
      v, _mm256_set1_epi64x(0x4330000000000000LL), 0xAA));
  return _mm256_cvtpd_ps(
      _mm256_add_pd(_mm256_sub_pd(hi, _mm256_set1_pd(0x1.00000001p84)), lo));
}

/// generate_canonical<float, 24> of four words: float(w) * 2^-64, with 1.0
/// clamped to nextafter(1, 0); then 2u - 1 the way normal_distribution
/// forms it, float(double(2.0F * u) - 1.0).
FMBS_TARGET_AVX2 __m128 polar_coordinate(__m128 f) {
  const __m128 u = _mm_min_ps(_mm_mul_ps(f, _mm_set1_ps(0x1p-64F)),
                              _mm_set1_ps(0x1.fffffep-1F));
  return _mm256_cvtpd_ps(
      _mm256_sub_pd(_mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(2.0F), u)),
                    _mm256_set1_pd(1.0)));
}

/// Lane indices that pack the lanes set in a 4-bit mask to the front, in
/// order, and how many there are.
struct PackTable {
  alignas(16) int index[16][4];
  int count[16];
};

constexpr PackTable make_pack_table() {
  PackTable t{};
  for (int mask = 0; mask < 16; ++mask) {
    int n = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) t.index[mask][n++] = lane;
    }
    t.count[mask] = n;
  }
  return t;
}

constexpr PackTable kPack = make_pack_table();

constexpr int kPolarPairs = 32;  // word pairs per packing pass

}  // namespace

FMBS_TARGET_AVX2 void mt64_refill(std::uint64_t* state,
                                  std::uint64_t* words) {
  constexpr std::size_t kWords = 312;
  constexpr std::size_t kShift = 156;
  // Words [0, 156) take the old word 156 ahead, words [156, 308) the word
  // twisted 156 before. Each vector loads its next-word neighbours before
  // it stores, so they are still the old words. The last four run alone:
  // word 311's neighbour is the new word 0.
  std::size_t i = 0;
  for (; i < kShift; i += 4) {
    store_u64x4(state + i, mt_twist(load_u64x4(state + i),
                                    load_u64x4(state + i + 1),
                                    load_u64x4(state + i + kShift)));
  }
  for (; i + 4 < kWords; i += 4) {
    store_u64x4(state + i, mt_twist(load_u64x4(state + i),
                                    load_u64x4(state + i + 1),
                                    load_u64x4(state + i - kShift)));
  }
  for (; i < kWords; ++i) {
    const std::uint64_t y = (state[i] & kMtUpper) |
                            (state[(i + 1) % kWords] & kMtLower);
    state[i] = state[i - kShift] ^ (y >> 1) ^ ((0 - (y & 1)) & kMtMatrix);
  }
  for (i = 0; i < kWords; i += 4) {
    store_u64x4(words + i, mt_temper(load_u64x4(state + i)));
  }
}

FMBS_TARGET_AVX2 std::size_t mt64_polar(const std::uint64_t* words,
                                        std::size_t n, float* out) {
  // Packed accepted pairs of one pass, with room for a full vector past
  // the last one.
  alignas(16) float xs[kPolarPairs + 4];
  alignas(16) float ys[kPolarPairs + 4];
  alignas(16) float r2s[kPolarPairs + 4];
  alignas(16) float logs[kPolarPairs + 4];
  std::size_t count = 0;
  for (std::size_t pass = 0; pass < n; pass += 2 * kPolarPairs) {
    const std::size_t end =
        n - pass < 2 * kPolarPairs ? n : pass + 2 * kPolarPairs;
    int m = 0;
    for (std::size_t i = pass; i < end; i += 8) {
      const __m128 fa = u64_to_f32(load_u64x4(words + i));
      const __m128 fb = u64_to_f32(load_u64x4(words + i + 4));
      // Even words are x, odd words y.
      const __m128 x =
          polar_coordinate(_mm_shuffle_ps(fa, fb, _MM_SHUFFLE(2, 0, 2, 0)));
      const __m128 y =
          polar_coordinate(_mm_shuffle_ps(fa, fb, _MM_SHUFFLE(3, 1, 3, 1)));
      const __m128 r2 = _mm_add_ps(_mm_mul_ps(x, x), _mm_mul_ps(y, y));
      const int reject = _mm_movemask_ps(
          _mm_or_ps(_mm_cmpgt_ps(r2, _mm_set1_ps(1.0F)),
                    _mm_cmpeq_ps(r2, _mm_setzero_ps())));
      const int keep = reject ^ 0xF;
      const __m128i index = _mm_load_si128(
          reinterpret_cast<const __m128i*>(kPack.index[keep]));
      _mm_storeu_ps(xs + m, _mm_permutevar_ps(x, index));
      _mm_storeu_ps(ys + m, _mm_permutevar_ps(y, index));
      _mm_storeu_ps(r2s + m, _mm_permutevar_ps(r2, index));
      m += kPack.count[keep];
    }
    for (int k = 0; k < m; ++k) logs[k] = std::log(r2s[k]);
    int k = 0;
    for (; k + 4 <= m; k += 4) {
      const __m128 r2 = _mm_load_ps(r2s + k);
      const __m128 mult = _mm_sqrt_ps(_mm_div_ps(
          _mm_mul_ps(_mm_set1_ps(-2.0F), _mm_load_ps(logs + k)), r2));
      const __m128 yo = _mm_mul_ps(_mm_load_ps(ys + k), mult);
      const __m128 xo = _mm_mul_ps(_mm_load_ps(xs + k), mult);
      _mm_storeu_ps(out + count, _mm_unpacklo_ps(yo, xo));
      _mm_storeu_ps(out + count + 4, _mm_unpackhi_ps(yo, xo));
      count += 8;
    }
    for (; k < m; ++k) {
      const float mult = std::sqrt(-2.0F * logs[k] / r2s[k]);
      out[count++] = ys[k] * mult;
      out[count++] = xs[k] * mult;
    }
  }
  return count;
}

namespace {

// pi/2 in three parts (fdlibm's pio2_1, pio2_2 and pio2_2t). The first two
// carry 33 significant bits, so their products with a quadrant count below
// 2^20 are exact, and x - q * kPio2Hi cancels exactly.
constexpr double kPio2Hi = 0x1.921fb544p+0;          // 1.5707963267341256
constexpr double kPio2Mid = 0x1.0b4611a6p-34;        // 6.0771005063039660e-11
constexpr double kPio2Lo = 0x1.3198a2e037073p-69;    // 2.0222662487959506e-21
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;  // 0.63661977236758138
// The largest phase magnitude the polynomials take; larger ones call libm.
constexpr double kCosSinLimit = 256.0;

// fdlibm's __kernel_sin and __kernel_cos coefficients, highest degree
// first: sin r = r + r^3 P(r^2), cos r = 1 - r^2 / 2 + r^4 Q(r^2).
constexpr double kSinPoly[] = {
    1.58969099521155010221e-10,  -2.50507602534068634195e-08,
    2.75573137070700676789e-06,  -1.98412698298579493134e-04,
    8.33333333332248946124e-03,  -1.66666666666666324348e-01};
constexpr double kCosPoly[] = {
    -1.13596475577881948265e-11, 2.08757232129817482790e-09,
    -2.75573143513906633035e-07, 2.48015872894767294178e-05,
    -1.38888888888741095749e-03, 4.16666666666666019037e-02};

/// Horner's rule over coefficients c, highest degree first.
template <std::size_t N>
FMBS_TARGET_AVX2 __m256d horner(__m256d z, const double (&c)[N]) {
  __m256d p = _mm256_set1_pd(c[0]);
  for (std::size_t k = 1; k < N; ++k) {
    p = _mm256_add_pd(_mm256_set1_pd(c[k]), _mm256_mul_pd(z, p));
  }
  return p;
}

/// sin r and cos r on [-pi/4, pi/4] as fdlibm's kernels evaluate them,
/// without the tail of the reduced argument.
FMBS_TARGET_AVX2 void cos_sin_kernel(__m256d r, __m256d* s, __m256d* c) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d z = _mm256_mul_pd(r, r);
  *s = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(z, r),
                                      horner(z, kSinPoly)));
  const __m256d q = _mm256_mul_pd(z, horner(z, kCosPoly));
  const __m256d hz = _mm256_mul_pd(_mm256_set1_pd(0.5), z);
  const __m256d w = _mm256_sub_pd(one, hz);
  *c = _mm256_add_pd(
      w, _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(one, w), hz),
                       _mm256_mul_pd(z, q)));
}

/// True in each lane whose v * (1 - 2^-40) and v * (1 + 2^-40) round to the
/// same float. Any value within 2^-41 of v's own value, relative, lies
/// between them, so it rounds to float(v) as well.
FMBS_TARGET_AVX2 __m128 rounds_alike(__m256d v) {
  return _mm_cmpeq_ps(
      _mm256_cvtpd_ps(_mm256_mul_pd(v, _mm256_set1_pd(1.0 - 0x1p-40))),
      _mm256_cvtpd_ps(_mm256_mul_pd(v, _mm256_set1_pd(1.0 + 0x1p-40))));
}

}  // namespace

FMBS_TARGET_AVX2 std::size_t cos_sin(const double* phase, std::size_t n,
                                     float* out) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);
  std::size_t libm = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(phase + i);
    const __m256d in_range = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_and_pd(x, abs_mask),
                      _mm256_set1_pd(kCosSinLimit), _CMP_LE_OQ),
        _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_NEQ_OQ));
    // x = q pi/2 + r, |r| <= pi/4.
    const __m256d q = _mm256_round_pd(
        _mm256_mul_pd(x, _mm256_set1_pd(kTwoOverPi)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d r = _mm256_sub_pd(
        _mm256_sub_pd(
            _mm256_sub_pd(x, _mm256_mul_pd(q, _mm256_set1_pd(kPio2Hi))),
            _mm256_mul_pd(q, _mm256_set1_pd(kPio2Mid))),
        _mm256_mul_pd(q, _mm256_set1_pd(kPio2Lo)));
    __m256d s;
    __m256d c;
    cos_sin_kernel(r, &s, &c);
    // Quadrant q mod 4: an odd one swaps sin and cos; sin is negated in
    // quadrants 2 and 3, cos in 1 and 2.
    const __m256i quadrant =
        _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(q));
    const __m256d swap = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(quadrant, one), one));
    const __m256d sin_sign = _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_and_si256(quadrant, two), 62));
    const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_and_si256(_mm256_add_epi64(quadrant, one), two), 62));
    const __m256d sin_v =
        _mm256_xor_pd(_mm256_blendv_pd(s, c, swap), sin_sign);
    const __m256d cos_v =
        _mm256_xor_pd(_mm256_blendv_pd(c, s, swap), cos_sign);
    const int keep =
        _mm256_movemask_pd(in_range) &
        _mm_movemask_ps(_mm_and_ps(rounds_alike(cos_v), rounds_alike(sin_v)));
    const __m128 cf = _mm256_cvtpd_ps(cos_v);
    const __m128 sf = _mm256_cvtpd_ps(sin_v);
    _mm_storeu_ps(out + 2 * i, _mm_unpacklo_ps(cf, sf));
    _mm_storeu_ps(out + 2 * i + 4, _mm_unpackhi_ps(cf, sf));
    if (keep != 0xF) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        if ((keep >> lane) & 1) continue;
        out[2 * (i + lane)] = static_cast<float>(std::cos(phase[i + lane]));
        out[2 * (i + lane) + 1] =
            static_cast<float>(std::sin(phase[i + lane]));
        ++libm;
      }
    }
  }
  for (; i < n; ++i) {
    out[2 * i] = static_cast<float>(std::cos(phase[i]));
    out[2 * i + 1] = static_cast<float>(std::sin(phase[i]));
    ++libm;
  }
  return libm;
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
