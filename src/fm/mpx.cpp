#include "fm/mpx.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/nco.h"
#include "dsp/simd.h"
#include "fm/emphasis.h"
#include "fm/rds.h"

namespace fmbs::fm {

namespace {

dsp::rvec upsample_audio(std::span<const float> in, std::size_t factor) {
  if (factor == 1) return dsp::rvec(in.begin(), in.end());
  // 15 kHz program content in a 240 kHz stream: cutoff at the audio rate's
  // Nyquist, scaled for the interpolated rate.
  const double cutoff = 0.5 / static_cast<double>(factor) * 0.9;
  dsp::FirInterpolator<float> interp(
      dsp::fir_design_lowpass(static_cast<std::size_t>(16 * factor) | 1U, cutoff),
      factor);
  dsp::rvec out(in.size() * factor);
  interp.process_into(in, out);
  return out;
}

}  // namespace

dsp::rvec compose_mpx(const audio::StereoBuffer& program, const MpxConfig& config,
                      std::span<const unsigned char> rds_bitstream) {
  if (program.sample_rate <= 0.0 || config.mpx_rate <= 0.0) {
    throw std::invalid_argument("compose_mpx: bad sample rate");
  }
  const double ratio = config.mpx_rate / program.sample_rate;
  const auto factor = static_cast<std::size_t>(ratio + 0.5);
  if (std::abs(ratio - static_cast<double>(factor)) > 1e-9 || factor == 0) {
    throw std::invalid_argument("compose_mpx: mpx_rate must be an integer multiple of the audio rate");
  }

  std::vector<float> left = program.left;
  std::vector<float> right = program.right;
  if (config.preemphasis) {
    PreEmphasis pe_l(units::Seconds{kDeemphasisSeconds}, program.sample_rate);
    PreEmphasis pe_r(units::Seconds{kDeemphasisSeconds}, program.sample_rate);
    pe_l.process_inplace(left);
    pe_r.process_inplace(right);
  }

  const dsp::rvec l_up = upsample_audio(left, factor);
  const dsp::rvec r_up = upsample_audio(right, factor);
  const std::size_t n = l_up.size();

  dsp::rvec rds_wave;
  if (config.rds_level > 0.0 && !rds_bitstream.empty()) {
    rds_wave = modulate_rds_subcarrier(rds_bitstream, n, config.mpx_rate);
  }

  dsp::Oscillator pilot(kPilotHz, config.mpx_rate);
  dsp::Oscillator stereo_carrier(kStereoCarrierHz, config.mpx_rate);

  // Hoist the oscillators out of the combine loop. Each oscillator's sample
  // sequence is exactly what interleaved next_real() calls produced (the two
  // accumulators are independent), so this is bit-identical to the historical
  // per-sample loop — and it leaves a pure elementwise combine that the SSE2
  // path below vectorizes with the scalar operation order preserved
  // (elementwise mul/add, no FMA contraction, hence bit-identical too).
  const dsp::rvec pil_w = pilot.block_real(n);
  const dsp::rvec sc_w = stereo_carrier.block_real(n);

  dsp::rvec mpx(n);
  const auto prog = static_cast<float>(config.program_level);
  const auto pil = static_cast<float>(config.pilot_level);
  const auto rds_g = static_cast<float>(config.rds_level);
  const bool have_rds = !rds_wave.empty();
  std::size_t i = 0;
#if FMBS_SIMD_ENABLED
  const __m128 half = _mm_set1_ps(0.5F);
  const __m128 prog_v = _mm_set1_ps(prog);
  const __m128 pil_v = _mm_set1_ps(pil);
  const __m128 rds_v = _mm_set1_ps(rds_g);
  for (; i + 4 <= n; i += 4) {
    const __m128 l = _mm_loadu_ps(l_up.data() + i);
    const __m128 r = _mm_loadu_ps(r_up.data() + i);
    const __m128 mid = _mm_mul_ps(half, _mm_add_ps(l, r));
    __m128 v;
    if (config.stereo) {
      const __m128 side = _mm_mul_ps(half, _mm_sub_ps(l, r));
      const __m128 sc = _mm_loadu_ps(sc_w.data() + i);
      const __m128 p = _mm_loadu_ps(pil_w.data() + i);
      v = _mm_add_ps(
          _mm_mul_ps(prog_v, _mm_add_ps(mid, _mm_mul_ps(side, sc))),
          _mm_mul_ps(pil_v, p));
    } else {
      v = _mm_mul_ps(prog_v, mid);
    }
    if (have_rds) {
      v = _mm_add_ps(v, _mm_mul_ps(rds_v, _mm_loadu_ps(rds_wave.data() + i)));
    }
    _mm_storeu_ps(mpx.data() + i, v);
  }
#endif
  for (; i < n; ++i) {
    const float mid = 0.5F * (l_up[i] + r_up[i]);
    float v = 0.0F;
    if (config.stereo) {
      const float side = 0.5F * (l_up[i] - r_up[i]);
      v = prog * (mid + side * sc_w[i]) + pil * pil_w[i];
    } else {
      // Mono transmissions emit neither pilot nor subcarrier; the hoisted
      // blocks above still advanced both oscillators, as before.
      v = prog * mid;
    }
    if (have_rds) v += rds_g * rds_wave[i];
    mpx[i] = v;
  }
  return mpx;
}

}  // namespace fmbs::fm
