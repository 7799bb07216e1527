// google-benchmark microbenchmarks for the hot DSP paths: how fast the
// pipeline runs relative to real time, per stage. The BM_Engine* cases time
// one call at the size the scene engines make it; the run's context records
// which FIR kernel set (avx2, sse2 or scalar) the process selected.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>

#include "audio/tone.h"
#include "channel/awgn.h"
#include "channel/superpose.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/thread_pool.h"
#include "fm/station_cache.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/goertzel.h"
#include "dsp/nco.h"
#include "dsp/simd.h"
#include "fm/constants.h"
#include "fm/demodulator.h"
#include "fm/modulator.h"
#include "rx/tuner.h"
#include "tag/baseband.h"
#include "tag/fsk.h"
#include "tag/subcarrier.h"

namespace {

using namespace fmbs;

void BM_FftForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::FftPlan plan(n);
  dsp::cvec data(n, dsp::cfloat(1.0F, 0.5F));
  for (auto _ : state) {
    plan.forward(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftForward)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FirFilterFloat(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  dsp::FirFilter<float> filt(dsp::fir_design_lowpass(taps, 0.1));
  const std::vector<float> block(24000, 0.5F);
  std::vector<float> out(block.size());
  for (auto _ : state) {
    filt.process_into(block, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 24000);
}
BENCHMARK(BM_FirFilterFloat)->Arg(31)->Arg(127);

void BM_ScaleInto(benchmark::State& state) {
  dsp::cvec src(240000, dsp::cfloat(0.3F, -0.2F));
  dsp::cvec dst(240000);
  for (auto _ : state) {
    channel::scale_into(dst, src, 0.7F);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 240000);
}
BENCHMARK(BM_ScaleInto);

void BM_AccumulateScaled(benchmark::State& state) {
  dsp::cvec src(240000, dsp::cfloat(0.3F, -0.2F));
  dsp::cvec dst(240000, dsp::cfloat(0.1F, 0.1F));
  for (auto _ : state) {
    channel::accumulate_scaled(dst, src, 0.7F);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 240000);
}
BENCHMARK(BM_AccumulateScaled);

// The scene's per-station upsampler: one 0.1 s MPX-rate block to RF rate,
// with the engines' design (161 taps at 0.45/10, 17 taps per branch).
void BM_PolyphaseInterpolator(benchmark::State& state) {
  dsp::FirInterpolator<dsp::cfloat> interp(
      dsp::fir_design_lowpass(16 * 10 + 1, 0.45 / 10.0), 10);
  const dsp::cvec block(24000, dsp::cfloat(0.3F, -0.2F));
  dsp::cvec out(block.size() * 10);
  for (auto _ : state) {
    interp.process_into(block, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 24000);
}
BENCHMARK(BM_PolyphaseInterpolator);

void BM_PolyphaseDecimator(benchmark::State& state) {
  dsp::FirDecimator<dsp::cfloat> dec(dsp::fir_design_lowpass(127, 0.04), 10);
  const dsp::cvec block(240000, dsp::cfloat(0.3F, -0.2F));
  dsp::cvec out(block.size() / 10);
  for (auto _ : state) {
    dec.process_into(block, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 240000);
}
BENCHMARK(BM_PolyphaseDecimator);

// The stereo decoder's audio decimators: one 0.1 s MPX block, 127 taps,
// 240 kHz -> 48 kHz.
void BM_FirDecimatorFloat(benchmark::State& state) {
  dsp::FirDecimator<float> dec(dsp::fir_design_lowpass(127, 0.45 / 5.0), 5);
  const std::vector<float> block(24000, 0.5F);
  std::vector<float> out(block.size() / 5);
  for (auto _ : state) {
    dec.process_into(block, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 24000);
}
BENCHMARK(BM_FirDecimatorFloat);

// Engine-sized calls, one per filtering stage. Every case writes into a
// caller buffer (process_into), as the engines do.

// A station's x10 upsampler: one 480-sample MPX sub-block to 4,800 RF
// samples.
void BM_EngineUpsampler(benchmark::State& state) {
  dsp::FirInterpolator<dsp::cfloat> interp(
      dsp::fir_design_lowpass(16 * 10 + 1, 0.45 / 10.0), 10);
  const dsp::cvec in(480, dsp::cfloat(0.3F, -0.2F));
  dsp::cvec out(4800);
  for (auto _ : state) {
    interp.process_into(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4800);
}
BENCHMARK(BM_EngineUpsampler);

// A receiver's tuner on one 4,800-sample RF sub-block: channel shift and
// /10 decimation to 480 MPX samples. The mix is in place, so the block is
// rotated again each iteration; its magnitude stays put.
void BM_EngineTuner(benchmark::State& state) {
  rx::Tuner tuner{rx::TunerConfig{}};
  dsp::cvec rf(4800, dsp::cfloat(0.1F, 0.1F));
  dsp::cvec out(480);
  for (auto _ : state) {
    tuner.process_into(rf, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4800);
}
BENCHMARK(BM_EngineTuner);

// The receiver-noise shaper: the tuner's 31 noise-shaping taps over one
// 480-sample MPX sub-block.
void BM_EngineNoiseShaper(benchmark::State& state) {
  dsp::FirFilter<dsp::cfloat> shaper(
      rx::Tuner{rx::TunerConfig{}}.noise_shaping_taps());
  const dsp::cvec in(480, dsp::cfloat(0.3F, -0.2F));
  dsp::cvec out(480);
  for (auto _ : state) {
    shaper.process_into(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 480);
}
BENCHMARK(BM_EngineNoiseShaper);

// One of the stereo decoder's three 127-tap filters over one 480-sample
// chain block of MPX.
void BM_EngineStereoFir(benchmark::State& state) {
  dsp::FirFilter<float> filt(
      dsp::fir_design_bandpass(127, fm::kStereoBandLoHz / fm::kMpxRate,
                               fm::kStereoBandHiHz / fm::kMpxRate));
  const std::vector<float> in(480, 0.5F);
  std::vector<float> out(480);
  for (auto _ : state) {
    filt.process_into(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 480);
}
BENCHMARK(BM_EngineStereoFir);

// One of the stereo decoder's /5 audio decimators: one 480-sample chain
// block of MPX to 96 audio samples through 127 taps.
void BM_EngineStereoDecimator(benchmark::State& state) {
  dsp::FirDecimator<float> dec(dsp::fir_design_lowpass(127, 0.45 / 5.0), 5);
  const std::vector<float> in(480, 0.5F);
  std::vector<float> out(96);
  for (auto _ : state) {
    dec.process_into(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 480);
}
BENCHMARK(BM_EngineStereoDecimator);

// The RDS decoder's 101-tap complex low-pass over one 480-sample sub-block
// of the downconverted 57 kHz subcarrier.
void BM_EngineRdsLowpass(benchmark::State& state) {
  dsp::FirFilter<dsp::cfloat> lp(
      dsp::fir_design_lowpass(101, 2400.0 / fm::kMpxRate));
  const dsp::cvec in(480, dsp::cfloat(0.3F, -0.2F));
  dsp::cvec out(480);
  for (auto _ : state) {
    lp.process_into(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 480);
}
BENCHMARK(BM_EngineRdsLowpass);

// The FSK receiver's tone bank on one 1.6 kbps symbol: 16 tones over the
// 240 samples of a 200 symbol/s symbol at 48 kHz.
void BM_EngineGoertzel16(benchmark::State& state) {
  const tag::FskParams params =
      tag::FskParams::for_rate(tag::DataRate::k1600bps);
  constexpr double kAudioRate = 48000.0;
  dsp::GoertzelBank bank(params.tones_hz, kAudioRate);
  std::vector<float> block(
      static_cast<std::size_t>(kAudioRate / params.symbol_rate));
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<float>(std::sin(0.37 * static_cast<double>(i)));
  }
  for (auto _ : state) {
    auto p = bank.powers(block);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_EngineGoertzel16);

// A tag's SSB subcarrier on one 480-sample baseband sub-block: the x10
// interpolator, the phase accumulator and the vector sincos to 4,800 RF
// samples.
void BM_EngineSubcarrierSsb(benchmark::State& state) {
  tag::SubcarrierConfig cfg;
  cfg.mode = tag::SubcarrierMode::kSingleSideband;
  tag::SubcarrierGenerator gen(cfg);
  std::vector<float> bb(480);
  for (std::size_t i = 0; i < bb.size(); ++i) {
    bb[i] = static_cast<float>(0.8 * std::sin(0.05 * static_cast<double>(i)));
  }
  dsp::cvec out(bb.size() * tag::kSubcarrierUpFactor);
  for (auto _ : state) {
    gen.process_into(bb, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_EngineSubcarrierSsb);

// A station's offset mixer on one 4,800-sample RF sub-block. The mix is in
// place, so the block is rotated again each iteration; its magnitude stays
// put.
void BM_EngineMixer(benchmark::State& state) {
  dsp::Mixer mixer(400000.0, fm::kRfRate);
  dsp::cvec rf(4800, dsp::cfloat(0.1F, 0.1F));
  for (auto _ : state) {
    mixer.process_inplace(rf);
    benchmark::DoNotOptimize(rf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4800);
}
BENCHMARK(BM_EngineMixer);

void BM_FmModulator(benchmark::State& state) {
  fm::FmModulator mod( units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate);
  const auto tone = audio::make_tone(1000.0, 0.8, 0.1, fm::kMpxRate);
  dsp::cvec iq(tone.size());
  for (auto _ : state) {
    mod.process_into(tone.samples, iq);
    benchmark::DoNotOptimize(iq.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tone.size()));
}
BENCHMARK(BM_FmModulator);

// One station's modulator on one 480-sample MPX sub-block.
void BM_EngineFmModulator(benchmark::State& state) {
  fm::FmModulator mod(units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate);
  const auto tone = audio::make_tone(1000.0, 0.8, 0.002, fm::kMpxRate);
  dsp::cvec iq(tone.size());
  for (auto _ : state) {
    mod.process_into(tone.samples, iq);
    benchmark::DoNotOptimize(iq.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tone.size()));
}
BENCHMARK(BM_EngineFmModulator);

void BM_QuadratureDemodulator(benchmark::State& state) {
  fm::FmModulator mod( units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate);
  fm::QuadratureDemodulator demod( units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate);
  const auto tone = audio::make_tone(1000.0, 0.8, 0.1, fm::kMpxRate);
  dsp::cvec iq(tone.size());
  mod.process_into(tone.samples, iq);
  dsp::rvec mpx(iq.size());
  for (auto _ : state) {
    demod.process_into(iq, mpx);
    benchmark::DoNotOptimize(mpx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(iq.size()));
}
BENCHMARK(BM_QuadratureDemodulator);

void BM_SubcarrierGenerator(benchmark::State& state) {
  tag::SubcarrierConfig cfg;
  tag::SubcarrierGenerator gen(cfg);
  const std::vector<float> bb(24000, 0.2F);
  dsp::cvec b(240000);
  for (auto _ : state) {
    gen.process_into(bb, b);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 240000);
}
BENCHMARK(BM_SubcarrierGenerator);

void BM_Tuner(benchmark::State& state) {
  rx::Tuner tuner{rx::TunerConfig{}};
  dsp::cvec rf(240000, dsp::cfloat(0.1F, 0.1F));
  dsp::cvec out(rf.size() / tuner.decimation());
  for (auto _ : state) {
    tuner.process_into(rf, out);  // mixes rf in place; the cost is the same
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 240000);
}
BENCHMARK(BM_Tuner);

// A receiver's noise on one 480-sample MPX sub-block at the 240 kHz tuned
// rate, coloured by the tuner's noise-shaping taps, as
// core::ReceiverDecoder::push adds it: 960 Gaussian draws and the shaper.
void BM_EngineAwgn(benchmark::State& state) {
  channel::AwgnSource src(units::Dbm{-100.0}, units::Hertz{200000.0},
                          fm::kMpxRate, 7,
                          rx::Tuner{rx::TunerConfig{}}.noise_shaping_taps());
  dsp::cvec block(480);
  for (auto _ : state) {
    src.add_to(block);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 480);
}
BENCHMARK(BM_EngineAwgn);

void BM_GoertzelBank16(benchmark::State& state) {
  std::vector<double> tones;
  for (int i = 1; i <= 16; ++i) tones.push_back(800.0 * i);
  dsp::GoertzelBank bank(tones, 48000.0);
  const auto block = audio::make_tone(4800.0, 1.0, 0.0025, 48000.0);
  for (auto _ : state) {
    auto p = bank.powers(block.samples);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_GoertzelBank16);

void BM_ThreadPoolParallelForOverhead(benchmark::State& state) {
  // Dispatch cost of the sweep engine's work distribution (empty tasks).
  core::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_for(256, [](std::size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ThreadPoolParallelForOverhead)->Arg(1)->Arg(4);

void BM_StationCacheHit(benchmark::State& state) {
  // Cost of serving a cached station render vs re-synthesizing it: the
  // shared-render fast path every sweep point takes after the first.
  auto& cache = fm::StationCache::instance();
  cache.clear();
  fm::StationConfig cfg;
  cfg.seed = 424242;
  (void)cache.render(cfg, units::Seconds{0.5});  // warm
  for (auto _ : state) {
    auto signal = cache.render(cfg, units::Seconds{0.5});
    benchmark::DoNotOptimize(signal.get());
  }
  cache.clear();
}
BENCHMARK(BM_StationCacheHit);

void BM_EndToEndSimulationSecond(benchmark::State& state) {
  // Full physical pipeline for one second of signal, station render
  // included — the cache would otherwise serve it after iteration 1.
  fm::StationCache::instance().set_enabled(false);
  core::ExperimentPoint point;
  point.genre = audio::ProgramGenre::kNews;
  const auto tone = audio::make_tone(1000.0, 1.0, 1.0, fm::kAudioRate);
  const core::Scenario sc = core::make_scenario(
      point, tag::compose_overlay_baseband(tone, core::kOverlayLevel),
      units::Seconds{1.0});
  for (auto _ : state) {
    auto r = core::ScenarioEngine().run(sc);
    benchmark::DoNotOptimize(r.receivers[0].capture.mono.samples.data());
  }
  fm::StationCache::instance().set_enabled(true);
}
BENCHMARK(BM_EndToEndSimulationSecond)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fir_kernel_isa",
                              fmbs::dsp::simd::kernel_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
