// The stage contract, as one property over every DSP stage in src/: a stage
// has one block method, and feeding a stream through it in calls of any
// size gives the same bytes as one whole call. Each stage runs over random
// cuts (empty and one-granule calls included) and over fixed cut patterns,
// and the concatenated output is compared byte for byte with a fresh
// stage's single call. A stage with a granule takes calls in multiples of
// it: a decimator's factor, or two baseband samples for the subcarrier
// generator (20 RF samples: whole vector-sincos groups of four).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/units.h"
#include "dsp/agc.h"
#include "dsp/fir.h"
#include "dsp/iir.h"
#include "dsp/nco.h"
#include "dsp/types.h"
#include "fm/demodulator.h"
#include "fm/emphasis.h"
#include "fm/modulator.h"
#include "rx/device_stream.h"
#include "rx/phone_chain.h"
#include "rx/tuner.h"
#include "support/run_stage.h"
#include "tag/subcarrier.h"

namespace fmbs {
namespace {

template <typename Stage, typename In>
struct StageCase {
  std::string name;
  std::function<Stage()> make;
  std::vector<In> input;  // a whole number of granules
  std::size_t granule = 1;
  /// Fixed call sizes in samples, cycled to the end of the input.
  std::vector<std::vector<std::size_t>> cuts;
};

std::vector<float> uniform_floats(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> u(-1.0F, 1.0F);
  std::vector<float> x(n);
  for (float& v : x) v = u(rng);
  return x;
}

dsp::cvec uniform_complex(std::size_t n, unsigned seed) {
  const std::vector<float> re = uniform_floats(n, seed);
  const std::vector<float> im = uniform_floats(n, seed + 1);
  dsp::cvec x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = dsp::cfloat(re[i], im[i]);
  return x;
}

/// A unit-modulus FM signal, the discriminator's kind of input.
dsp::cvec fm_iq(std::size_t n) {
  dsp::cvec x(n);
  double phase = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    phase += 0.3 * std::sin(0.002 * static_cast<double>(i)) + 0.05;
    x[i] = dsp::cfloat(static_cast<float>(std::cos(phase)),
                       static_cast<float>(std::sin(phase)));
  }
  return x;
}

/// Runs `input` through the stage in calls of the given sizes (cycled; the
/// last call takes what is left) and concatenates the outputs.
template <typename Stage, typename In>
auto run_cut(Stage stage, const std::vector<In>& input,
             const std::vector<std::size_t>& sizes) {
  decltype(test::run_stage(stage, input)) out;
  std::size_t next = 0;
  for (std::size_t at = 0; at < input.size();) {
    const std::size_t len =
        std::min(sizes[next++ % sizes.size()], input.size() - at);
    const auto part =
        test::run_stage(stage, std::span<const In>(input).subspan(at, len));
    out.insert(out.end(), part.begin(), part.end());
    at += len;
  }
  return out;
}

/// Random call sizes covering the input: empty calls, one-granule calls,
/// a few granules and large slices.
std::vector<std::size_t> random_cuts(std::size_t granules, std::size_t granule,
                                     unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<std::size_t> sizes;
  std::size_t covered = 0;
  while (covered < granules) {
    std::size_t g = 0;
    const int k = kind(rng);
    if (k < 2) {
      g = 0;
    } else if (k < 4) {
      g = 1;
    } else if (k < 8) {
      g = std::uniform_int_distribution<std::size_t>(2, 8)(rng);
    } else {
      g = std::uniform_int_distribution<std::size_t>(
          1, std::max<std::size_t>(granules / 3, 1))(rng);
    }
    sizes.push_back(g * granule);
    covered += g;
  }
  return sizes;
}

// ---- The stages -------------------------------------------------------------

struct FirFilterFloat {
  static constexpr const char* kName = "FirFilterFloat";
  using Stage = dsp::FirFilter<float>;
  static std::vector<StageCase<Stage, float>> cases() {
    return {
        // FirFilter.BlockBoundariesSeamless's filter, input and cut.
        {"lowpass31", [] { return Stage(dsp::fir_design_lowpass(31, 0.2)); },
         uniform_floats(300, 7), 1, {{37}}},
        // The stereo decoder's subband filter.
        {"bandpass127",
         [] { return Stage(dsp::fir_design_bandpass(127, 0.1, 0.2)); },
         uniform_floats(2000, 11), 1, {{480}}},
    };
  }
};

struct FirFilterComplex {
  static constexpr const char* kName = "FirFilterComplex";
  using Stage = dsp::FirFilter<dsp::cfloat>;
  static std::vector<StageCase<Stage, dsp::cfloat>> cases() {
    return {{"rds_lowpass101",
             [] { return Stage(dsp::fir_design_lowpass(101, 0.01)); },
             uniform_complex(1500, 12), 1, {{480}}}};
  }
};

struct FirDecimatorFloat {
  static constexpr const char* kName = "FirDecimatorFloat";
  using Stage = dsp::FirDecimator<float>;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"audio_by5",
             [] { return Stage(dsp::fir_design_lowpass(127, 0.09), 5); },
             uniform_floats(2400, 13), 5, {{480}, {485, 5}}}};
  }
};

struct FirDecimatorComplex {
  static constexpr const char* kName = "FirDecimatorComplex";
  using Stage = dsp::FirDecimator<dsp::cfloat>;
  static std::vector<StageCase<Stage, dsp::cfloat>> cases() {
    return {{"channel_by10",
             [] { return Stage(dsp::fir_design_lowpass(161, 0.04), 10); },
             uniform_complex(4800, 14), 10, {{4800}, {10, 470}}}};
  }
};

struct FirInterpolatorFloat {
  static constexpr const char* kName = "FirInterpolatorFloat";
  using Stage = dsp::FirInterpolator<float>;
  static std::vector<StageCase<Stage, float>> cases() {
    return {
        // FirInterpolator.StreamingMatchesOneShot's filter, input and cut.
        {"by3",
         [] { return Stage(dsp::fir_design_lowpass(8 * 3 + 1, 0.4 / 3), 3); },
         uniform_floats(120, 9), 1, {{17}}},
        {"by10",
         [] { return Stage(dsp::fir_design_lowpass(161, 0.045), 10); },
         uniform_floats(960, 15), 1, {{480}}},
    };
  }
};

struct BiquadStage {
  static constexpr const char* kName = "Biquad";
  using Stage = dsp::Biquad;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"pilot_bandpass",
             [] { return Stage(dsp::biquad_bandpass(19000.0 / 240000.0, 40.0)); },
             uniform_floats(2000, 16), 1, {{480}}}};
  }
};

struct BiquadCascadeStage {
  static constexpr const char* kName = "BiquadCascade";
  using Stage = dsp::BiquadCascade;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"butterworth",
             [] { return Stage(rx::butterworth_lowpass(0.2)); },
             uniform_floats(2000, 17), 1, {{96}}}};
  }
};

struct OnePoleStage {
  static constexpr const char* kName = "OnePoleLowpass";
  using Stage = dsp::OnePoleLowpass;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"envelope",
             [] { return dsp::OnePoleLowpass::from_corner(200.0, 240000.0); },
             uniform_floats(2000, 18), 1, {{480}}}};
  }
};

struct AgcStage {
  static constexpr const char* kName = "Agc";
  using Stage = dsp::Agc;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"phone", [] { return Stage(dsp::Agc::Config{}, 48000.0); },
             uniform_floats(4800, 19), 1, {{96}}}};
  }
};

struct DeEmphasisStage {
  static constexpr const char* kName = "DeEmphasis";
  using Stage = fm::DeEmphasis;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"75us", [] { return Stage(units::Seconds{75e-6}, 48000.0); },
             uniform_floats(2000, 20), 1, {{96}}}};
  }
};

struct PreEmphasisStage {
  static constexpr const char* kName = "PreEmphasis";
  using Stage = fm::PreEmphasis;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"75us", [] { return Stage(units::Seconds{75e-6}, 48000.0); },
             uniform_floats(2000, 21), 1, {{96}}}};
  }
};

struct MixerStage {
  static constexpr const char* kName = "Mixer";
  using Stage = dsp::Mixer;
  static std::vector<StageCase<Stage, dsp::cfloat>> cases() {
    // Mixer.PhaseContinuousAcrossBlocks's configurations, input and cuts.
    // At zero initial phase both frequencies put the rotator exactly on an
    // axis at some samples; a real input passes its near-zero component
    // (rounding residue, representable in float) straight to the output,
    // where any change in the arithmetic path shows. Reseeds and span steps
    // sit on the absolute sample index, so the cut must not matter.
    dsp::cvec x(60000);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = dsp::cfloat(1.0F + 0.5F * std::cos(0.001F * static_cast<float>(i)),
                         0.0F);
    }
    const std::vector<std::vector<std::size_t>> cuts = {
        {41}, {1, 7, 1000, 2400, 24000}, {24000, 2400, 1000, 7, 1}};
    return {
        {"audio_rate", [] { return Stage(1234.0, 48000.0, 0.0); }, x, 1, cuts},
        {"rf_rate", [] { return Stage(-400000.0, 2400000.0, 0.0); }, x, 1,
         cuts},
        {"rf_rate_phase1", [] { return Stage(-400000.0, 2400000.0, 1.0); }, x,
         1, cuts},
    };
  }
};

struct DemodulatorStage {
  static constexpr const char* kName = "QuadratureDemodulator";
  using Stage = fm::QuadratureDemodulator;
  static std::vector<StageCase<Stage, dsp::cfloat>> cases() {
    return {{"mpx_rate",
             [] { return Stage(units::Hertz{75000.0}, 240000.0); },
             fm_iq(4800), 1, {{480}}}};
  }
};

struct ModulatorStage {
  static constexpr const char* kName = "FmModulator";
  using Stage = fm::FmModulator;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"mpx_rate", [] { return Stage(units::Hertz{75000.0}, 240000.0); },
             uniform_floats(4800, 22), 1, {{480}}}};
  }
};

struct SubcarrierStage {
  static constexpr const char* kName = "SubcarrierGenerator";
  using Stage = tag::SubcarrierGenerator;
  static std::vector<StageCase<Stage, float>> cases() {
    // Subcarrier.ProcessIntoSubBlocksIsBitIdentical's modes, input and cut.
    std::vector<float> baseband(4800);
    for (std::size_t i = 0; i < baseband.size(); ++i) {
      baseband[i] = 0.8F * std::sin(0.01F * static_cast<float>(i));
    }
    std::vector<StageCase<Stage, float>> out;
    for (const auto& [name, mode] :
         {std::pair{"bandlimited", tag::SubcarrierMode::kBandlimitedSquare},
          std::pair{"ssb", tag::SubcarrierMode::kSingleSideband},
          std::pair{"hard", tag::SubcarrierMode::kHardSquare}}) {
      tag::SubcarrierConfig cfg;
      cfg.mode = mode;
      out.push_back({name, [cfg] { return Stage(cfg); }, baseband, 2, {{480}}});
    }
    return out;
  }
};

struct TunerStage {
  static constexpr const char* kName = "Tuner";
  using Stage = rx::Tuner;
  static std::vector<StageCase<Stage, dsp::cfloat>> cases() {
    // Tuner.ProcessIntoSubBlocksIsBitIdentical's channels, input and cut:
    // a shifted channel and one already at DC.
    dsp::cvec rf(48000);
    const double rate = rx::TunerConfig{}.rf_rate;
    dsp::Oscillator a(590000.0, rate);
    dsp::Oscillator b(-230000.0, rate);
    for (dsp::cfloat& v : rf) v = a.next_complex() + 0.3F * b.next_complex();
    std::vector<StageCase<Stage, dsp::cfloat>> out;
    for (const double offset_hz : {600000.0, 0.0}) {
      rx::TunerConfig cfg;
      cfg.offset_hz = offset_hz;
      out.push_back({offset_hz == 0.0 ? "at_dc" : "shifted",
                     [cfg] { return Stage(cfg); }, rf, 10, {{4800}}});
    }
    return out;
  }
};

struct PhoneChainStage {
  static constexpr const char* kName = "PhoneChainStream";
  using Stage = rx::PhoneChainStream;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"phone", [] { return Stage(rx::PhoneChainConfig{}, 48000.0); },
             uniform_floats(4800, 23), 1, {{96}}}};
  }
};

struct CabinStage {
  static constexpr const char* kName = "CabinAcousticsStream";
  using Stage = rx::CabinAcousticsStream;
  static std::vector<StageCase<Stage, float>> cases() {
    return {{"car", [] { return Stage(rx::CabinConfig{}, 48000.0); },
             uniform_floats(4800, 24), 1, {{96}}}};
  }
};

// ---- The property -----------------------------------------------------------

template <typename T>
class StageCuts : public ::testing::Test {};

using Stages =
    ::testing::Types<FirFilterFloat, FirFilterComplex, FirDecimatorFloat,
                     FirDecimatorComplex, FirInterpolatorFloat, BiquadStage,
                     BiquadCascadeStage, OnePoleStage, AgcStage,
                     DeEmphasisStage, PreEmphasisStage, MixerStage,
                     DemodulatorStage, ModulatorStage, SubcarrierStage,
                     TunerStage, PhoneChainStage, CabinStage>;

struct StageNames {
  template <typename T>
  static std::string GetName(int /*index*/) {
    return T::kName;
  }
};

TYPED_TEST_SUITE(StageCuts, Stages, StageNames);

TYPED_TEST(StageCuts, AnyCutMatchesOneCall) {
  for (const auto& c : TypeParam::cases()) {
    ASSERT_EQ(c.input.size() % c.granule, 0U) << c.name;
    auto whole = c.make();
    const auto ref = test::run_stage(whole, c.input);
    ASSERT_FALSE(ref.empty()) << c.name;

    std::vector<std::vector<std::size_t>> patterns = c.cuts;
    patterns.push_back({0, c.granule});  // empty and one-granule calls only
    for (unsigned seed = 0; seed < 8; ++seed) {
      patterns.push_back(
          random_cuts(c.input.size() / c.granule, c.granule, seed));
    }
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      for (const std::size_t size : patterns[p]) {
        ASSERT_EQ(size % c.granule, 0U) << c.name << " pattern " << p;
      }
      const auto got = run_cut(c.make(), c.input, patterns[p]);
      ASSERT_EQ(got.size(), ref.size()) << c.name << " pattern " << p;
      EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                            ref.size() * sizeof(ref[0])),
                0)
          << c.name << " pattern " << p << " (first call "
          << patterns[p][0] << " samples)";
    }
  }
}

}  // namespace
}  // namespace fmbs
