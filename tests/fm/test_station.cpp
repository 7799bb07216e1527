#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "dsp/spectrum.h"
#include "fm/demodulator.h"
#include "fm/modulator.h"
#include "fm/rds.h"
#include "fm/stereo_decoder.h"
#include "fm/transmitter.h"

namespace fmbs::fm {
namespace {

/// The station's carrier: its MPX through paper Eq. 1.
dsp::cvec modulate(const StationConfig& cfg, const StationSignal& sig) {
  FmModulator mod(cfg.deviation, kMpxRate);
  return mod.process(sig.mpx);
}

/// The receiver front end: discriminator at the MPX rate.
dsp::rvec discriminate(const dsp::cvec& iq) {
  QuadratureDemodulator demod(units::Hertz{kMaxDeviationHz}, kMpxRate);
  return demod.process(iq);
}

TEST(Station, RendersConsistentLengths) {
  StationConfig cfg;
  cfg.program.genre = audio::ProgramGenre::kNews;
  const StationSignal sig = render_station(cfg, units::Seconds{1.0});
  EXPECT_EQ(sig.mpx.size(), static_cast<std::size_t>(kMpxRate));
  EXPECT_EQ(sig.program.size(), static_cast<std::size_t>(kAudioRate));
}

TEST(Station, UnitEnvelope) {
  StationConfig cfg;
  cfg.program.genre = audio::ProgramGenre::kPop;
  const dsp::cvec iq = modulate(cfg, render_station(cfg, units::Seconds{0.3}));
  for (std::size_t i = 0; i < iq.size(); i += 101) {
    EXPECT_NEAR(std::abs(iq[i]), 1.0F, 1e-4F);
  }
}

TEST(Station, DeterministicPerSeed) {
  StationConfig cfg;
  cfg.program.genre = audio::ProgramGenre::kRock;
  cfg.seed = 77;
  const StationSignal a = render_station(cfg, units::Seconds{0.2});
  const StationSignal b = render_station(cfg, units::Seconds{0.2});
  ASSERT_EQ(a.mpx.size(), b.mpx.size());
  for (std::size_t i = 0; i < a.mpx.size(); i += 37) {
    EXPECT_EQ(a.mpx[i], b.mpx[i]);
  }
}

TEST(Station, Validation) {
  StationConfig cfg;
  EXPECT_THROW(render_station(cfg, units::Seconds{0.0}), std::invalid_argument);
  EXPECT_THROW(render_station(cfg, units::Seconds{-1.0}), std::invalid_argument);
}

// A NaN or infinite duration is rejected before any sample count is derived
// from it. bit_cast sidesteps the units.h finiteness assert of Debug builds,
// so the check under test is the function's own.
TEST(Station, RejectsNonFiniteDurations) {
  StationConfig cfg;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_THROW(render_station(cfg, std::bit_cast<units::Seconds>(v)),
                 std::invalid_argument)
        << "duration = " << v;
    EXPECT_THROW(audio::render_program(cfg.program, v, kAudioRate, cfg.seed),
                 std::invalid_argument)
        << "duration = " << v;
  }
}

TEST(StationToReceiver, FullLoopbackRecoversProgram) {
  // Station IQ straight into the receiver: decoded audio must match the
  // program (the transmit chain and receive chain are inverses).
  StationConfig cfg;
  cfg.program.genre = audio::ProgramGenre::kNews;
  cfg.program.stereo = true;
  cfg.seed = 5;
  const StationSignal sig = render_station(cfg, units::Seconds{2.0});

  const StereoDecodeResult out =
      decode_stereo(discriminate(modulate(cfg, sig)), StereoDecoderConfig{});
  EXPECT_TRUE(out.pilot_detected);

  // Compare decoded mono with program mid via correlation-insensitive power
  // matching in the speech band.
  const auto mono = out.audio.mid();
  const double p_out = dsp::band_power(mono.samples, kAudioRate, 200.0, 4000.0);
  const double p_in =
      dsp::band_power(sig.program.mid().samples, kAudioRate, 200.0, 4000.0);
  EXPECT_NEAR(p_out / p_in, 1.0, 0.25);
}

TEST(StationToReceiver, RdsRidesAlong) {
  StationConfig cfg;
  cfg.program.genre = audio::ProgramGenre::kNews;
  cfg.rds_level = 0.08;
  cfg.rds_ps_name = "KKFM 923";
  const StationSignal sig = render_station(cfg, units::Seconds{2.5});
  const auto rds = decode_rds(discriminate(modulate(cfg, sig)), kMpxRate);
  EXPECT_EQ(rds.ps_name, "KKFM 923");
}

TEST(Receiver, EmptyInputThrows) {
  EXPECT_THROW(decode_stereo({}, StereoDecoderConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fmbs::fm
