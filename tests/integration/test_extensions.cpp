// Integration tests for the section-8 extensions and cross-cutting
// properties: FEC-protected links, RDS backscatter, single-sideband tags,
// and end-to-end invariants that hold across configurations.
#include <gtest/gtest.h>

#include "core/fmbs.h"
#include "fm/rds.h"
#include "dsp/spectrum.h"

namespace fmbs {
namespace {

using audio::ProgramGenre;
using core::ExperimentPoint;
using tag::DataRate;
using tag::FecScheme;

/// Capture of the scene's first receiver (the device on the tag's channel).
core::ReceiverCapture capture_of(const core::Scenario& sc) {
  return std::move(core::ScenarioEngine().run(sc).receivers[0].capture);
}

// FEC at a marginal operating point: coding must reduce payload BER
// (the paper's "we can use coding to improve the FM backscatter range").
TEST(Extensions, ConvolutionalCodingExtendsRange) {
  // Raw channel BER must sit in the code's working region (a few percent):
  // the 1.6 kbps cliff at -60 dBm / 14 ft.
  ExperimentPoint point;
  point.tag_power = units::Dbm{-60.0};
  point.distance = units::Feet{14.0};
  point.genre = ProgramGenre::kNews;
  const auto uncoded =
      core::run_overlay_ber(point, DataRate::k1600bps, 512);
  const auto coded = core::run_overlay_ber_coded(point, DataRate::k1600bps,
                                                 512, FecScheme::kConvolutionalK7);
  EXPECT_GT(uncoded.ber, 0.005) << "operating point should be marginal";
  EXPECT_LT(coded.ber, uncoded.ber * 0.5)
      << "uncoded=" << uncoded.ber << " coded=" << coded.ber;
}

TEST(Extensions, CodedLinkCleanAtStrongSignal) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-30.0};
  point.distance = units::Feet{4.0};
  point.genre = ProgramGenre::kNews;
  for (const auto scheme : {FecScheme::kHamming74, FecScheme::kConvolutionalK7}) {
    const auto r =
        core::run_overlay_ber_coded(point, DataRate::k1600bps, 256, scheme);
    EXPECT_EQ(r.bit_errors, 0U) << tag::to_string(scheme);
  }
}

// RDS backscatter: the tag writes its own RDS text into the (otherwise
// empty) 57 kHz subband of the backscatter channel; an RDS-capable receiver
// tuned there decodes the PS name.
TEST(Extensions, RdsBackscatterCarriesStationText) {
  ExperimentPoint point;
  point.genre = ProgramGenre::kNews;
  point.stereo_station = false;
  point.tag_power = units::Dbm{-25.0};
  point.distance = units::Feet{3.0};

  const double duration = 2.5;
  const auto groups = fm::make_ps_groups("POSTER01");
  const auto bits = fm::serialize_groups(groups);
  const auto num_samples =
      static_cast<std::size_t>(duration * fm::kMpxRate);
  const core::ReceiverCapture heard = capture_of(core::make_scenario(
      point, tag::compose_rds_baseband(bits, num_samples, 0.3),
      units::Seconds{duration}));

  const auto rds = fm::decode_rds(heard.fm.mpx, fm::kMpxRate);
  EXPECT_EQ(rds.ps_name, "POSTER01");
}

// The SSB subcarrier (paper footnote 2) must deliver the same audio link as
// the band-limited square wave — it only suppresses the mirror copy.
TEST(Extensions, SingleSidebandEquivalentInChannel) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-30.0};
  point.distance = units::Feet{4.0};
  point.genre = ProgramGenre::kSilence;
  point.stereo_station = false;

  const auto tone = audio::make_tone(1000.0, 1.0, 1.0, fm::kAudioRate);
  const core::Scenario base = core::make_scenario(
      point, tag::compose_overlay_baseband(tone, core::kOverlayLevel),
      units::Seconds{1.0});

  auto snr_for = [&](tag::SubcarrierMode mode) {
    core::Scenario sc = base;
    sc.tags[0].subcarrier.mode = mode;
    const audio::MonoBuffer mono = capture_of(sc).mono;
    const auto skip = static_cast<std::size_t>(0.1 * fm::kAudioRate);
    return dsp::tone_snr_db(
        std::span<const float>(mono.samples).subspan(skip, mono.size() - skip),
        fm::kAudioRate, 1000.0, 100.0, 15000.0);
  };
  const double square = snr_for(tag::SubcarrierMode::kBandlimitedSquare);
  const double ssb = snr_for(tag::SubcarrierMode::kSingleSideband);
  EXPECT_NEAR(square, ssb, 3.0);
}

// Negative f_back: the spectrum planner often picks the empty channel
// *below* the station (e.g. Seattle -200 kHz). The square wave's mirror
// copy serves that channel directly; the receiver tunes down-band.
TEST(Extensions, NegativeShiftBackscatterWorks) {
  ExperimentPoint point;
  point.genre = ProgramGenre::kSilence;
  point.stereo_station = false;
  point.tag_power = units::Dbm{-25.0};
  point.distance = units::Feet{4.0};

  const auto tone = audio::make_tone(1500.0, 1.0, 1.0, fm::kAudioRate);
  core::Scenario sc = core::make_scenario(
      point, tag::compose_overlay_baseband(tone, core::kOverlayLevel),
      units::Seconds{1.0});
  sc.tags[0].subcarrier.shift = units::Hertz{-600000.0};
  sc.receivers[0].tune_offset = sc.tags[0].subcarrier.shift;
  const audio::MonoBuffer mono = capture_of(sc).mono;
  const auto skip = static_cast<std::size_t>(0.1 * fm::kAudioRate);
  const double snr = dsp::tone_snr_db(
      std::span<const float>(mono.samples).subspan(skip, mono.size() - skip),
      fm::kAudioRate, 1500.0, 100.0, 15000.0);
  EXPECT_GT(snr, 25.0) << "down-band backscatter channel not receivable";
}

// Framing over the air: packets survive and CRC rejects corruption — at a
// weak operating point the decoder either returns the exact payload or
// nothing, never silently corrupted bytes.
TEST(Extensions, FrameCrcNeverLies) {
  for (const double power : {-30.0, -55.0, -62.0}) {
    ExperimentPoint point;
    point.tag_power = units::Dbm{power};
    point.distance = units::Feet{14.0};
    point.genre = ProgramGenre::kNews;

    const std::vector<std::uint8_t> payload{'f', 'm', 'b', 's', '!', 0x00, 0xFF};
    const auto bits = tag::encode_frame(payload);
    const auto wave = tag::modulate_fsk(bits, DataRate::k1600bps, fm::kAudioRate);
    const core::ReceiverCapture heard = capture_of(core::make_scenario(
        point, tag::compose_overlay_baseband(wave, core::kOverlayLevel),
        units::Seconds{wave.duration_seconds() + 0.2}));
    const auto demod =
        rx::demodulate_fsk(heard.mono, DataRate::k1600bps, bits.size());
    const auto frame = tag::decode_frame(demod.bits);
    if (frame.has_value()) {
      EXPECT_EQ(*frame, payload) << "CRC accepted corrupted payload @" << power;
    }
  }
}

// Cross-technique invariant: at strong signal every technique delivers its
// content; the stereo path must not leak into mono and vice versa.
TEST(Extensions, StereoAndMonoPathsAreOrthogonal) {
  ExperimentPoint point;
  point.tag_power = units::Dbm{-20.0};
  point.distance = units::Feet{3.0};
  point.genre = ProgramGenre::kSilence;
  point.stereo_station = false;

  // Tag sends a 2 kHz tone in the stereo stream (with pilot).
  const auto tone = audio::make_tone(2000.0, 1.0, 1.2, fm::kAudioRate);
  const core::ReceiverCapture heard = capture_of(core::make_scenario(
      point, tag::compose_stereo_baseband(tone, /*insert_pilot=*/true),
      units::Seconds{1.2}));
  ASSERT_TRUE(heard.fm.stereo_mode);

  const auto side = heard.stereo.side();
  const auto& mono = heard.mono;
  const double p_side = dsp::band_power(side.samples, fm::kAudioRate, 1900.0,
                                        2100.0);
  const double p_mono = dsp::band_power(mono.samples, fm::kAudioRate, 1900.0,
                                        2100.0);
  EXPECT_GT(p_side, 20.0 * p_mono)
      << "stereo-stream content leaked into the mono output";
}

}  // namespace
}  // namespace fmbs
