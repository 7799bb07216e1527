// Ablations over the design choices DESIGN.md calls out, plus the paper's
// section-8 extensions:
//  1. subcarrier waveform: band-limited square vs hard square vs SSB,
//  2. DCO quantization bits,
//  3. symbol-rate limit (why the paper stops at 400 sym/s),
//  4. program genre sensitivity of overlay data,
//  5. Aloha MAC for multiple tags (section 8),
//  6. harvesting-driven duty cycling (section 8).
// Every ablation axis is one SweepRunner task list; independent points run
// across the worker pool.
#include <cstdio>
#include <iostream>

#include "audio/tone.h"
#include "core/aloha.h"
#include "core/harvesting.h"
#include "core/scenario.h"
#include "core/sweep_runner.h"
#include "dsp/spectrum.h"
#include "rx/fsk_demod.h"
#include "tag/baseband.h"

using namespace fmbs;

namespace {

double tone_snr_for_subcarrier(const tag::SubcarrierConfig& subcarrier) {
  core::ExperimentPoint point;
  point.tag_power = units::Dbm{-30.0};
  point.distance = units::Feet{4.0};
  point.genre = audio::ProgramGenre::kSilence;
  point.stereo_station = false;
  const auto tone = audio::make_tone(1000.0, 1.0, 1.0, fm::kAudioRate);
  core::Scenario sc = core::make_scenario(
      point, tag::compose_overlay_baseband(tone, core::kOverlayLevel),
      units::Seconds{1.0});
  sc.tags[0].subcarrier = subcarrier;
  sc.receivers[0].tune_offset = subcarrier.shift;
  const core::ScenarioResult r = core::ScenarioEngine().run(sc);
  const audio::MonoBuffer& mono = r.receivers[0].capture.mono;
  const auto skip = static_cast<std::size_t>(0.1 * fm::kAudioRate);
  return dsp::tone_snr_db(
      std::span<const float>(mono.samples).subspan(skip, mono.size() - skip),
      fm::kAudioRate, 1000.0, 100.0, 15000.0);
}

}  // namespace

int main() {
  core::SweepRunner runner;

  std::puts("=== Ablation 1: subcarrier waveform model ===");
  {
    struct Mode {
      const char* label;
      tag::SubcarrierMode mode;
    };
    const std::vector<Mode> modes{
        {"band-limited square", tag::SubcarrierMode::kBandlimitedSquare},
        {"hard square (aliasing)", tag::SubcarrierMode::kHardSquare},
        {"single sideband", tag::SubcarrierMode::kSingleSideband},
    };
    const auto snrs = runner.map(modes, [](const Mode& m) {
      tag::SubcarrierConfig sc;
      sc.mode = m.mode;
      return tone_snr_for_subcarrier(sc);
    });
    std::printf("%-28s %12s\n", "waveform", "SNR (dB)");
    for (std::size_t i = 0; i < modes.size(); ++i) {
      std::printf("%-28s %12.1f%s\n", modes[i].label, snrs[i],
                  i == 2 ? "  (footnote 2: SSB removes the mirror copy)" : "");
    }
  }

  std::puts("\n=== Ablation 2: DCO frequency-quantization bits ===");
  {
    const std::vector<int> dco_bits{2, 4, 6, 8, 0};
    const auto snrs = runner.map(dco_bits, [](const int& bits) {
      tag::SubcarrierConfig sc;
      sc.dco_bits = bits;
      return tone_snr_for_subcarrier(sc);
    });
    std::printf("%-12s %12s\n", "bits", "SNR (dB)");
    for (std::size_t i = 0; i < dco_bits.size(); ++i) {
      std::printf("%-12s %12.1f\n",
                  dco_bits[i] == 0 ? "ideal" : std::to_string(dco_bits[i]).c_str(),
                  snrs[i]);
    }
    std::puts("(the paper's 8-bit capacitor bank is effectively ideal)");
  }

  std::puts("\n=== Ablation 3: symbol-rate limit of FDM-4FSK ===");
  std::puts("BER at -58 dBm / 16 ft vs symbol rate (paper: \"BER performance");
  std::puts("degrades significantly when the symbol rates are above 400\"):");
  {
    const std::vector<std::pair<tag::DataRate, double>> plans{
        {tag::DataRate::k1600bps, 200.0}, {tag::DataRate::k3200bps, 400.0}};
    const auto bers =
        runner.map(plans, [](const std::pair<tag::DataRate, double>& plan) {
          core::ExperimentPoint point;
          point.tag_power = units::Dbm{-58.0};
          point.distance = units::Feet{16.0};
          point.genre = audio::ProgramGenre::kNews;
          return core::run_overlay_ber(point, plan.first, 640).ber;
        });
    std::printf("%-16s %10s %10s\n", "symbols/s", "kbps", "BER");
    for (std::size_t i = 0; i < plans.size(); ++i) {
      std::printf("%-16.0f %10.1f %10.4f\n", plans[i].second,
                  tag::bits_per_second(plans[i].first) / 1000.0, bers[i]);
    }
    std::puts("(800 sym/s would need 60 Hz tone spacing discrimination within");
    std::puts(" 1.25 ms symbols — below the Goertzel resolution at 48 kHz,");
    std::puts(" matching the paper's observed cliff)");
  }

  std::puts("\n=== Ablation 4: program genre vs overlay data (1.6 kbps, -58 dBm, 16 ft) ===");
  {
    const std::vector<audio::ProgramGenre> genres{
        audio::ProgramGenre::kNews, audio::ProgramGenre::kMixed,
        audio::ProgramGenre::kPop, audio::ProgramGenre::kRock};
    const auto bers = runner.map(genres, [](const audio::ProgramGenre& genre) {
      core::ExperimentPoint point;
      point.tag_power = units::Dbm{-58.0};
      point.distance = units::Feet{16.0};
      point.genre = genre;
      return core::run_overlay_ber(point, tag::DataRate::k1600bps, 480).ber;
    });
    std::printf("%-12s %10s\n", "genre", "BER");
    for (std::size_t i = 0; i < genres.size(); ++i) {
      std::printf("%-12s %10.4f\n", audio::to_string(genres[i]).c_str(), bers[i]);
    }
  }

  std::puts("\n=== Ablation 5: broadcast emphasis mismatch ===");
  std::puts("Real stations pre-emphasize (+13 dB @ 10 kHz) and receivers");
  std::puts("de-emphasize; the tag cannot pre-emphasize its reflection, so");
  std::puts("its high data tones arrive attenuated relative to the program —");
  std::puts("one reason the paper's measured BERs exceed a clean channel's:");
  {
    const std::vector<bool> emphasis_options{false, true};
    const auto bers = runner.map(emphasis_options, [](const bool& emphasis) {
      core::ExperimentPoint point;
      point.tag_power = units::Dbm{-58.0};
      point.distance = units::Feet{16.0};
      point.genre = audio::ProgramGenre::kMixed;
      const auto bits = tag::random_bits(480, 5);
      const auto wave = tag::modulate_fsk(bits, tag::DataRate::k1600bps,
                                          fm::kAudioRate);
      core::Scenario sc = core::make_scenario(
          point, tag::compose_overlay_baseband(wave, core::kOverlayLevel),
          units::Seconds{wave.duration_seconds() + 0.15});
      sc.station.preemphasis = emphasis;
      sc.receivers[0].stereo_decoder.deemphasis = emphasis;
      const core::ScenarioResult r = core::ScenarioEngine().run(sc);
      const auto demod = rx::demodulate_fsk(r.receivers[0].capture.mono,
                                            tag::DataRate::k1600bps, bits.size());
      return rx::compare_bits(bits, demod.bits).ber;
    });
    std::printf("%-26s %10s\n", "chain", "BER @1.6k");
    for (std::size_t i = 0; i < emphasis_options.size(); ++i) {
      std::printf("%-26s %10.4f\n",
                  emphasis_options[i] ? "75us emphasis (realistic)"
                                      : "flat (default)",
                  bers[i]);
    }
  }

  std::puts("\n=== Section 8: coding extends range ===");
  std::puts("Payload BER at the 1.6 kbps cliff (-60 dBm / 14 ft); coded");
  std::puts("schemes spend channel bits to push the usable range outward:");
  {
    const std::vector<tag::FecScheme> schemes{
        tag::FecScheme::kNone, tag::FecScheme::kHamming74,
        tag::FecScheme::kConvolutionalK7};
    const auto bers = runner.map(schemes, [](const tag::FecScheme& scheme) {
      core::ExperimentPoint point;
      point.tag_power = units::Dbm{-60.0};
      point.distance = units::Feet{14.0};
      point.genre = audio::ProgramGenre::kNews;
      return core::run_overlay_ber_coded(point, tag::DataRate::k1600bps, 512,
                                         scheme).ber;
    });
    std::printf("%-18s %8s %12s\n", "scheme", "rate", "payload BER");
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      std::printf("%-18s %8.2f %12.4f\n", tag::to_string(schemes[i]),
                  tag::fec_rate(schemes[i]), bers[i]);
    }
  }

  std::puts("\n=== Section 8: Aloha MAC for multiple tags ===");
  {
    const std::vector<std::pair<int, int>> populations{
        {5, 1}, {20, 1}, {20, 4}, {40, 8}};
    const auto results =
        runner.map(populations, [](const std::pair<int, int>& pop) {
          core::AlohaConfig cfg;
          cfg.num_tags = static_cast<std::size_t>(pop.first);
          cfg.num_channels = static_cast<std::size_t>(pop.second);
          cfg.per_tag_rate = units::Hertz{0.05};
          cfg.duration = units::Seconds{20000.0};
          return core::simulate_aloha(cfg);
        });
    std::printf("%-10s %12s %12s %14s\n", "tags", "channels", "throughput",
                "P(success)");
    for (std::size_t i = 0; i < populations.size(); ++i) {
      std::printf("%-10d %12d %12.3f %14.3f\n", populations[i].first,
                  populations[i].second, results[i].throughput,
                  results[i].success_probability);
    }
  }

  std::puts("\n=== Section 8: harvesting-driven duty cycle ===");
  std::printf("%-34s %12s %12s\n", "source", "duty cycle", "eff. bps@3.2k");
  {
    core::HarvestConfig rf;
    rf.rf_power = units::Dbm{-20.0};
    core::HarvestConfig sun;
    sun.rf_power = units::Dbm{-40.0};
    sun.solar_area_cm2 = 4.0;
    sun.solar_irradiance_uw_per_cm2 = 10000.0;  // direct sun
    const auto results = runner.map(
        std::vector<core::HarvestConfig>{rf, sun},
        [](const core::HarvestConfig& cfg) {
          return core::sustainable_duty_cycle(cfg);
        });
    std::printf("%-34s %12.3f %12.0f\n", "RF harvest @ -20 dBm",
                results[0].sustainable_duty_cycle, results[0].effective_bps_3200);
    std::printf("%-34s %12.3f %12.0f\n", "4 cm^2 solar, outdoors",
                results[1].sustainable_duty_cycle, results[1].effective_bps_3200);
  }
  return 0;
}
