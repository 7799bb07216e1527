// The shared RF scene renderer of the batch and streaming scenario engines
// (internal to core/). One SceneRenderer turns a resolved ScenarioPlan into
// each receiver's tuned, pre-noise IQ, one 0.1 s block at a time, rendered in
// cache-sized sub-blocks: for each sub-block every needed station's MPX is
// FM-modulated, upsampled to the RF rate and mixed onto its carrier, every
// active tag multiplies its selected station by its switch pattern (with
// motion fading on the tag path), the per-segment link gains superpose the
// result per receiver, and each receiver's tuner decimates its
// superposition straight into its slice of the output block. No RF-rate
// buffer outlives a sub-block. Receiver noise is the receiver's own front
// end: its decoder (core/receiver_decode.h) adds it. ScenarioEngine hands
// each block straight to its receivers' decoders; StreamingEngine publishes
// it into its ring for its consumer threads to decode. The renderer also owns the per-receiver
// routing both engines decode from: which FSK and RDS bursts a receiver can
// hear, and whether its tune lands on a station broadcasting RDS.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "channel/fading.h"
#include "core/scenario.h"
#include "dsp/fir.h"
#include "dsp/nco.h"
#include "dsp/types.h"
#include "fm/constants.h"
#include "fm/modulator.h"
#include "fm/station_cache.h"
#include "rx/tuner.h"
#include "tag/subcarrier.h"

namespace fmbs::core {

/// Render block: 0.1 s at the MPX rate.
inline constexpr std::size_t kBlockMpx = 24000;
inline constexpr double kBlockSeconds =
    static_cast<double>(kBlockMpx) / fm::kMpxRate;

/// Render sub-block: the span every RF-rate stage runs over at a time, small
/// enough that a station's, a tag's and a receiver's RF stay in cache
/// (4,800 RF samples, 38 KB per stream). A block is cut into whole
/// sub-blocks of a multiple of 32 MPX samples, so the fading's 64-sample
/// gain chunks, the subcarrier's 4-lane sincos groups and the tuner's
/// decimation land on the same sample indices as over a whole block: the
/// output does not depend on the size.
inline constexpr std::size_t kSubBlockMpx = 480;
inline constexpr std::size_t kSubBlockRf =
    kSubBlockMpx * static_cast<std::size_t>(fm::kMpxToRfFactor);
static_assert(kBlockMpx % kSubBlockMpx == 0 && kSubBlockMpx % 32 == 0);

/// Capture kept past an RDS burst's nominal end when decoding it out of a
/// receiver's post-demod MPX: covers the front-end group delay, like the
/// FSK router's tail slack.
inline constexpr double kRdsDecodeSlackSeconds = 0.02;

/// An FSK burst a receiver can hear.
struct RoutedFsk {
  std::size_t tag = 0;
  std::size_t seg = 0;  ///< segment owning the burst midpoint
  rx::BurstSpec burst;
};

/// An RDS burst a receiver can hear, decoded over its on-air window only (so
/// the reflected station's continuous RDS outside the burst cannot steal
/// carrier or timing lock).
struct RoutedRds {
  std::size_t tag = 0;
  std::size_t seg = 0;
  double start_seconds = 0.0;
  double window_seconds = 0.0;  ///< burst plus kRdsDecodeSlackSeconds
};

/// Everything one receiver decodes, in link order (FSK, then RDS).
struct ReceiverRoute {
  std::vector<RoutedFsk> fsk;
  std::vector<RoutedRds> rds;
  /// The tune lands on a scene station that broadcasts RDS: decode the PS
  /// name an unmodified RDS radio parked here displays.
  bool station_rds = false;
};

/// The link report of a decoded FSK burst.
TagLinkReport fsk_link_report(const Scenario& sc, const ScenarioPlan& plan,
                              std::size_t receiver, const RoutedFsk& route,
                              const rx::BurstReport& report);

/// The link report of a decoded RDS burst: BLER plays the role FSK BER plays
/// in best-link selection, and goodput counts the 16 information bits of
/// every clean block.
TagLinkReport rds_link_report(const Scenario& sc, const ScenarioPlan& plan,
                              std::size_t receiver, const RoutedRds& route,
                              const rx::RdsLinkReport& report);

/// Fills best_per_tag (lowest BER across receivers; the earlier link wins a
/// tie) and aggregate_goodput_bps from the links in result.receivers.
void assemble_best_links(ScenarioResult& result, std::size_t num_tags);

class SceneRenderer {
 public:
  /// Resolves pruning, pins and renders every needed station, composes each
  /// transmitted burst and routes every receiver. A run longer than
  /// `station_horizon` renders only the horizon per station and cycles its
  /// MPX; without a horizon every station renders exactly over the whole
  /// run. `sc` and `plan` must outlive the renderer.
  SceneRenderer(const Scenario& sc, const ScenarioPlan& plan,
                SceneRendering mode,
                std::optional<units::Seconds> station_horizon);

  std::size_t num_blocks() const { return num_blocks_; }
  /// Rendered MPX-rate samples per receiver: whole blocks.
  std::size_t padded_samples() const { return num_blocks_ * kBlockMpx; }
  bool loop_mode() const { return loop_mode_; }
  const std::vector<ReceiverRoute>& routes() const { return routes_; }

  /// Writes the scene-level fields of `result`: station renders, station
  /// selection per segment, MAC outcomes and the pruning statistics.
  void report(ScenarioResult& result) const;

  /// Taps that color receiver `r`'s noise like its tuner's channel filter
  /// (rx::Tuner::noise_shaping_taps); its decoder draws the noise.
  const std::vector<float>& noise_shaping_taps(std::size_t r) const {
    return tuners_[r].noise_shaping_taps();
  }

  /// Peak bytes of renderer-owned buffering over the run: the sub-block
  /// station IQ and RF, superpositions, tag reflection and staging, compact
  /// burst waveforms and loop-mode horizon MPX. Independent of the run
  /// duration.
  std::size_t buffer_bytes() const;

  /// Renders block `block_index` into out[r] (kBlockMpx tuned, pre-noise IQ
  /// samples per receiver). Blocks must be rendered in order from 0: the
  /// upsamplers, mixers and tuners stream across block boundaries.
  void render_block(std::size_t block_index, std::vector<dsp::cvec>& out);

 private:
  /// Every needed station streams its render's MPX through its own
  /// persistent modulator (paper Eq. 1), so the carrier phase runs straight
  /// across sub-blocks and, in loop mode, across the horizon seam.
  struct StationSource {
    std::shared_ptr<const fm::StationSignal> render;  // null: pruned
    std::optional<fm::FmModulator> mod;
    std::optional<dsp::FirInterpolator<dsp::cfloat>> up;
    std::optional<dsp::Mixer> mixer;
    dsp::cfloat held;  // last emitted IQ sample: an exact render's pad value
    dsp::cvec rf;      // this sub-block at the RF rate, on its carrier
  };

  /// Only the burst's own waveform is kept: outside [wave_begin,
  /// wave_begin + wave.size()) the baseband is zero by construction (the
  /// composers' zero filter state makes the compact waveform bit-equal to
  /// the slice of a padded full-run baseband). Blocks never reach past the
  /// padded run, so a waveform tail beyond it is never read.
  struct TagSource {
    dsp::rvec wave;
    const dsp::rvec* custom = nullptr;  // custom-baseband tags read in place
    std::size_t wave_begin = 0;
    std::size_t active_begin = 0;  // switch-on window, MPX samples
    std::size_t active_end = 0;
    bool active = false;           // switched on during the current block
    std::unique_ptr<tag::SubcarrierGenerator> subcarrier;
    std::unique_ptr<channel::FadingProcess> fading;
    std::size_t fading_segment = static_cast<std::size_t>(-1);
  };

  /// Modulates, upsamples and mixes every needed station's sub-block
  /// starting at MPX sample `at` into its `rf`.
  void render_stations(std::size_t at);
  /// Composes tag `t`'s reflection of the sub-block at `at` into
  /// reflected_: B(t) x incident, faded, zero outside the switch window.
  void compose_reflection(std::size_t t, std::size_t at, std::size_t seg);

  const Scenario& sc_;
  const ScenarioPlan& plan_;
  ScenePruning pruning_;
  bool loop_mode_ = false;
  std::size_t content_len_ = 0;  // MPX samples per station render
  std::size_t num_blocks_ = 0;
  std::size_t blocks_per_segment_ = 0;
  fm::StationCache::SceneScope scope_;
  std::vector<StationSource> stations_;
  std::vector<TagSource> tags_;
  std::vector<rx::Tuner> tuners_;
  std::vector<ReceiverRoute> routes_;
  // Sub-block staging, one sub-block each.
  dsp::cvec iq_;               // one station's modulated IQ
  dsp::rvec tag_bb_;           // tag baseband
  dsp::cvec reflected_;        // one tag's reflection
  std::vector<dsp::cvec> rf_;  // [receiver] superposition, tuned in place
};

}  // namespace fmbs::core
