// The shared RF scene renderer of the batch and streaming scenario engines
// (internal to core/). One SceneRenderer turns a resolved ScenarioPlan into
// each receiver's tuned, noised IQ, one 0.1 s block at a time: every needed
// station is upsampled to the RF rate and mixed onto its carrier, every
// active tag multiplies its selected station by its switch pattern (with
// motion fading on the tag path), the per-segment link gains superpose the
// result per receiver, and each receiver's tuner and tuned-rate noise finish
// the block. ScenarioEngine hands each block straight to its receivers'
// decoders (core/receiver_decode.h); StreamingEngine publishes it into its
// ring for its consumer threads to decode. The renderer also owns the
// per-receiver routing both engines decode from: which FSK and RDS bursts a
// receiver can hear, and whether its tune lands on a station broadcasting
// RDS.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "channel/awgn.h"
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

/// Render block: 0.1 s at the MPX rate, and the same span at the RF rate.
inline constexpr std::size_t kBlockMpx = 24000;
inline constexpr double kBlockSeconds =
    static_cast<double>(kBlockMpx) / fm::kMpxRate;
inline constexpr std::size_t kBlockRf =
    kBlockMpx * static_cast<std::size_t>(fm::kMpxToRfFactor);

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
  /// `station_horizon` renders only the horizon per station and loops its
  /// MPX through a persistent modulator; without a horizon every station
  /// renders exactly over the whole run. `sc` and `plan` must outlive the
  /// renderer.
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

  /// Peak bytes of renderer-owned buffering over the run: RF compose and
  /// per-station blocks, tag staging, compact burst waveforms, the reflected
  /// blocks of simultaneously active tags, loop-mode horizon buffers and the
  /// partial-block scratch. Independent of the run duration.
  std::size_t buffer_bytes() const;

  /// Renders block `block_index` into out[r] (kBlockMpx tuned, noised IQ
  /// samples per receiver). Blocks must be rendered in order from 0: the
  /// upsamplers, mixers, tuners and noise stream across block boundaries.
  void render_block(std::size_t block_index, std::vector<dsp::cvec>& out);

 private:
  /// Exact mode streams blocks straight out of the cached full-run render;
  /// loop mode cycles a horizon render's MPX through a persistent
  /// modulator, keeping the carrier phase continuous across the seam.
  struct StationSource {
    std::shared_ptr<const fm::StationSignal> render;  // null: pruned
    std::optional<dsp::FirInterpolator<dsp::cfloat>> up;
    std::optional<dsp::Mixer> mixer;
    std::optional<fm::FmModulator> loop_mod;
    std::size_t loop_pos = 0;  // next MPX sample of the cycled horizon
    dsp::cvec loop_iq;         // per-block re-modulated IQ (loop mode)
    dsp::cvec rf;              // this block at the RF rate, on its carrier
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
    dsp::cvec reflected;  // this block's reflection; freed when inactive
  };

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
  std::vector<channel::AwgnSource> noise_;
  std::vector<ReceiverRoute> routes_;
  dsp::cvec scratch_;  // staged partial final block
  dsp::rvec tag_bb_;   // one block of tag baseband
  dsp::rvec loop_mpx_;
  dsp::cvec rf_;
};

}  // namespace fmbs::core
