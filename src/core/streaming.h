// Streaming scenario engine: a producer/consumer pipeline with O(1) memory in
// the run duration. One producer thread drives the shared scene renderer
// (core/scene_render.h) a 0.1 s block at a time into a fixed ring of
// reusable per-receiver pre-noise IQ buffers (dsp::RingBuffer); consumer
// threads push each block through the receivers' shared decode chains
// (core/receiver_decode.h), which add each receiver's noise in place before
// demodulating — so the noise draws run on the consumers, beside the
// demodulation, not on the producer. No full-run capture ever exists. The
// batch ScenarioEngine runs the same renderer and the same decoders
// serially, so this engine adds only the ring, its threads, real-time
// pacing and the buffer ledger.
//
// Equivalence contract: for every committed golden scenario the streaming
// engine's decoded ScenarioResult is byte-identical to ScenarioEngine::run
// (pinned by tests/golden/test_streaming_equivalence.cpp), at any consumer
// thread count. The two engines differ only in the bounds they hand the
// shared code, so two documented divergences exist only on runs longer than
// those bounds, which no golden reaches:
//   * global decisions (stereo pilot detect, the tuned station's whole-run
//     RDS decode) are made from the first `decision_window` of the
//     run instead of all of it;
//   * station program content loops every `station_horizon` once the
//     run outgrows the horizon (the MPX cycles through the same persistent
//     per-station FmModulator every run streams it through, so the IQ stays
//     phase-continuous), so a 10-minute soak run costs the memory of a 2 s
//     MPX render.
#pragma once

#include <cstddef>
#include <functional>

#include "core/scenario.h"

namespace fmbs::core {

/// One decoded-link event, delivered live as its decode window completes
/// mid-stream (the radio-server daemon serves these without waiting for the
/// run to end). Windows truncated by the end of the run are delivered during
/// the final drain.
struct StreamingLinkEvent {
  enum class Kind {
    kFskBurst,    ///< a data tag's FSK payload scored
    kRdsBurst,    ///< a tag's RadioText burst decoded
    kStationRds,  ///< the tuned station's broadcast RDS (link.rds only)
  };
  Kind kind = Kind::kFskBurst;
  std::size_t receiver_index = 0;
  std::size_t tag_index = 0;  ///< meaningless for kStationRds
  /// Simulated stream time (seconds since the start of the render, settle
  /// included) at which the window completed.
  double stream_seconds = 0.0;
  TagLinkReport link;
};

/// Streaming engine options.
struct StreamingConfig {
  /// Demodulation threads; receivers are partitioned round-robin
  /// (r % consumer_threads), so decoded results are bit-identical at any
  /// count — the producer's scene is independent of it and each receiver's
  /// chain stays sequential on one thread.
  std::size_t consumer_threads = 1;
  /// Ring capacity in 0.1 s blocks: how far the producer may run ahead of
  /// the slowest consumer. Memory is ring_blocks * receivers * 192 KB.
  std::size_t ring_blocks = 8;
  /// Station render horizon (finite, > 0). Runs no longer than this use one
  /// exact render per station (bit-identical to the batch engine); longer
  /// runs render the horizon once and cycle its MPX through the station's
  /// modulator.
  units::Seconds station_horizon{2.0};
  /// Bound on the buffered global decisions (stereo pilot detect; the tuned
  /// station's capture-wide RDS window); must be finite. <= 0 buffers the
  /// whole run, exactly like the batch engine — and unbounded memory on long
  /// runs.
  units::Seconds decision_window{4.0};
  /// Demand-driven (kSparse) vs exhaustive (kDense) scene synthesis, exactly
  /// as in ScenarioEngineConfig.
  SceneRendering scene_rendering = SceneRendering::kSparse;
  /// Pace the producer to simulated real time (one 0.1 s block per 0.1 s of
  /// wall clock) — the radio-server daemon mode. Off: render flat out.
  bool real_time = false;
  /// Live decode callback, invoked from consumer threads as windows
  /// complete. May be called concurrently from different consumers (never
  /// for the same receiver); the callee synchronizes its own state.
  std::function<void(const StreamingLinkEvent&)> on_link;
};

/// Runs scenarios through the streaming pipeline. Stateless between runs.
/// The returned ScenarioResult matches ScenarioEngine::run field for field,
/// except receiver captures are never kept (the whole point is that they
/// never exist) and scene.streaming_peak_buffer_bytes reports the bounded
/// buffering that replaced them.
class StreamingEngine {
 public:
  /// Throws std::invalid_argument on zero consumer threads or ring blocks, a
  /// non-positive horizon, or a non-finite horizon or decision window.
  explicit StreamingEngine(StreamingConfig config = {});

  /// Renders, streams and decodes one scenario. Throws
  /// std::invalid_argument on inconsistent scenarios (same validation as the
  /// batch engine) and propagates any worker-thread failure after shutting
  /// the pipeline down cleanly.
  ScenarioResult run(const Scenario& scenario) const;

 private:
  StreamingConfig config_;
};

}  // namespace fmbs::core
