#include "core/streaming.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/receiver_decode.h"
#include "core/scene_render.h"
#include "dsp/ring_buffer.h"

namespace fmbs::core {

namespace {

/// One published ring slot: the tuned, pre-noise IQ of every receiver for
/// one 0.1 s block. The producer refills the same vectors in place, and each
/// receiver's consumer adds its noise to its vector in place, so the steady
/// state allocates nothing.
struct StreamBlock {
  std::size_t index = 0;
  std::vector<dsp::cvec> iq;  // [receiver][kBlockMpx]
};

}  // namespace

StreamingEngine::StreamingEngine(StreamingConfig config)
    : config_(std::move(config)) {
  if (config_.consumer_threads == 0) {
    throw std::invalid_argument("StreamingEngine: consumer_threads must be > 0");
  }
  if (config_.ring_blocks == 0) {
    throw std::invalid_argument("StreamingEngine: ring_blocks must be > 0");
  }
  // units.h checks finiteness only with assert(), so a Release build lets
  // NaN and +-inf through to here; NaN passes every `<=` check.
  if (!std::isfinite(config_.station_horizon.raw()) ||
      !std::isfinite(config_.decision_window.raw())) {
    throw std::invalid_argument(
        "StreamingEngine: station_horizon and decision_window must be finite");
  }
  if (config_.station_horizon.raw() <= 0.0) {
    throw std::invalid_argument(
        "StreamingEngine: station_horizon must be > 0");
  }
}

ScenarioResult StreamingEngine::run(const Scenario& sc) const {
  const ScenarioPlan plan = resolve_scenario_plan(sc);
  // Runs within the horizon use one exact full-run render per station — the
  // batch engine's source signals, bit for bit. Longer runs render the
  // horizon once and loop it.
  SceneRenderer scene(sc, plan, config_.scene_rendering,
                      config_.station_horizon);
  ScenarioResult result;
  scene.report(result);
  const std::size_t num_blocks = scene.num_blocks();

  // ---- Per-receiver decode chains over the routed bursts. ------------------
  // In loop mode the station MPX past the first horizon period is a re-cycle
  // whose RDS group alignment breaks at every seam (the horizon rarely holds
  // a whole number of groups), so the ambient-RDS verdict is reached within
  // the first period — where the streamed content is bit-exact — rather
  // than diluted with seam garbage.
  const units::Seconds station_rds_window =
      scene.loop_mode()
          ? std::min(config_.decision_window, config_.station_horizon)
          : config_.decision_window;
  std::vector<ReceiverDecoder> decoders;
  decoders.reserve(sc.receivers.size());
  std::size_t decode_buffer_bytes = 0;
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    decoders.emplace_back(sc, plan, scene, r, config_.decision_window,
                          station_rds_window, &config_.on_link, false);
    decode_buffer_bytes += decoders.back().buffer_bytes();
  }

  // ---- The O(1)-memory ledger. ---------------------------------------------
  // Every buffer whose lifetime spans the stream, summed up front (all sizes
  // are known before the first sample): ring slots, the renderer's scene
  // buffers, decision windows and burst collectors. None scales with the
  // run duration — the property the soak tests pin via this field.
  result.scene.streaming_peak_buffer_bytes =
      config_.ring_blocks * sc.receivers.size() * kBlockMpx *
          sizeof(dsp::cfloat) +
      scene.buffer_bytes() + decode_buffer_bytes;

  // ---- The pipeline. -------------------------------------------------------
  // Each consumer drains its receivers straight into their own result slots.
  result.receivers.resize(sc.receivers.size());
  const std::size_t num_consumers = config_.consumer_threads;
  dsp::RingBuffer<StreamBlock> ring(config_.ring_blocks, num_consumers);

  std::vector<std::exception_ptr> errors(num_consumers + 1);
  std::vector<std::thread> workers;
  workers.reserve(num_consumers);
  for (std::size_t k = 0; k < num_consumers; ++k) {
    workers.emplace_back([&, k] {
      try {
        while (StreamBlock* blk = ring.consumer_acquire(k)) {
          const double now =
              static_cast<double>(blk->index + 1) * kBlockSeconds;
          for (std::size_t r = k; r < decoders.size(); r += num_consumers) {
            decoders[r].push(blk->iq[r], now);
          }
          ring.consumer_release(k);
        }
        if (!ring.stopped()) {
          const double end = static_cast<double>(num_blocks) * kBlockSeconds;
          for (std::size_t r = k; r < decoders.size(); r += num_consumers) {
            decoders[r].finish(end, result.receivers[r]);
          }
        }
      } catch (...) {
        errors[k + 1] = std::current_exception();
        ring.stop();
      }
    });
  }

  // Producer: the calling thread renders the scene block by block straight
  // into the ring's reusable slots.
  try {
    const auto t0 = std::chrono::steady_clock::now();  // fmbs-lint: allow(wall-clock-seed) real_time pacing only delays block production, never feeds a sample or seed
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (config_.real_time) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(  // fmbs-lint: allow(wall-clock-seed) pacing, not state
                     std::chrono::duration<double>(
                         static_cast<double>(b) * kBlockSeconds)));
      }
      StreamBlock* slot = ring.producer_acquire();
      if (slot == nullptr) break;  // a consumer failed and stopped the ring
      slot->index = b;
      scene.render_block(b, slot->iq);
      ring.producer_publish();
    }
    ring.finish();
  } catch (...) {
    errors[0] = std::current_exception();
    ring.stop();
  }

  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  assemble_best_links(result, sc.tags.size());
  return result;
}

}  // namespace fmbs::core
