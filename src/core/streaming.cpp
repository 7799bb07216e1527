#include "core/streaming.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/scene_render.h"
#include "dsp/ring_buffer.h"
#include "fm/demodulator.h"
#include "fm/stereo_stream.h"
#include "rx/device_stream.h"
#include "rx/fsk_stream.h"
#include "rx/rds_stream.h"

namespace fmbs::core {

namespace {

/// One published ring slot: the tuned post-channel IQ of every receiver for
/// one 0.1 s block. The producer refills the same vectors in place, so the
/// steady state allocates nothing.
struct StreamBlock {
  std::size_t index = 0;
  std::vector<dsp::cvec> iq;  // [receiver][kBlockMpx]
};

/// One burst collector riding a receiver's decoded-audio stream.
struct FskCollector {
  const RoutedFsk* route = nullptr;
  rx::StreamingBurstDemodulator demod;
  bool done = false;
  TagLinkReport link;
};

/// One RDS-window collector riding a receiver's post-demod MPX stream.
struct RdsCollector {
  const RoutedRds* route = nullptr;
  rx::RdsStreamDecoder decoder;
  bool done = false;
  TagLinkReport link;
};

/// Everything one receiver's consumer needs, owned by exactly one consumer
/// thread during streaming and read by the main thread only after join.
struct ReceiverStream {
  std::size_t index = 0;
  fm::QuadratureDemodulator demod;
  fm::StereoStreamDecoder stereo;
  std::optional<rx::PhoneChainStream> phone;
  std::optional<rx::CabinAcousticsStream> cabin;
  std::vector<FskCollector> fsk;
  std::vector<RdsCollector> rds;
  std::optional<rx::RdsStreamDecoder> station_rds;
  bool station_rds_done = false;
  rx::RdsLinkReport station_rds_report;
  dsp::rvec left, right, mono;  // per-block audio scratch

  ReceiverStream(const fm::StereoDecoderConfig& stereo_cfg, std::size_t padded,
                 units::Seconds decision_window)
      : demod(units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate),
        stereo(stereo_cfg, padded, decision_window) {}
};

/// Shared read-only context for the consumer threads.
struct StreamContext {
  const Scenario* sc = nullptr;
  const ScenarioPlan* plan = nullptr;
  const std::function<void(const StreamingLinkEvent&)>* on_link = nullptr;
};

/// Delivers a completed decode window to the live callback, if any.
void emit(const StreamContext& ctx, StreamingLinkEvent::Kind kind,
          std::size_t tag, double now, const TagLinkReport& link) {
  if (!*ctx.on_link) return;
  StreamingLinkEvent ev;
  ev.kind = kind;
  ev.receiver_index = link.receiver_index;
  ev.tag_index = tag;
  ev.stream_seconds = now;
  ev.link = link;
  (*ctx.on_link)(ev);
}

void finalize_fsk(const StreamContext& ctx, ReceiverStream& rs,
                  FskCollector& c, double now) {
  c.link = fsk_link_report(*ctx.sc, *ctx.plan, rs.index, *c.route,
                           c.demod.finish());
  c.done = true;
  emit(ctx, StreamingLinkEvent::Kind::kFskBurst, c.route->tag, now, c.link);
}

void finalize_rds(const StreamContext& ctx, ReceiverStream& rs,
                  RdsCollector& c, double now) {
  c.link = rds_link_report(*ctx.sc, *ctx.plan, rs.index, *c.route,
                           c.decoder.finish());
  c.done = true;
  emit(ctx, StreamingLinkEvent::Kind::kRdsBurst, c.route->tag, now, c.link);
}

void finalize_station_rds(const StreamContext& ctx, ReceiverStream& rs,
                          double now) {
  rs.station_rds_report = rs.station_rds->finish();
  rs.station_rds_done = true;
  TagLinkReport link;
  link.receiver_index = rs.index;
  link.rds = rs.station_rds_report;
  emit(ctx, StreamingLinkEvent::Kind::kStationRds, 0, now, link);
}

/// Feeds freshly decoded audio (rs.left/rs.right) through the device chain
/// into every open burst collector.
void feed_audio(const StreamContext& ctx, ReceiverStream& rs, double now) {
  if (rs.left.empty()) return;
  rs.mono.resize(rs.left.size());
  for (std::size_t i = 0; i < rs.mono.size(); ++i) {
    rs.mono[i] = 0.5F * (rs.left[i] + rs.right[i]);
  }
  if (rs.phone) rs.phone->process_inplace(rs.mono);
  if (rs.cabin) rs.cabin->process_inplace(rs.mono);
  for (FskCollector& c : rs.fsk) {
    if (c.done) continue;
    c.demod.push(rs.mono);
    if (c.demod.window_complete()) finalize_fsk(ctx, rs, c, now);
  }
}

void consume_block(const StreamContext& ctx, ReceiverStream& rs,
                   std::span<const dsp::cfloat> iq, double now) {
  const dsp::rvec mpx = rs.demod.process(iq);
  if (rs.station_rds && !rs.station_rds_done) {
    rs.station_rds->push(mpx);
    if (rs.station_rds->window_complete()) finalize_station_rds(ctx, rs, now);
  }
  for (RdsCollector& c : rs.rds) {
    if (c.done) continue;
    c.decoder.push(mpx);
    if (c.decoder.window_complete()) finalize_rds(ctx, rs, c, now);
  }
  rs.left.clear();
  rs.right.clear();
  rs.stereo.push(mpx, rs.left, rs.right);
  feed_audio(ctx, rs, now);
}

/// End of stream: flush the stereo tail and score every still-open window
/// (truncated windows were clamped to the capture up front, so their reports
/// match the batch engine's on the same truncated capture).
void drain_receiver(const StreamContext& ctx, ReceiverStream& rs, double now) {
  rs.left.clear();
  rs.right.clear();
  rs.stereo.finish(rs.left, rs.right);
  feed_audio(ctx, rs, now);
  if (rs.station_rds && !rs.station_rds_done) {
    finalize_station_rds(ctx, rs, now);
  }
  for (RdsCollector& c : rs.rds) {
    if (!c.done) finalize_rds(ctx, rs, c, now);
  }
  for (FskCollector& c : rs.fsk) {
    if (!c.done) finalize_fsk(ctx, rs, c, now);
  }
}

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
  const std::size_t padded = scene.padded_samples();
  const std::size_t num_blocks = scene.num_blocks();

  // ---- Per-receiver decode chains over the routed bursts. ------------------
  std::vector<std::unique_ptr<ReceiverStream>> streams(sc.receivers.size());
  std::size_t decode_buffer_bytes = 0;
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const ScenarioReceiver& rx = sc.receivers[r];
    const ReceiverRoute& route = scene.routes()[r];
    fm::StereoDecoderConfig sdc = rx.stereo_decoder;
    sdc.mpx_rate = fm::kMpxRate;
    streams[r] = std::make_unique<ReceiverStream>(
        sdc, padded, config_.decision_window);
    ReceiverStream& rs = *streams[r];
    rs.index = r;
    if (rx.kind == ReceiverKind::kCar) {
      rs.cabin.emplace(rx.cabin, sdc.audio_rate);
    } else {
      rs.phone.emplace(rx.phone, sdc.audio_rate);
    }
    const auto decim =
        static_cast<std::size_t>(sdc.mpx_rate / sdc.audio_rate + 0.5);
    const std::size_t audio_len = padded / decim;
    for (const RoutedFsk& f : route.fsk) {
      rs.fsk.push_back(FskCollector{
          &f, rx::StreamingBurstDemodulator(f.burst, sdc.audio_rate, audio_len),
          false, TagLinkReport{}});
    }
    for (const RoutedRds& d : route.rds) {
      rs.rds.push_back(RdsCollector{
          &d,
          rx::RdsStreamDecoder(fm::kMpxRate, padded, d.start_seconds,
                               d.window_seconds),
          false, TagLinkReport{}});
    }
    if (route.station_rds) {
      // In loop mode the station MPX past the first horizon period is a
      // re-cycle whose RDS group alignment breaks at every seam (the horizon
      // rarely holds a whole number of groups), so the ambient-RDS verdict
      // is reached within the first period — where the streamed content is
      // bit-exact — rather than diluted with seam garbage.
      const double station_window =
          scene.loop_mode() ? std::min(config_.decision_window.raw(),
                                       config_.station_horizon.raw())
                            : config_.decision_window.raw();
      rs.station_rds.emplace(fm::kMpxRate, padded, 0.0, -1.0, station_window);
    }

    decode_buffer_bytes += rs.stereo.decision_buffer_bytes();
    decode_buffer_bytes +=
        (rs.stereo.decision_buffer_bytes() / sizeof(float) / decim) * 2 *
        sizeof(float);  // the L/R chunk the decision flush emits
    decode_buffer_bytes += kBlockMpx * sizeof(float);  // per-block MPX scratch
    for (const FskCollector& c : rs.fsk) decode_buffer_bytes += c.demod.buffer_bytes();
    for (const RdsCollector& c : rs.rds) decode_buffer_bytes += c.decoder.buffer_bytes();
    if (rs.station_rds) decode_buffer_bytes += rs.station_rds->buffer_bytes();
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
  const std::size_t num_consumers = config_.consumer_threads;
  dsp::RingBuffer<StreamBlock> ring(config_.ring_blocks, num_consumers);
  StreamContext ctx;
  ctx.sc = &sc;
  ctx.plan = &plan;
  ctx.on_link = &config_.on_link;

  std::vector<std::exception_ptr> errors(num_consumers + 1);
  std::vector<std::thread> workers;
  workers.reserve(num_consumers);
  for (std::size_t k = 0; k < num_consumers; ++k) {
    workers.emplace_back([&, k] {
      try {
        while (StreamBlock* blk = ring.consumer_acquire(k)) {
          const double now =
              static_cast<double>(blk->index + 1) * kBlockSeconds;
          for (std::size_t r = k; r < streams.size(); r += num_consumers) {
            consume_block(ctx, *streams[r], blk->iq[r], now);
          }
          ring.consumer_release(k);
        }
        if (!ring.stopped()) {
          const double end = static_cast<double>(num_blocks) * kBlockSeconds;
          for (std::size_t r = k; r < streams.size(); r += num_consumers) {
            drain_receiver(ctx, *streams[r], end);
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

  // ---- Assembly: batch-identical report structure. -------------------------
  result.receivers.resize(sc.receivers.size());
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const ReceiverStream& rs = *streams[r];
    ScenarioReceiverResult& rr = result.receivers[r];
    for (const FskCollector& c : rs.fsk) rr.links.push_back(c.link);
    for (const RdsCollector& c : rs.rds) rr.links.push_back(c.link);
    if (rs.station_rds) rr.station_rds = rs.station_rds_report;
  }
  assemble_best_links(result, sc.tags.size());
  return result;
}

}  // namespace fmbs::core
