#include "core/receiver_decode.h"

#include <algorithm>
#include <utility>

#include "fm/constants.h"

namespace fmbs::core {

namespace {

fm::StereoDecoderConfig at_mpx_rate(fm::StereoDecoderConfig config) {
  config.mpx_rate = fm::kMpxRate;
  return config;
}

void append(std::vector<float>& to, std::span<const float> from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

ReceiverDecoder::ReceiverDecoder(
    const Scenario& sc, const ScenarioPlan& plan, const SceneRenderer& scene,
    std::size_t index, units::Seconds decision_window,
    units::Seconds station_rds_window,
    const std::function<void(const StreamingLinkEvent&)>* on_link,
    bool keep_capture)
    : sc_(&sc),
      plan_(&plan),
      on_link_(on_link),
      index_(index),
      // Receiver noise is drawn at the tuned MPX rate and added after the
      // channel filter (equivalent-baseband model), colored by the filter's
      // aliased response: the same in-channel noise as drawing it at the RF
      // rate ahead of the tuner, at a tenth of the Gaussian draws.
      noise_(receiver_noise_floor(sc.receivers[index]),
             units::Hertz{fm::kChannelSpacingHz}, fm::kMpxRate,
             plan.receiver_noise_seed[index], scene.noise_shaping_taps(index)),
      demod_(units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate),
      stereo_(at_mpx_rate(sc.receivers[index].stereo_decoder),
              scene.padded_samples(), decision_window),
      mpx_(kSubBlockMpx) {
  const ScenarioReceiver& rx = sc.receivers[index];
  const ReceiverRoute& route = scene.routes()[index];
  const std::size_t padded = scene.padded_samples();
  const double audio_rate = rx.stereo_decoder.audio_rate;
  if (rx.kind == ReceiverKind::kCar) {
    cabin_.emplace(rx.cabin, audio_rate);
  } else {
    phone_.emplace(rx.phone, audio_rate);
  }
  decim_ = static_cast<std::size_t>(fm::kMpxRate / audio_rate + 0.5);
  const std::size_t audio_len = padded / decim_;
  for (const RoutedFsk& f : route.fsk) {
    fsk_.push_back(FskCollector{
        &f, rx::StreamingBurstDemodulator(f.burst, audio_rate, audio_len),
        false, TagLinkReport{}});
  }
  for (const RoutedRds& d : route.rds) {
    rds_.push_back(RdsCollector{
        &d,
        rx::RdsStreamDecoder(fm::kMpxRate, padded, d.start_seconds,
                             d.window_seconds),
        false, TagLinkReport{}});
  }
  if (route.station_rds) {
    station_rds_.emplace(fm::kMpxRate, padded, 0.0, -1.0,
                         station_rds_window.raw());
  }
  if (keep_capture) {
    tap_.emplace();
    tap_->capture.fm.audio.sample_rate = audio_rate;
    tap_->capture.mono.sample_rate = audio_rate;
    tap_->capture.stereo.sample_rate = audio_rate;
    if (phone_) {
      tap_->phone_left.emplace(rx.phone, audio_rate, 99);
      tap_->phone_right.emplace(rx.phone, audio_rate, 100);
    }
  }
}

std::size_t ReceiverDecoder::buffer_bytes() const {
  std::size_t bytes = stereo_.decision_buffer_bytes();
  bytes += (stereo_.decision_buffer_bytes() / sizeof(float) / decim_) * 2 *
           sizeof(float);  // the L/R chunk the decision flush emits
  bytes += kSubBlockMpx * sizeof(float);  // the sub-block MPX scratch
  // The noise draws and the shaping filter's staging, a sub-block each.
  bytes += 2 * kSubBlockMpx * sizeof(dsp::cfloat);
  for (const FskCollector& c : fsk_) bytes += c.demod.buffer_bytes();
  for (const RdsCollector& c : rds_) bytes += c.decoder.buffer_bytes();
  if (station_rds_) bytes += station_rds_->buffer_bytes();
  return bytes;
}

/// Delivers a completed decode window to the live callback, if any.
void ReceiverDecoder::emit(StreamingLinkEvent::Kind kind, std::size_t tag,
                           double now, const TagLinkReport& link) const {
  if (on_link_ == nullptr || !*on_link_) return;
  StreamingLinkEvent ev;
  ev.kind = kind;
  ev.receiver_index = link.receiver_index;
  ev.tag_index = tag;
  ev.stream_seconds = now;
  ev.link = link;
  (*on_link_)(ev);
}

void ReceiverDecoder::finalize_fsk(FskCollector& c, double now) {
  c.link = fsk_link_report(*sc_, *plan_, index_, *c.route, c.demod.finish());
  c.done = true;
  emit(StreamingLinkEvent::Kind::kFskBurst, c.route->tag, now, c.link);
}

void ReceiverDecoder::finalize_rds(RdsCollector& c, double now) {
  c.link =
      rds_link_report(*sc_, *plan_, index_, *c.route, c.decoder.finish());
  c.done = true;
  emit(StreamingLinkEvent::Kind::kRdsBurst, c.route->tag, now, c.link);
}

void ReceiverDecoder::finalize_station_rds(double now) {
  station_rds_report_ = station_rds_->finish();
  station_rds_.reset();  // its window can span the whole capture
  TagLinkReport link;
  link.receiver_index = index_;
  link.rds = station_rds_report_;
  emit(StreamingLinkEvent::Kind::kStationRds, 0, now, link);
}

/// Feeds freshly decoded audio through the device chain into every open
/// burst collector. The audio chunk is per call, so the whole-capture chunk
/// a decision flush emits is not kept past it.
void ReceiverDecoder::feed_audio(dsp::rvec& left, dsp::rvec& right,
                                 double now) {
  if (left.empty()) return;
  dsp::rvec mono(left.size());
  for (std::size_t i = 0; i < mono.size(); ++i) {
    mono[i] = 0.5F * (left[i] + right[i]);
  }
  if (phone_) phone_->process_inplace(mono);
  if (cabin_) cabin_->process_inplace(mono);
  if (tap_) tap_audio(left, right, mono);
  for (FskCollector& c : fsk_) {
    if (c.done) continue;
    c.demod.push(mono);
    if (c.demod.window_complete()) finalize_fsk(c, now);
  }
}

/// Appends this chunk of decoder and device-chain audio to the capture,
/// running a phone's L/R through their record chains in place. A car's
/// stereo is the device mono on both channels.
void ReceiverDecoder::tap_audio(dsp::rvec& left, dsp::rvec& right,
                                const dsp::rvec& mono) {
  ReceiverCapture& cap = tap_->capture;
  append(cap.fm.audio.left, left);
  append(cap.fm.audio.right, right);
  append(cap.mono.samples, mono);
  if (cabin_) {
    append(cap.stereo.left, mono);
    append(cap.stereo.right, mono);
    return;
  }
  tap_->phone_left->process_inplace(left);
  tap_->phone_right->process_inplace(right);
  append(cap.stereo.left, left);
  append(cap.stereo.right, right);
}

void ReceiverDecoder::push(std::span<dsp::cfloat> iq, double now) {
  // Every stage streams (the noise draws, the shaping filter, the
  // discriminator, the RDS front ends, the stereo chain and the device
  // chain), so decoding a sub-block at a time is bit-identical to decoding
  // the block and keeps every scratch a sub-block long.
  for (std::size_t at = 0; at < iq.size(); at += kSubBlockMpx) {
    const std::span<dsp::cfloat> sub =
        iq.subspan(at, std::min(kSubBlockMpx, iq.size() - at));
    noise_.add_to(sub);
    const std::span<float> mpx(mpx_.data(), sub.size());
    demod_.process_into(sub, mpx);
    if (tap_) append(tap_->capture.fm.mpx, mpx);
    if (station_rds_) {
      station_rds_->push(mpx);
      if (station_rds_->window_complete()) finalize_station_rds(now);
    }
    for (RdsCollector& c : rds_) {
      if (c.done) continue;
      c.decoder.push(mpx);
      if (c.decoder.window_complete()) finalize_rds(c, now);
    }
    dsp::rvec left, right;
    stereo_.push(mpx, left, right);
    feed_audio(left, right, now);
  }
}

/// Truncated windows were clamped to the capture up front, so their reports
/// match a decode of the same truncated capture.
void ReceiverDecoder::finish(double now, ScenarioReceiverResult& rr) {
  dsp::rvec left, right;
  stereo_.finish(left, right);
  feed_audio(left, right, now);
  if (station_rds_) finalize_station_rds(now);
  for (RdsCollector& c : rds_) {
    if (!c.done) finalize_rds(c, now);
  }
  for (FskCollector& c : fsk_) {
    if (!c.done) finalize_fsk(c, now);
    rr.links.push_back(std::move(c.link));
  }
  for (RdsCollector& c : rds_) rr.links.push_back(std::move(c.link));
  rr.station_rds = station_rds_report_;
  if (tap_) {
    rr.capture = std::move(tap_->capture);
    rr.capture.fm.stereo_mode = stereo_.stereo_mode();
    rr.capture.fm.pilot_snr_db = stereo_.pilot_snr_db();
  }
}

}  // namespace fmbs::core
