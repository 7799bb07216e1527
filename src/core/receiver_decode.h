// The per-receiver decode chain of the batch and streaming scenario engines
// (internal to core/). One ReceiverDecoder takes a receiver's tuned, pre-noise
// IQ one block at a time, draws the receiver's own noise into it (its front
// end: tuned-rate noise colored like the channel filter), and runs it
// through the discriminator, the pilot-gated stereo decoder and the device
// audio path (phone record chain or car cabin), feeding every routed FSK
// burst and RDS window from the right point of that chain and scoring each
// link as soon as its window completes. ScenarioEngine drives one decoder
// per receiver serially with a whole-capture decision window;
// StreamingEngine drives them from its consumer threads with bounded
// windows and a live link callback.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "channel/awgn.h"
#include "core/scenario.h"
#include "core/scene_render.h"
#include "core/streaming.h"
#include "dsp/types.h"
#include "fm/demodulator.h"
#include "fm/stereo_stream.h"
#include "rx/device_stream.h"
#include "rx/fsk_stream.h"
#include "rx/rds_stream.h"

namespace fmbs::core {

/// One receiver's decode chain. Not synchronized: one thread at a time
/// drives it (StreamingEngine gives each receiver to one consumer), and the
/// result it finishes into is read only after that thread is joined.
class ReceiverDecoder {
 public:
  /// Builds receiver `index`'s chain over `scene`'s padded capture, routes
  /// and noise shaping. `decision_window` bounds the stereo pilot decision
  /// and `station_rds_window` the tuned station's RDS window (<= 0: the
  /// whole capture). A non-null, non-empty `on_link` receives every link as
  /// its window completes. `keep_capture` taps the chain into a whole-run
  /// ReceiverCapture. Everything passed by reference or pointer must
  /// outlive the decoder.
  ReceiverDecoder(const Scenario& sc, const ScenarioPlan& plan,
                  const SceneRenderer& scene, std::size_t index,
                  units::Seconds decision_window,
                  units::Seconds station_rds_window,
                  const std::function<void(const StreamingLinkEvent&)>* on_link,
                  bool keep_capture);

  /// Consumes the receiver's next pre-noise IQ block, adding the receiver
  /// noise to it in place; `now` is the simulated stream time at the
  /// block's end (stamped on live link events).
  void push(std::span<dsp::cfloat> iq, double now);

  /// End of stream: flushes the stereo tail, scores every still-open window
  /// and moves the links (FSK, then RDS), the station RDS verdict and any
  /// kept capture into `rr`. Call exactly once, after the last block.
  void finish(double now, ScenarioReceiverResult& rr);

  /// Bytes of decode buffering held at peak: the pilot decision window and
  /// the audio chunk its flush emits, the per-block MPX scratch, the noise
  /// scratch and every burst and RDS window. Independent of the run
  /// duration when the windows are bounded.
  std::size_t buffer_bytes() const;

 private:
  /// One burst collector riding the receiver's decoded-audio stream.
  struct FskCollector {
    const RoutedFsk* route = nullptr;
    rx::StreamingBurstDemodulator demod;
    bool done = false;
    TagLinkReport link;
  };

  /// One RDS-window collector riding the receiver's post-demod MPX stream.
  struct RdsCollector {
    const RoutedRds* route = nullptr;
    rx::RdsStreamDecoder decoder;
    bool done = false;
    TagLinkReport link;
  };

  /// The whole-run capture a keep_capture decoder appends to. A phone's
  /// stereo runs L and R through two more record chains seeded 99 and 100,
  /// the same draws as the one-shot stereo phone chain.
  struct CaptureTap {
    ReceiverCapture capture;
    std::optional<rx::PhoneChainStream> phone_left, phone_right;
  };

  void emit(StreamingLinkEvent::Kind kind, std::size_t tag, double now,
            const TagLinkReport& link) const;
  void finalize_fsk(FskCollector& c, double now);
  void finalize_rds(RdsCollector& c, double now);
  void finalize_station_rds(double now);
  void feed_audio(dsp::rvec& left, dsp::rvec& right, double now);
  void tap_audio(dsp::rvec& left, dsp::rvec& right, const dsp::rvec& mono);

  const Scenario* sc_;
  const ScenarioPlan* plan_;
  const std::function<void(const StreamingLinkEvent&)>* on_link_;
  std::size_t index_;
  std::size_t decim_ = 1;
  channel::AwgnSource noise_;
  fm::QuadratureDemodulator demod_;
  fm::StereoStreamDecoder stereo_;
  std::optional<rx::PhoneChainStream> phone_;
  std::optional<rx::CabinAcousticsStream> cabin_;
  std::vector<FskCollector> fsk_;
  std::vector<RdsCollector> rds_;
  std::optional<rx::RdsStreamDecoder> station_rds_;  // freed once scored
  std::optional<rx::RdsLinkReport> station_rds_report_;
  std::optional<CaptureTap> tap_;
};

}  // namespace fmbs::core
