// The end-to-end physical simulation:
//
//   station MPX/IQ (240 kHz) --x10--> RF scene (2.4 MHz complex baseband)
//        |                               |
//        |        tag baseband --> subcarrier B(t) --> reflected = B x RF
//        |                               |
//        +--> direct path ---------------+--> tuner(s) --> + AWGN (240 kHz)
//                                                              |
//        +-----------------------------------------------------+
//        |
//        +--> discriminator --> MPX --> RDS windows
//                                |
//                                +--> pilot-gated stereo --> L/R
//                                                             |
//                      FSK bursts <-- device chain <-- mono <-+
//
// The backscatter multiplication happens sample-by-sample on the RF signal,
// exactly as the tag's switch does it; no audio-domain shortcut is taken.
// Rendering and decoding are block-streamed (0.1 s blocks): the scene
// renderer (core/scene_render.h) hands each receiver's tuned IQ block to
// that receiver's decode chain (core/receiver_decode.h), so long captures
// never hold the 2.4 MHz stream, or the receiver's IQ, in memory.
//
// Since the multi-station refactor there is exactly ONE physics path:
// simulate() is a thin bridge that builds a one-tag, one-station
// core::Scenario (see core/scenario.h) and runs the ScenarioEngine; its
// output is sample-for-sample identical to the historical hand-rolled loop.
#pragma once

#include <memory>
#include <optional>

#include "audio/audio_buffer.h"
#include "channel/link_budget.h"
#include "core/config.h"
#include "dsp/types.h"
#include "fm/receiver.h"
#include "fm/transmitter.h"

namespace fmbs::core {

/// Everything captured at one receiver.
struct ReceiverCapture {
  fm::ReceiverOutput fm;        // raw FM receiver output
  audio::MonoBuffer mono;       // mono audio after the device chain
  audio::StereoBuffer stereo;   // stereo audio after the device chain
};

/// Full simulation result. The station render is shared and read-only: when
/// the fm::StationCache is enabled (the default), concurrent sweep points
/// listening to the same station all point at one render.
struct SimulationResult {
  ReceiverCapture backscatter_rx;               // tuned to fc + f_back
  std::optional<ReceiverCapture> ambient_rx;    // tuned to fc (cooperative)
  std::shared_ptr<const fm::StationSignal> station;  // ground truth
  channel::LinkBudget budget;
  double backscatter_rx_power_dbm = 0.0;        // in-channel backscatter power
};

/// Runs the physical simulation. `tag_baseband` is FM_back at the MPX rate
/// (see tag/baseband.h composers); it is zero-padded or truncated to the
/// station duration. Throws std::invalid_argument on inconsistent rates.
SimulationResult simulate(const SystemConfig& config, const dsp::rvec& tag_baseband,
                          units::Seconds duration);

}  // namespace fmbs::core
