// Umbrella header: the full public API of the FM-backscatter library.
//
// Quick start:
//
//   #include "core/fmbs.h"
//   using namespace fmbs;
//
//   core::ExperimentPoint point;                 // -30 dBm, 4 ft, news
//   auto ber = core::run_overlay_ber(point, tag::DataRate::k100bps, 400);
//
// or drive the pieces directly: compose a tag baseband
// (tag::compose_overlay_baseband), build its one-tag scene
// (core::make_scenario), run it (core::ScenarioEngine) and decode the
// receiver's capture (rx::demodulate_fsk / audio::pesq_like).
#pragma once

#include "audio/metrics.h"
#include "audio/music_synth.h"
#include "audio/pesq_like.h"
#include "audio/program.h"
#include "audio/speech_synth.h"
#include "audio/tone.h"
#include "audio/wav.h"
#include "channel/fading.h"
#include "channel/link_budget.h"
#include "core/aloha.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "core/harvesting.h"
#include "core/rng.h"
#include "core/scenario.h"
#include "core/sweep_runner.h"
#include "core/thread_pool.h"
#include "fm/constants.h"
#include "fm/rds.h"
#include "fm/receiver.h"
#include "fm/station_cache.h"
#include "fm/transmitter.h"
#include "rx/analytic_fsk.h"
#include "rx/cooperative.h"
#include "rx/fsk_demod.h"
#include "rx/mrc.h"
#include "rx/multitag.h"
#include "survey/city_survey.h"
#include "survey/spectrum_db.h"
#include "tag/antenna.h"
#include "tag/baseband.h"
#include "tag/channel_plan.h"
#include "tag/framing.h"
#include "tag/fsk.h"
#include "tag/mac.h"
#include "tag/power_model.h"
#include "tag/subcarrier.h"
