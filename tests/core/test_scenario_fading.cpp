// Regression suite for the per-segment fading re-derivation (scene_render.cpp):
// a walking tag's channel::FadingProcess used to be constructed once with
// one seed and stream across the whole run, so segment geometry changes
// never decorrelated the fade — a long walk rode one coherent realization.
// Segmented timelines now re-derive the stream per segment
// (derive_seed(fseed, segment)); the zero-waypoint single-segment path
// keeps the historical construction bit-for-bit (golden traces pin that).
#include "core/scenario.h"

#include <gtest/gtest.h>

#include "channel/fading.h"
#include "tag/channel_plan.h"

namespace fmbs::core {
namespace {

Scenario fading_scenario(double segment_seconds) {
  Scenario sc;
  sc.name = "fading-reseed";
  sc.seed = 91;
  sc.station.program.genre = audio::ProgramGenre::kSilence;
  sc.station.program.stereo = false;
  sc.station.seed = 91;
  sc.duration = units::Seconds{0.2};
  sc.timeline.segment = units::Seconds{segment_seconds};

  ScenarioTag t;
  t.name = "walker";
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 96;
  t.tag_power = units::Dbm{-25.0};
  t.distance_override = units::Feet{4.0};
  t.fading = channel::fading_for_mobility(channel::Mobility::kWalking);
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

TEST(ScenarioFading, SegmentedTimelineRederivesTheFadingStream) {
  // Regression: with the old single-process construction the fading stream
  // was a function of time only, so segmenting an otherwise identical
  // static scenario changed nothing and these two captures were
  // bit-identical — the fade could never decorrelate with the segments.
  const ScenarioEngine engine;  // keep_captures on: compare raw MPX
  const ScenarioResult whole = engine.run(fading_scenario(0.0));
  const ScenarioResult segmented = engine.run(fading_scenario(0.1));

  const auto& a = whole.receivers[0].capture.fm.mpx;
  const auto& b = segmented.receivers[0].capture.fm.mpx;
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i] != b[i];
  }
  EXPECT_TRUE(differs)
      << "per-segment fading must re-derive its stream, not continue the "
         "single-segment realization";
}

TEST(ScenarioFading, SegmentedFadingIsDeterministic) {
  const ScenarioEngine engine;
  const ScenarioResult r1 = engine.run(fading_scenario(0.1));
  const ScenarioResult r2 = engine.run(fading_scenario(0.1));
  ASSERT_EQ(r1.best_per_tag.size(), 1U);
  ASSERT_EQ(r2.best_per_tag.size(), 1U);
  EXPECT_EQ(r1.best_per_tag[0].burst.ber.bit_errors,
            r2.best_per_tag[0].burst.ber.bit_errors);
  const auto& a = r1.receivers[0].capture.fm.mpx;
  const auto& b = r2.receivers[0].capture.fm.mpx;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "sample " << i;
  }
}

TEST(ScenarioFading, SingleSegmentPathIsStable) {
  // The zero-waypoint, unsegmented path must keep the historical
  // construction: the same scenario decodes identically run-to-run and an
  // explicit fading_seed reproduces the derived-default stream.
  Scenario sc = fading_scenario(0.0);
  const ScenarioEngine engine({.keep_captures = false});
  const ScenarioResult r1 = engine.run(sc);
  const ScenarioResult r2 = engine.run(sc);
  EXPECT_EQ(r1.best_per_tag[0].burst.ber.bit_errors,
            r2.best_per_tag[0].burst.ber.bit_errors);
  EXPECT_DOUBLE_EQ(r1.best_per_tag[0].goodput_bps,
                   r2.best_per_tag[0].goodput_bps);
}

}  // namespace
}  // namespace fmbs::core
