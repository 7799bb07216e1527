// Peak-allocation regression for the scenario engine's scene staging.
//
// The pre-sparse engine materialized, for EVERY station in the scene, a full
// copy of its rendered IQ padded up to a whole number of streaming blocks
// (copy-then-pad), then kept a full upsampled RF block per station — so a
// six-station scene paid ~2x the render memory again in copies before the
// first receiver ever decoded, and scenes paid for stations no receiver
// could hear. Demand-driven rendering replaced the copies with one shared
// staging buffer and skips unneeded stations entirely; sub-block rendering
// shrank every staged RF buffer and that staging to one render sub-block,
// and the cached renders now hold MPX only: each scene modulates it into
// the one shared IQ sub-block, holding the last sample through the pad.
// This test instruments global operator new and pins the peak: if
// copy-then-pad (or render-everything, or block-sized RF staging) comes
// back, the peak jumps by megabytes and the bound here fails; a cached IQ
// copy fails the per-render footprint case.
//
// The binary-local allocator override counts every live byte via
// malloc_usable_size; this file is its own test executable, so the override
// cannot leak into other tests.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/scenario.h"
#include "core/scene_render.h"
#include "dsp/types.h"
#include "fm/station_cache.h"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void track_alloc(void* p) {
  if (p == nullptr) return;
  const std::size_t live =
      g_live.fetch_add(malloc_usable_size(p)) + malloc_usable_size(p);
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
}

void track_free(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p));
}

}  // namespace

// GCC 12 flags free() inside a user-defined operator delete as a mismatched
// pair even though this file's operator new is malloc-backed by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  track_alloc(p);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace fmbs::core {
namespace {

/// Six far-field stations spread across the scene, one tag on the center
/// station, one phone on the tag's channel: only the center station (and the
/// one 200 kHz over) are inside the receiver's neighborhood.
Scenario six_station_scene() {
  Scenario sc;
  sc.name = "memory_probe";
  sc.seed = 11;
  sc.duration = units::Seconds{0.2};  // 0.28 s total: NOT a whole number of blocks
  const double offsets[6] = {0.0, 200e3, -600e3, 600e3, -1000e3, 1000e3};
  for (int s = 0; s < 6; ++s) {
    ScenarioStation st;
    st.name = "st" + std::to_string(s);
    st.config.program.genre = audio::ProgramGenre::kNews;
    st.config.program.stereo = false;
    st.config.seed = 100 + static_cast<std::uint64_t>(s);
    st.offset = units::Hertz{offsets[s]};
    st.power = units::Dbm{-28.0 - s};
    sc.stations.push_back(st);
  }
  ScenarioTag t;
  t.name = "poster";
  t.station_index = 0;
  t.subcarrier.shift = units::Hertz{100e3};  // tune at +100 kHz: only 0 / 200 kHz near
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 128;
  t.packet_bits = 64;
  t.distance_override = units::Feet{4.0};
  sc.tags.push_back(t);
  sc.receivers.push_back(phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

TEST(ScenarioMemory, SparseRunPeakStaysBounded) {
  const Scenario sc = six_station_scene();
  const ScenarioEngine sparse_engine({.keep_captures = false});
  const ScenarioEngine dense_engine(
      {.keep_captures = false, .scene_rendering = SceneRendering::kDense});

  // Warm fm::StationCache (all six renders) so the measured runs pay engine
  // staging only, not first-render synthesis.
  const ScenarioResult warm = sparse_engine.run(sc);
  ASSERT_EQ(warm.scene.stations_total, 6U);
  EXPECT_EQ(warm.scene.stations_rendered, 2U)
      << "only the center station and its 200 kHz neighbor are in range";
  EXPECT_EQ(warm.scene.tags_rendered, 1U);
  dense_engine.run(sc);

  const auto measure_peak = [&](const ScenarioEngine& engine) {
    const std::size_t baseline = g_live.load();
    g_peak.store(baseline);
    const ScenarioResult result = engine.run(sc);
    // Keep `result` alive through the read so both modes count their
    // retained result the same way.
    const std::size_t peak = g_peak.load() - baseline;
    EXPECT_GE(result.scene.stations_rendered, 1U);
    return peak;
  };
  const std::size_t sparse_peak = measure_peak(sparse_engine);
  const std::size_t dense_peak = measure_peak(dense_engine);

  // Scale reference: one station render of this scene (0.28 s at the MPX
  // rate) is ~270 KB of MPX, and each staged station holds one RF sub-block
  // (38.4 KB) plus its upsampler's sub-block work buffer. Measured peaks
  // today: ~1.84 MB sparse (two staged stations) vs ~2.02 MB dense (all six);
  // before sub-block rendering they were ~17.1 MB vs ~25.6 MB, with a 1.9 MB
  // RF block per staged station. The absolute bound sits just above the
  // sparse measurement: padded copies (another ~3.3 MB of IQ) or block-sized
  // RF staging blow through it. Staging the unheard stations does not (the
  // dense peak is under it too); the sparse-versus-dense check below does.
  EXPECT_LT(sparse_peak, 2U << 20)
      << "scene staging regressed toward copy-then-pad or block-sized RF";
  // Demand-driven staging must actually be cheaper than exhaustive staging
  // by at least the four skipped stations' RF sub-blocks.
  EXPECT_LT(sparse_peak + 4 * kSubBlockRf * sizeof(dsp::cfloat), dense_peak)
      << "sparse " << sparse_peak << " vs dense " << dense_peak;
}

// A render that ends inside the final block holds its last IQ sample through
// the pad instead of staging the render's tail in a scratch: the renderer
// buffers exactly as much for it as for a run of whole blocks.
TEST(ScenarioMemory, WholeBlockRunNeedsNoScratch) {
  const Scenario partial = six_station_scene();  // 0.28 s: partial last block
  Scenario whole = six_station_scene();
  whole.duration = units::Seconds{0.22};  // 0.3 s total = exactly 3 blocks
  const ScenarioPlan partial_plan = resolve_scenario_plan(partial);
  const ScenarioPlan whole_plan = resolve_scenario_plan(whole);
  const SceneRenderer partial_scene(partial, partial_plan,
                                    SceneRendering::kSparse, std::nullopt);
  const SceneRenderer whole_scene(whole, whole_plan, SceneRendering::kSparse,
                                  std::nullopt);
  EXPECT_EQ(partial_scene.buffer_bytes(), whole_scene.buffer_bytes());
}

// The station cache keeps a station's MPX and program audio only: its IQ is
// a pure function of the MPX (paper Eq. 1) that every scene modulates as it
// renders. One second is ~0.96 MB of MPX plus ~0.38 MB of stereo program; a
// cached IQ copy would add another ~1.92 MB and break the bound.
TEST(ScenarioMemory, OneSecondStationRenderHoldsNoIq) {
  fm::StationConfig config;
  config.seed = 4242;  // a key no other case in this binary renders
  const std::size_t before = g_live.load();
  const auto render =
      fm::StationCache::instance().render(config, units::Seconds{1.0});
  const std::size_t held = g_live.load() - before;
  ASSERT_EQ(render->mpx.size(), static_cast<std::size_t>(fm::kMpxRate));
  EXPECT_LT(held, 2U << 20) << "a 1 s station render holds " << held << " B";
}

}  // namespace
}  // namespace fmbs::core
