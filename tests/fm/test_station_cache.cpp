// StationCache scene scopes: a multi-station scene pins its renders for the
// duration of a run — the cache overflows transiently rather than letting a
// scene wider than the capacity thrash (or a concurrent scene evict) its
// own stations.
#include "fm/station_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace fmbs::fm {
namespace {

StationConfig station_with_seed(std::uint64_t seed) {
  StationConfig config;
  config.program.genre = audio::ProgramGenre::kSilence;
  config.program.stereo = false;
  config.seed = seed;
  return config;
}

class StationCacheScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_.clear();
    cache_.reset_stats();
    original_capacity_ = cache_.capacity();
  }
  void TearDown() override {
    cache_.set_capacity(original_capacity_);
    cache_.clear();
    cache_.reset_stats();
  }

  StationCache& cache_ = StationCache::instance();
  std::size_t original_capacity_ = 0;
};

TEST_F(StationCacheScopeTest, DefaultCapacityHoldsACityScene) {
  // An 8-station scene plus a few single-station sweeps must fit without
  // evictions (the LRU-of-4 this replaces thrashed on every repeat).
  EXPECT_GE(cache_.capacity(), 16U);
}

TEST_F(StationCacheScopeTest, PinnedSceneOverflowsInsteadOfThrashing) {
  cache_.set_capacity(2);
  {
    StationCache::SceneScope scope(cache_);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      (void)scope.render(station_with_seed(seed), units::Seconds{0.05});
    }
    EXPECT_EQ(cache_.stats().misses, 4U);
    // Every station of the scene is still resident despite capacity 2: the
    // second pass is all hits. An unpinned LRU-of-2 would re-render each.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      (void)scope.render(station_with_seed(seed), units::Seconds{0.05});
    }
    EXPECT_EQ(cache_.stats().misses, 4U);
    EXPECT_EQ(cache_.stats().hits, 4U);
  }
  // Scope gone: the cache shrinks back to capacity, keeping the most
  // recently used renders (seeds 3 and 4).
  (void)cache_.render(station_with_seed(4), units::Seconds{0.05});
  EXPECT_EQ(cache_.stats().hits, 5U);
  (void)cache_.render(station_with_seed(1), units::Seconds{0.05});
  EXPECT_EQ(cache_.stats().misses, 5U);
}

TEST_F(StationCacheScopeTest, PinsProtectAgainstConcurrentScenes) {
  cache_.set_capacity(1);
  StationCache::SceneScope scene_a(cache_);
  (void)scene_a.render(station_with_seed(11), units::Seconds{0.05});
  // A second scene (another sweep thread) floods the cache; the pinned
  // render must survive it.
  {
    StationCache::SceneScope scene_b(cache_);
    for (std::uint64_t seed = 21; seed <= 23; ++seed) {
      (void)scene_b.render(station_with_seed(seed), units::Seconds{0.05});
    }
    (void)scene_a.render(station_with_seed(11), units::Seconds{0.05});
    EXPECT_EQ(cache_.stats().hits, 1U);  // still resident: no re-render
  }
}

TEST_F(StationCacheScopeTest, SharedKeyStaysWhileAnotherScopeHoldsIt) {
  cache_.set_capacity(1);
  {
    StationCache::SceneScope keeper(cache_);
    (void)keeper.render(station_with_seed(41), units::Seconds{0.05});
    {
      StationCache::SceneScope dropper(cache_);
      (void)dropper.render(station_with_seed(41), units::Seconds{0.05});
      (void)dropper.render(station_with_seed(42), units::Seconds{0.05});
    }
    // The dropper exits and the cache shrinks back to capacity 1, evicting
    // its own render, but the keeper still pins the shared entry.
    (void)cache_.render(station_with_seed(41), units::Seconds{0.05});
    EXPECT_EQ(cache_.stats().misses, 2U);
    EXPECT_EQ(cache_.stats().hits, 2U);
  }
}

TEST_F(StationCacheScopeTest, ScopedRenderEqualsPlainRender) {
  const auto plain = cache_.render(station_with_seed(51), units::Seconds{0.05});
  StationCache::SceneScope scope(cache_);
  const auto scoped = scope.render(station_with_seed(51), units::Seconds{0.05});
  EXPECT_EQ(plain.get(), scoped.get());  // literally the same render
}

// The TSan workload: N threads hammer SceneScope pin/evict over a small
// overlapping key set with capacity well below the key count, so every
// iteration races lookup-vs-insert, pin-vs-evict, and scope teardown against
// concurrent renders of the same and neighboring keys. Functional assertions
// keep it honest single-threaded too: every render must be non-null and
// byte-identical to the uncontended reference for its seed.
TEST_F(StationCacheScopeTest, ConcurrentScopesPinAndEvictSafely) {
  constexpr std::uint64_t kSeeds = 6;
  constexpr std::size_t kThreads = 8;
  constexpr int kItersPerThread = 12;
  constexpr double kDuration = 0.02;

  // Uncontended reference renders, one per key, taken before any contention
  // (cache bypassed so the references cannot mask a caching bug).
  cache_.set_enabled(false);
  std::vector<std::shared_ptr<const StationSignal>> reference;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    reference.push_back(cache_.render(station_with_seed(seed + 1), units::Seconds{kDuration}));
  }
  cache_.set_enabled(true);
  cache_.reset_stats();
  cache_.set_capacity(2);  // far below kSeeds: eviction happens constantly

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        StationCache::SceneScope scope(cache_);
        // Each thread walks the key ring from its own offset: every pair of
        // threads overlaps on most keys most of the time.
        for (std::uint64_t k = 0; k < 3; ++k) {
          const std::uint64_t seed = (t + iter + k) % kSeeds;
          const auto signal =
              scope.render(station_with_seed(seed + 1), units::Seconds{kDuration});
          const auto& expect = *reference[seed];
          if (signal == nullptr || signal->mpx.size() != expect.mpx.size() ||
              (!signal->mpx.empty() && signal->mpx[0] != expect.mpx[0]) ||
              (!signal->mpx.empty() &&
               signal->mpx.back() != expect.mpx.back())) {
            ++mismatches[t];  // one writer per slot: no race on the counter
          }
        }
        // Unscoped renders from the same thread race the scopes' pins.
        (void)cache_.render(station_with_seed((t + iter) % kSeeds + 1), units::Seconds{kDuration});
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t << " saw a wrong render";
  }
  // Pins all released: the cache can shrink back below capacity and serve
  // a fresh scope normally.
  cache_.set_capacity(1);
  StationCache::SceneScope scope(cache_);
  const auto after = scope.render(station_with_seed(1), units::Seconds{kDuration});
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->mpx.size(), reference[0]->mpx.size());
}

}  // namespace
}  // namespace fmbs::fm
