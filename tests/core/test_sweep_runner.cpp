#include "core/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "fm/station_cache.h"
#include "support/determinism.h"

namespace fmbs::core {
namespace {

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed loop and keeps working.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8U);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(DeriveSeed, DeterministicAndWellSpread) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ULL, 2ULL, 999ULL}) {
    for (std::uint64_t i = 0; i < 100; ++i) seen.insert(derive_seed(base, i));
  }
  EXPECT_EQ(seen.size(), 300U);  // no collisions across bases or indices
}

TEST(SweepRunner, MapPreservesOrder) {
  SweepRunner runner(SweepConfig{.threads = 4});
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  const auto out = runner.map(items, [](const int& v) { return v * v; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(SweepRunner, SeedPolicyIsIndexDerivedAndStationShared) {
  SweepRunner runner(SweepConfig{.threads = 2, .base_seed = 77});
  std::vector<ExperimentPoint> points(3);
  const auto seeded = runner.seed_points(points);
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    EXPECT_EQ(seeded[i].seed, derive_seed(77, i));
    EXPECT_EQ(seeded[i].station_seed, 77U);
  }
}

// The acceptance property of the engine: the same grid produces bit-identical
// BerResults at 1, 2 and 8 threads.
TEST(SweepRunner, GridIsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> distances{2.0, 4.0};
  const std::vector<double> powers{-25.0, -35.0};

  test::ExpectBitIdenticalAcrossThreads(
      [&](std::size_t threads) {
        SweepRunner runner(SweepConfig{.threads = threads, .base_seed = 11});
        std::vector<ExperimentPoint> points;
        for (const double p : powers) {
          for (const double d : distances) {
            ExperimentPoint point;
            point.tag_power = units::Dbm{p};
            point.distance = units::Feet{d};
            points.push_back(point);
          }
        }
        return runner.map(runner.seed_points(points),
                          [](const ExperimentPoint& pt) {
                            return run_overlay_ber(pt, tag::DataRate::k1600bps,
                                                   64);
                          });
      },
      [](const auto& serial, const auto& other, std::size_t threads) {
        ASSERT_EQ(serial.size(), 4U);
        ASSERT_EQ(other.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
          EXPECT_EQ(serial[i].bit_errors, other[i].bit_errors)
              << threads << "t," << i;
          EXPECT_EQ(serial[i].bits_compared, other[i].bits_compared)
              << threads << "t," << i;
          EXPECT_EQ(serial[i].ber, other[i].ber) << threads << "t," << i;
        }
      });
}

TEST(SweepRunner, RunGridShapesSeries) {
  SweepRunner runner(SweepConfig{.threads = 2, .base_seed = 3});
  std::vector<GridRow> rows;
  for (const double p : {-20.0, -30.0}) {
    rows.push_back(GridRow{
        std::to_string(static_cast<int>(p)) + "dBm",
        [p](double x) {
          ExperimentPoint point;
          point.tag_power = units::Dbm{p};
          point.distance = units::Feet{x};
          return point;
        },
        [](const ExperimentPoint& pt, double x) {
          return pt.tag_power.raw() * 1000.0 + x;  // cheap, order-revealing
        }});
  }
  const auto series = runner.run_grid(rows, {1.0, 2.0, 3.0});
  ASSERT_EQ(series.size(), 2U);
  EXPECT_EQ(series[0].label, "-20dBm");
  EXPECT_EQ(series[0].values, (std::vector<double>{-19999.0, -19998.0, -19997.0}));
  EXPECT_EQ(series[1].values, (std::vector<double>{-29999.0, -29998.0, -29997.0}));
}

TEST(StationCache, CachedRenderEqualsFreshRender) {
  auto& cache = fm::StationCache::instance();
  cache.clear();
  cache.reset_stats();

  fm::StationConfig config;
  config.program.genre = audio::ProgramGenre::kNews;
  config.program.stereo = true;
  config.seed = 1234;
  const double duration = 0.3;

  const auto cached = cache.render(config, units::Seconds{duration});
  const fm::StationSignal fresh = fm::render_station(config, units::Seconds{duration});

  ASSERT_EQ(cached->mpx.size(), fresh.mpx.size());
  for (std::size_t i = 0; i < fresh.mpx.size(); ++i) {
    ASSERT_EQ(cached->mpx[i], fresh.mpx[i]) << "mpx sample " << i;
  }
}

TEST(StationCache, SecondLookupHitsAndSharesTheRender) {
  auto& cache = fm::StationCache::instance();
  cache.clear();
  cache.reset_stats();

  fm::StationConfig config;
  config.seed = 777;
  const auto first = cache.render(config, units::Seconds{0.2});
  const auto second = cache.render(config, units::Seconds{0.2});
  EXPECT_EQ(first.get(), second.get());  // literally the same render
  EXPECT_EQ(cache.stats().misses, 1U);
  EXPECT_EQ(cache.stats().hits, 1U);

  // A different seed is a different station: no false sharing.
  config.seed = 778;
  const auto third = cache.render(config, units::Seconds{0.2});
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(cache.stats().misses, 2U);
}

TEST(StationCache, DisabledCacheRendersFreshEveryTime) {
  auto& cache = fm::StationCache::instance();
  cache.clear();
  cache.reset_stats();
  cache.set_enabled(false);
  fm::StationConfig config;
  config.seed = 9;
  const auto a = cache.render(config, units::Seconds{0.2});
  const auto b = cache.render(config, units::Seconds{0.2});
  cache.set_enabled(true);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 0U);
  EXPECT_EQ(cache.stats().misses, 0U);
  ASSERT_EQ(a->mpx.size(), b->mpx.size());
  for (std::size_t i = 0; i < a->mpx.size(); ++i) ASSERT_EQ(a->mpx[i], b->mpx[i]);
}

TEST(StationCache, EvictsLeastRecentlyUsed) {
  auto& cache = fm::StationCache::instance();
  cache.clear();
  cache.reset_stats();
  const std::size_t original_capacity = cache.capacity();
  cache.set_capacity(1);
  fm::StationConfig config;
  config.seed = 1;
  (void)cache.render(config, units::Seconds{0.2});  // miss
  config.seed = 2;
  (void)cache.render(config, units::Seconds{0.2});  // miss, evicts seed 1
  config.seed = 1;
  (void)cache.render(config, units::Seconds{0.2});  // miss again
  EXPECT_EQ(cache.stats().misses, 3U);
  EXPECT_EQ(cache.stats().hits, 0U);
  cache.set_capacity(original_capacity);
  cache.clear();
}

}  // namespace
}  // namespace fmbs::core
