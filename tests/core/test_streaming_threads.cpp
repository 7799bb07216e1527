// Streaming engine threading behaviour (threaded ctest lane, TSan in CI):
// decoded results are bit-identical at 1, 2 and 8 consumer threads with real
// producer/consumer overlap; a consumer slower than the producer only slows
// the run (backpressure, no drops, no divergence); and a worker failure
// mid-stream tears the pipeline down cleanly — the error propagates, nothing
// deadlocks.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/streaming.h"
#include "golden/golden_scenarios.h"

namespace fmbs::core {
namespace {

// Digest of everything decode-dependent in a result; any divergence between
// thread counts shows up as a digest mismatch.
std::vector<double> decode_digest(const ScenarioResult& result) {
  std::vector<double> d;
  for (const auto& rr : result.receivers) {
    for (const auto& link : rr.links) {
      d.push_back(static_cast<double>(link.tag_index));
      d.push_back(link.burst.ber.ber);
      d.push_back(static_cast<double>(link.burst.ber.bit_errors));
      d.push_back(static_cast<double>(link.burst.packets_ok));
      d.push_back(static_cast<double>(link.burst.bits_delivered));
      d.push_back(link.burst.per);
      d.push_back(link.goodput_bps);
      if (link.rds) {
        d.push_back(static_cast<double>(link.rds->blocks_ok));
        d.push_back(link.rds->bler);
      }
    }
    if (rr.station_rds) {
      d.push_back(static_cast<double>(rr.station_rds->blocks_ok));
      d.push_back(rr.station_rds->bler);
    }
  }
  d.push_back(result.aggregate_goodput_bps);
  return d;
}

TEST(StreamingThreads, BitIdenticalAcrossThreadCounts) {
  // city_disjoint has two receivers (car + phone) hearing different tags, so
  // at 2 and 8 threads the consumers genuinely overlap with the producer and
  // each other.
  const Scenario sc = golden::city_disjoint();
  std::vector<std::vector<double>> digests;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    StreamingConfig cfg;
    cfg.consumer_threads = threads;
    digests.push_back(decode_digest(StreamingEngine(cfg).run(sc)));
  }
  ASSERT_EQ(digests[0].size(), digests[1].size());
  ASSERT_EQ(digests[0].size(), digests[2].size());
  for (std::size_t i = 0; i < digests[0].size(); ++i) {
    EXPECT_EQ(digests[0][i], digests[1][i]) << "1 vs 2 threads, field " << i;
    EXPECT_EQ(digests[0][i], digests[2][i]) << "1 vs 8 threads, field " << i;
  }
}

TEST(StreamingThreads, TinyRingForcesBackpressureWithoutDivergence) {
  // ring_blocks = 1: the producer can never run ahead; every block hands off
  // through a full-ring wait. Results must not change.
  const Scenario sc = golden::solo_poster();
  StreamingConfig roomy;
  roomy.consumer_threads = 2;
  roomy.ring_blocks = 16;
  StreamingConfig tight;
  tight.consumer_threads = 2;
  tight.ring_blocks = 1;
  const auto a = decode_digest(StreamingEngine(roomy).run(sc));
  const auto b = decode_digest(StreamingEngine(tight).run(sc));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(StreamingThreads, SlowConsumerOnlySlowsTheRun) {
  // A deliberately slow on_link callback stalls the consumer mid-stream; the
  // producer must wait (bounded ring), not drop or scramble blocks.
  const Scenario sc = golden::solo_poster();
  StreamingConfig cfg;
  cfg.consumer_threads = 1;
  cfg.ring_blocks = 2;
  std::atomic<int> events{0};
  cfg.on_link = [&](const StreamingLinkEvent&) {
    events.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  const auto slow = decode_digest(StreamingEngine(cfg).run(sc));
  EXPECT_GT(events.load(), 0);
  const auto fast = decode_digest(StreamingEngine(StreamingConfig{}).run(sc));
  ASSERT_EQ(slow.size(), fast.size());
  for (std::size_t i = 0; i < slow.size(); ++i) EXPECT_EQ(slow[i], fast[i]) << i;
}

TEST(StreamingThreads, ConsumerFailureTearsDownCleanly) {
  // An exception from a consumer (via the on_link callback) must stop the
  // ring, unblock the producer, join every worker and surface the error —
  // promptly, with no deadlock even with a tiny ring.
  const Scenario sc = golden::city_disjoint();
  StreamingConfig cfg;
  cfg.consumer_threads = 2;
  cfg.ring_blocks = 1;
  cfg.on_link = [](const StreamingLinkEvent&) {
    throw std::runtime_error("injected consumer failure");
  };
  // A teardown deadlock would hang here and trip the ctest timeout.
  EXPECT_THROW(StreamingEngine(cfg).run(sc), std::runtime_error);
}

TEST(StreamingThreads, MoreThreadsThanReceiversIsFine) {
  // solo_poster has one receiver; 8 consumers means 7 idle threads that must
  // still participate in ring release so the producer never stalls forever.
  const Scenario sc = golden::solo_poster();
  StreamingConfig cfg;
  cfg.consumer_threads = 8;
  cfg.ring_blocks = 2;
  const auto a = decode_digest(StreamingEngine(cfg).run(sc));
  const auto b = decode_digest(StreamingEngine(StreamingConfig{}).run(sc));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(StreamingThreads, RejectsDegenerateConfig) {
  StreamingConfig zero_threads;
  zero_threads.consumer_threads = 0;
  EXPECT_THROW(StreamingEngine{zero_threads}, std::invalid_argument);
  StreamingConfig zero_ring;
  zero_ring.ring_blocks = 0;
  EXPECT_THROW(StreamingEngine{zero_ring}, std::invalid_argument);
  // Non-finite bounds: NaN passed the `<= 0` horizon check, and an infinite
  // decision window reached a float-to-size_t cast (undefined behaviour).
  // std::bit_cast skips units.h's asserting constructor, so Debug builds
  // reach the engine's check too.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    StreamingConfig horizon;
    horizon.station_horizon = std::bit_cast<units::Seconds>(v);
    EXPECT_THROW(StreamingEngine{horizon}, std::invalid_argument)
        << "station_horizon = " << v;
    StreamingConfig window;
    window.decision_window = std::bit_cast<units::Seconds>(v);
    EXPECT_THROW(StreamingEngine{window}, std::invalid_argument)
        << "decision_window = " << v;
  }
  // A non-positive finite window still means "buffer the whole run".
  StreamingConfig whole_run;
  whole_run.decision_window = units::Seconds{0.0};
  EXPECT_NO_THROW(StreamingEngine{whole_run});
}

}  // namespace
}  // namespace fmbs::core
