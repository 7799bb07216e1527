// Statistical-equivalence study for the receiver-noise placement: receiver
// AWGN is drawn at the tuned 240 kHz MPX rate and added after the channel
// filter (colored by rx::Tuner::noise_shaping_taps), where it used to be
// drawn at the 2.4 MHz RF rate and filtered by the tuner. The two are the
// same process within the channel (tests/rx/test_tuner.cpp pins that), but
// every noise sample differs, so individual golden traces may move. This
// study is the evidence that they move only by chance.
//
// Golden-regeneration protocol (reused by every change that alters noise or
// float rounding):
//   1. Build this binary against the commit BEFORE the change and record the
//      old engine's pooled statistics over kSeeds seeds per cell:
//        ./integration_test_noise_placement_study --record
//      writes tests/golden/studies/<study>.json; commit that file.
//   2. On the new engine the test reruns the same cells on the same seeds and
//      requires each cell's bit-error rate and block-error rate to sit inside
//      a 99% two-proportion interval around the recorded one.
//   3. Regenerate the golden traces (golden_test_golden_traces
//      --update-golden) in the commit that adds the study.
// Bit errors cluster within a burst, so the bit-level interval is stricter
// than its nominal 99%: a lone failing cell calls for a rerun on fresh seeds
// before it is read as a real shift, and a shift that persists is a model
// difference to fix, not a cell to drop. (Plain white tuned-rate noise
// failed three Fig. 8 cells here; on 128 seeds its +0.024 BER at 1.6 kbps,
// 30 ft held, which is why the tuned-rate noise is shaped.)
//
// Cells: every data tag of the six golden scenarios (the golden seed is
// replaced by derive_seed(golden seed, k), k < kSeeds), plus the Fig. 8
// scene through its BER knee: 1.6 and 3.2 kbps at -55 dBm from 16 to 30 ft
// (the 1.6 kbps knee falls between Fig. 8's -50 and -60 dBm rows).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/sweep_runner.h"
#include "fm/rds.h"
#include "golden/golden_io.h"
#include "golden/golden_scenarios.h"

#ifndef FMBS_STUDY_FIXTURE
#error "FMBS_STUDY_FIXTURE must name the recorded study (set by CMakeLists.txt)"
#endif

namespace fmbs::golden {
namespace {

bool g_record = false;

constexpr std::size_t kSeeds = 32;
constexpr double kZ99 = 2.5758293035489;  // two-sided 99% normal quantile

/// Pooled outcome of one cell over all seeds.
struct CellCounts {
  std::uint64_t bit_errors = 0;
  std::uint64_t bits = 0;
  std::uint64_t block_errors = 0;  ///< failed packets (FSK) or RDS blocks
  std::uint64_t blocks = 0;
};

/// One scenario family: a factory from the study seed to the scenario.
struct Family {
  std::string name;
  std::function<core::Scenario(std::uint64_t seed)> make;
};

core::Scenario fig08_cell(tag::DataRate rate, std::size_t bits,
                          double distance_ft, std::uint64_t seed) {
  // bench_fig08_ber_overlay's scene, station pinned as the sweep pins it.
  core::Scenario sc;
  sc.name = "fig08";
  sc.seed = seed;
  sc.station.seed = 8;
  sc.station.program.genre = audio::ProgramGenre::kNews;
  sc.duration = units::Seconds{
      static_cast<double>(bits) / tag::bits_per_second(rate) + 0.15};
  core::ScenarioTag t;
  t.name = "tag";
  t.rate = rate;
  t.num_bits = bits;
  t.tag_power = units::Dbm{-55.0};
  t.distance_override = units::Feet{distance_ft};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

std::vector<Family> study_families() {
  std::vector<Family> families;
  const std::vector<core::Scenario (*)()> goldens = {
      solo_poster,      city_disjoint,  aloha_burst,
      two_station_city, mobile_handoff, rds_city};
  for (core::Scenario (*make)() : goldens) {
    const core::Scenario base = make();
    families.push_back({base.name, [make](std::uint64_t k) {
                          core::Scenario sc = make();
                          sc.seed = core::derive_seed(sc.seed, k);
                          return sc;
                        }});
  }
  struct Knee {
    tag::DataRate rate;
    std::size_t bits;
    const char* label;
  };
  for (const Knee& knee : {Knee{tag::DataRate::k1600bps, 640, "1600bps"},
                           Knee{tag::DataRate::k3200bps, 960, "3200bps"}}) {
    for (const double ft : {16.0, 20.0, 24.0, 30.0}) {
      families.push_back(
          {"fig08_" + std::string(knee.label) + "_" +
               std::to_string(static_cast<int>(ft)) + "ft",
           [knee, ft](std::uint64_t k) {
             return fig08_cell(knee.rate, knee.bits, ft,
                               core::derive_seed(0xf08, k));
           }});
    }
  }
  return families;
}

/// Runs every family on every study seed; cells are "<family>/<tag>".
std::map<std::string, CellCounts> run_study() {
  const std::vector<Family> families = study_families();
  struct Job {
    std::size_t family;
    core::Scenario scenario;
  };
  std::vector<Job> jobs;
  jobs.reserve(families.size() * kSeeds);
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (std::size_t k = 0; k < kSeeds; ++k) {
      jobs.push_back({f, families[f].make(k)});
    }
  }
  core::SweepRunner runner;
  const core::ScenarioEngine engine({.keep_captures = false});
  const std::vector<core::ScenarioResult> results =
      runner.map(jobs, [&engine](const Job& job) {
        return engine.run(job.scenario);
      });

  std::map<std::string, CellCounts> cells;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const core::Scenario& sc = jobs[j].scenario;
    for (const core::TagLinkReport& link : results[j].best_per_tag) {
      const core::ScenarioTag& tag = sc.tags[link.tag_index];
      CellCounts& c = cells[families[jobs[j].family].name + "/" + tag.name];
      if (link.rds) {
        // Unsynced: every block of the RadioText counts as lost.
        const std::size_t seen = link.rds->blocks_ok + link.rds->blocks_failed;
        const std::size_t sent =
            4 * fm::make_radiotext_groups(tag.rds_radiotext).size();
        c.blocks += link.rds->synced ? seen : sent;
        c.block_errors += link.rds->synced ? link.rds->blocks_failed : sent;
      } else {
        c.bit_errors += link.burst.ber.bit_errors;
        c.bits += link.burst.ber.bits_compared;
        c.blocks += link.burst.packets;
        c.block_errors += link.burst.packets - link.burst.packets_ok;
      }
    }
  }
  return cells;
}

// ---- Fixture I/O ------------------------------------------------------------

void write_study(const std::string& path,
                 const std::map<std::string, CellCounts>& cells) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n  \"seeds\": " << kSeeds << ",\n  \"cells\": [\n";
  std::size_t i = 0;
  for (const auto& [name, c] : cells) {
    out << "    {\"cell\": \"" << json_escape(name)
        << "\", \"bit_errors\": " << c.bit_errors << ", \"bits\": " << c.bits
        << ", \"block_errors\": " << c.block_errors
        << ", \"blocks\": " << c.blocks << "}"
        << (++i < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

std::map<std::string, CellCounts> read_study(const std::string& path,
                                             std::size_t& seeds) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing study fixture " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  detail::JsonCursor cur(buf.str());
  std::map<std::string, CellCounts> cells;
  cur.expect('{');
  do {
    const std::string key = cur.parse_string();
    cur.expect(':');
    if (key == "seeds") {
      seeds = static_cast<std::size_t>(cur.parse_number());
    } else if (key == "cells") {
      cur.expect('[');
      do {
        cur.expect('{');
        std::string name;
        CellCounts c;
        do {
          const std::string field = cur.parse_string();
          cur.expect(':');
          if (field == "cell") {
            name = cur.parse_string();
            continue;
          }
          const auto v = static_cast<std::uint64_t>(cur.parse_number());
          if (field == "bit_errors") c.bit_errors = v;
          if (field == "bits") c.bits = v;
          if (field == "block_errors") c.block_errors = v;
          if (field == "blocks") c.blocks = v;
        } while (cur.consume(','));
        cur.expect('}');
        cells[name] = c;
      } while (cur.consume(','));
      cur.expect(']');
    } else {
      throw std::runtime_error("study fixture: unknown key " + key);
    }
  } while (cur.consume(','));
  cur.expect('}');
  return cells;
}

// ---- The equivalence check --------------------------------------------------

/// Pooled two-proportion z-test at 99%: |p_old - p_new| within kZ99 standard
/// errors of the pooled proportion. Identical proportions (including 0 vs 0)
/// always pass.
bool within_interval(std::uint64_t x_old, std::uint64_t n_old,
                     std::uint64_t x_new, std::uint64_t n_new) {
  if (n_old == 0 || n_new == 0) return n_old == n_new;
  const double p_old = static_cast<double>(x_old) / static_cast<double>(n_old);
  const double p_new = static_cast<double>(x_new) / static_cast<double>(n_new);
  if (p_old == p_new) return true;
  const double pooled = static_cast<double>(x_old + x_new) /
                        static_cast<double>(n_old + n_new);
  const double se = std::sqrt(pooled * (1.0 - pooled) *
                              (1.0 / static_cast<double>(n_old) +
                               1.0 / static_cast<double>(n_new)));
  return std::abs(p_old - p_new) <= kZ99 * se;
}

TEST(NoisePlacementStudy, EveryCellWithinTheRecordedInterval) {
  const std::map<std::string, CellCounts> fresh = run_study();
  if (g_record) {
    write_study(FMBS_STUDY_FIXTURE, fresh);
    SUCCEED() << "recorded " << FMBS_STUDY_FIXTURE;
    return;
  }
  std::size_t seeds = 0;
  const std::map<std::string, CellCounts> recorded =
      read_study(FMBS_STUDY_FIXTURE, seeds);
  ASSERT_EQ(seeds, kSeeds) << "the fixture was recorded on other seeds";
  ASSERT_EQ(recorded.size(), fresh.size()) << "cell set changed";
  std::printf("%-36s %17s %17s %13s %13s\n", "cell", "BER old", "BER new",
              "BLER old", "BLER new");
  for (const auto& [name, now] : fresh) {
    const auto it = recorded.find(name);
    ASSERT_NE(it, recorded.end()) << name << " missing from the fixture";
    const CellCounts& then = it->second;
    const auto ratio = [](std::uint64_t x, std::uint64_t n) {
      return n == 0 ? 0.0 : static_cast<double>(x) / static_cast<double>(n);
    };
    std::printf("%-36s %6llu/%-6llu %.4f %6llu/%-6llu %.4f %4llu/%-4llu %.3f "
                "%4llu/%-4llu %.3f\n",
                name.c_str(), static_cast<unsigned long long>(then.bit_errors),
                static_cast<unsigned long long>(then.bits),
                ratio(then.bit_errors, then.bits),
                static_cast<unsigned long long>(now.bit_errors),
                static_cast<unsigned long long>(now.bits),
                ratio(now.bit_errors, now.bits),
                static_cast<unsigned long long>(then.block_errors),
                static_cast<unsigned long long>(then.blocks),
                ratio(then.block_errors, then.blocks),
                static_cast<unsigned long long>(now.block_errors),
                static_cast<unsigned long long>(now.blocks),
                ratio(now.block_errors, now.blocks));
    EXPECT_TRUE(within_interval(then.bit_errors, then.bits, now.bit_errors,
                                now.bits))
        << name << ": bit-error rate left the 99% interval";
    EXPECT_TRUE(within_interval(then.block_errors, then.blocks,
                                now.block_errors, now.blocks))
        << name << ": block-error rate left the 99% interval";
  }
}

TEST(NoisePlacementStudy, IntervalRejectsARealShift) {
  // The check has teeth: 1% vs 3% over 30k bits is far outside 99%, while
  // 100 vs 110 errors in 10k bits is a chance-level wobble.
  EXPECT_FALSE(within_interval(300, 30000, 900, 30000));
  EXPECT_TRUE(within_interval(100, 10000, 110, 10000));
  EXPECT_TRUE(within_interval(0, 4096, 0, 4096));
  EXPECT_FALSE(within_interval(0, 4096, 40, 4096));
}

}  // namespace
}  // namespace fmbs::golden

// Custom main so the binary understands --record (rewrites the fixture from
// whichever engine this binary was built against).
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--record") {
      fmbs::golden::g_record = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
