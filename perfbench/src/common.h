// Shared plumbing of the repository benchmark: clocks, peak RSS, order
// statistics, the result record every workload fills, and the span ledger
// the traced runs charge layer time to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short timed phase: the benchmark's own self-test.
  bool smoke = false;
};

/// Set-up runs from a cleared station cache at least kSetupRepeats times
/// and for at least kSetupSeconds in all, half before the timed loop and
/// half after it, so that one slow stretch of the host cannot cover every
/// repeat; the fast decile (fast_time) of the repeats is the reported
/// setup_s.
inline constexpr std::size_t kSetupRepeats = 12;
inline constexpr double kSetupSeconds = 3.0;

/// Whether set-up should run again, given the times of its repeats so far:
/// until `share` of kSetupRepeats and kSetupSeconds are done.
bool more_setups(const std::vector<double>& setup_s, double share);

/// Host seconds on the steady clock.
double wall_now();
/// CPU seconds consumed by every thread of this process.
double cpu_now();
/// Peak resident set of this process (VmHWM), MiB. Each workload runs in a
/// process of its own, so this is the workload's own high-water mark.
double peak_rss_mib();

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The fast decile of a run's samples, which every end-to-end metric
/// reports: the lower decile of times (fast_time) and the upper decile of
/// rates (fast_rate), by nearest rank (the second-fastest of 11 to 20
/// samples). The shared hosts the benchmark runs on slow a thread by up to
/// 1.8x for stretches of seconds, CPU time included; the host only ever
/// adds time, so a run's median moves with how much of it those stretches
/// covered while its fast decile tracks the program.
double fast_time(const std::vector<double>& v);
double fast_rate(const std::vector<double>& v);

/// FNV-1a accumulator for the decoded-results digest (printed beside the
/// checks for information; the checks themselves are physics-level).
class Digest {
 public:
  void add(const void* data, std::size_t n);
  void add(double v) { add(&v, sizeof v); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<std::string> notes;     ///< human-readable context lines

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one correctness check; records it when it fails.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Accumulated host time and call count per named stage.
class Ledger {
 public:
  struct Stage {
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  /// Times one call of `fn` and charges it to `stage`.
  template <typename Fn>
  decltype(auto) time(const char* stage, Fn&& fn) {
    const double t0 = wall_now();
    struct Charge {
      Ledger* ledger;
      const char* stage;
      double t0;
      ~Charge() {
        Stage& s = ledger->stages_[stage];
        s.seconds += wall_now() - t0;
        s.calls += 1;
      }
    } charge{this, stage, t0};
    return fn();
  }

  const std::map<std::string, Stage>& stages() const { return stages_; }
  double total_seconds() const;

 private:
  std::map<std::string, Stage> stages_;
};

/// One closed-loop submission: a whole stream run, capacity point or sweep
/// batch.
struct LoopUnit {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU, all threads
  double sim_s = 0.0;  ///< simulated seconds it rendered or resolved
  std::size_t points = 1;
};

/// The end-to-end metrics every workload reports: point_s, the fast
/// decile of the per-point host times, and sim_rtf, cpu_s_per_sim_s and
/// points_per_s as fast deciles over the loop's units.
void report_points(Report& report, const std::vector<double>& point_seconds,
                   const std::vector<LoopUnit>& units);

/// fm.station_cache_{hits,misses,hit_ratio} of the timed phase.
void report_cache_stats(Report& report, std::uint64_t hits, std::uint64_t misses);

/// Workload entry points (workload_*.cpp).
Report run_city_stream(const Options& opt);
Report run_fleet_metro(const Options& opt);
Report run_fleet_saturated(const Options& opt);
Report run_sweep_fig08(const Options& opt);

}  // namespace perfbench
