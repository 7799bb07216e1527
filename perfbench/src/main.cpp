// fmbs_perfbench: runs one benchmark workload and prints one JSON line:
//   {"correct", "attempted", "failed", "metrics", "seed", "workload",
//    "stamp", "notes", "failures"}
// perfbench/run.py builds this binary, runs each workload in a process of
// its own and reduces the line to the benchmark's result record.
//
//   fmbs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.h"

namespace {

using namespace perfbench;

/// Per-layer metrics every traced run reports. A layer a workload does not
/// trace reads 0 there (see perfbench/README.md for which workload owns
/// which metric).
const std::map<std::string, std::string> kPerLayer = {
    {"dsp.upmix_ns_per_sim_s", "ns/s"},
    {"fm.station_loop_mod_ns_per_sim_s", "ns/s"},
    {"tag.compose_ns_per_sim_s", "ns/s"},
    {"channel.superpose_ns_per_sim_s", "ns/s"},
    {"channel.awgn_ns_per_sim_s", "ns/s"},
    {"rx.tuner_ns_per_sim_s", "ns/s"},
    {"fm.demod_ns_per_sim_s", "ns/s"},
    {"fm.stereo_ns_per_sim_s", "ns/s"},
    {"rx.device_ns_per_sim_s", "ns/s"},
    {"rx.fsk_ns_per_sim_s", "ns/s"},
    {"rx.rds_ns_per_sim_s", "ns/s"},
    {"count.rf_samples_per_sim_s", "count/s"},
    {"count.gaussian_draws_per_sim_s", "count/s"},
    {"count.fir_macs_per_sim_s", "count/s"},
    {"replay.coverage", "ratio"},
    {"core.streaming_cpu_per_wall", "ratio"},
    {"core.streaming_peak_buffer_bytes", "bytes"},
    {"core.plan_s", "s"},
    {"core.fleet_nonplan_s", "s"},
    {"core.fleet_host_s_per_phy_sim_s", "s/s"},
    {"core.fleet_links_analytic_clear", "count"},
    {"core.fleet_links_analytic_collision", "count"},
    {"core.fleet_links_phy", "count"},
    {"core.fleet_phy_clusters", "count"},
    {"core.fleet_phy_subscene_sim_s", "s"},
    {"fm.station_cache_hits", "count"},
    {"fm.station_cache_misses", "count"},
    {"fm.station_cache_hit_ratio", "ratio"},
    {"fm.station_render_s", "s"},
    {"core.sweep_point_busy_s", "s"},
    {"core.sweep_pool_utilization", "ratio"},
    {"core.sweep_point_p90_s", "s"},
    {"core.sweep_slowest_point_s", "s"},
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + quoted(items[i]);
  }
  return out + "]";
}

int usage() {
  std::cerr << "usage: fmbs_perfbench --workload <city_stream|fleet_metro|"
               "fleet_saturated|sweep_fig08> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  const std::map<std::string, Report (*)(const Options&)> workloads = {
      {"city_stream", run_city_stream},
      {"fleet_metro", run_fleet_metro},
      {"fleet_saturated", run_fleet_saturated},
      {"sweep_fig08", run_sweep_fig08},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end() || !(opt.seconds > 0.0)) return usage();

  Report report;
  try {
    report = it->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "fmbs_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (opt.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      if (!report.metrics.count(name)) report.metric(name, 0.0, unit);
    }
  }

  std::string metrics = "{";
  for (const auto& [name, m] : report.metrics) {
    metrics += (metrics.size() > 1 ? ", " : "") + quoted(name) +
               ": {\"value\": " + number(m.value) + ", \"unit\": " +
               quoted(m.unit) + "}";
  }
  metrics += "}";
#ifdef FMBS_SIMD
  const bool simd = true;
#else
  const bool simd = false;
#endif
  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": " << metrics
            << ", \"seed\": " << opt.seed
            << ", \"workload\": " << quoted(opt.workload)
            << ", \"stamp\": {\"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"fmbs_simd\": " << (simd ? "true" : "false")
            << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
            << ", \"nproc\": " << std::thread::hardware_concurrency() << "}"
            << ", \"notes\": " << string_list(report.notes)
            << ", \"failures\": " << string_list(report.failures) << "}\n";
  return 0;
}
