#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("peak RSS unavailable: no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool more_setups(const std::vector<double>& setup_s, double share) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return static_cast<double>(setup_s.size()) <
             share * static_cast<double>(kSetupRepeats) ||
         total < share * kSetupSeconds;
}

double fast_time(const std::vector<double>& v) { return quantile(v, 0.1); }

double fast_rate(const std::vector<double>& v) { return quantile(v, 0.9); }

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

double Ledger::total_seconds() const {
  double sum = 0.0;
  for (const auto& [name, stage] : stages_) sum += stage.seconds;
  return sum;
}

void report_points(Report& report, const std::vector<double>& point_seconds,
                   const std::vector<LoopUnit>& units) {
  std::vector<double> rtf, cpu, rate;
  for (const LoopUnit& u : units) {
    rtf.push_back(u.sim_s / u.wall_s);
    cpu.push_back(u.cpu_s / u.sim_s);
    rate.push_back(static_cast<double>(u.points) / u.wall_s);
  }
  report.metric("sim_rtf", fast_rate(rtf), "x");
  report.metric("cpu_s_per_sim_s", fast_time(cpu), "s/s");
  report.metric("point_s", fast_time(point_seconds), "s");
  report.metric("points_per_s", fast_rate(rate), "1/s");
  report.note("points timed: " + std::to_string(point_seconds.size()) +
              " in " + std::to_string(units.size()) + " closed-loop units");
}

void report_cache_stats(Report& report, std::uint64_t hits,
                        std::uint64_t misses) {
  report.metric("fm.station_cache_hits", static_cast<double>(hits), "count");
  report.metric("fm.station_cache_misses", static_cast<double>(misses), "count");
  const std::uint64_t lookups = hits + misses;
  report.metric("fm.station_cache_hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(lookups),
                "ratio");
}

}  // namespace perfbench
