// Keyed, thread-safe cache of rendered stations. A station's program and MPX
// depend only on its program, RDS, pre-emphasis and seed settings and the
// render duration — never on tag parameters, nor on the deviation, which only
// the modulator that turns the MPX into IQ reads — so every experiment point
// in a sweep that listens to the same station can share one read-only render
// instead of re-synthesizing it.
//
// Concurrency: the first caller of a key renders outside the lock while
// later callers of the same key block on a shared_future, so concurrent
// sweeps never render the same station twice, and distinct keys render in
// parallel. Entries are immutable once published (shared_ptr<const>).
//
// Multi-station scenes render through a SceneScope: every station rendered
// inside the scope is pinned against eviction until the scope ends (growing
// past capacity transiently if it must), so an 8-station scene can never
// thrash its own renders mid-run, nor have them stolen by a concurrent
// scene on another sweep thread.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fm/transmitter.h"

namespace fmbs::fm {

class StationCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  class SceneScope;

  /// Process-wide instance used by core::simulate.
  static StationCache& instance();

  /// Returns the rendered station for (config, duration), rendering it on
  /// this thread exactly once per key while the entry stays resident. When
  /// the cache is disabled every call renders fresh.
  std::shared_ptr<const StationSignal> render(const StationConfig& config,
                                              units::Seconds duration);

  /// Enables/disables caching globally (enabled by default). Disabling does
  /// not drop resident entries; call clear() for that.
  void set_enabled(bool enabled);

  /// Maximum resident renders; least-recently-used unpinned entries are
  /// evicted. Renders are large (about 1.3 MB per second of station signal:
  /// the MPX plus the stereo program), so the default of 16 bounds the
  /// steady-state footprint while
  /// letting a scenario sweep keep a whole city scene (up to ~10 stations at
  /// the 2.4 MHz scene width) plus a few single-station sweeps resident;
  /// long-lived processes can clear() after a sweep or shrink this.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Drops every unpinned entry (entries pinned by live SceneScopes stay).
  void clear();
  Stats stats() const;
  void reset_stats();

 private:
  struct Key {
    // audio::ProgramConfig, flattened.
    int genre = 0;
    bool stereo = false;
    // Remaining StationConfig fields the render reads.
    double rds_level = 0.0;
    std::string rds_ps_name;
    bool preemphasis = false;
    std::uint64_t seed = 0;
    // Render argument.
    double duration_seconds = 0.0;

    bool operator==(const Key& other) const = default;
  };

  struct Entry {
    Key key;
    std::shared_future<std::shared_ptr<const StationSignal>> signal;
    std::uint64_t last_used = 0;
    /// Live SceneScopes holding this entry; pinned entries are never evicted.
    int pins = 0;
  };

  static Key make_key(const StationConfig& config, units::Seconds duration);

  std::shared_ptr<const StationSignal> render_impl(const StationConfig& config,
                                                   units::Seconds duration,
                                                   SceneScope* scope);
  /// Evicts the least-recently-used unpinned entry; false when all pinned.
  bool evict_one_locked();

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // small (capacity ~16): linear scan is fine
  std::size_t capacity_ = 16;
  std::uint64_t tick_ = 0;
  bool enabled_ = true;
  Stats stats_;
};

/// RAII scope for one RF scene's station renders. Renders requested through
/// the scope behave exactly like StationCache::render, plus the entries stay
/// pinned (unevictable) for the scope's lifetime; a scene with more stations
/// than the cache capacity overflows transiently rather than thrashing. On
/// destruction the pins are released and the cache shrinks back to capacity.
class StationCache::SceneScope {
 public:
  explicit SceneScope(StationCache& cache) : cache_(cache) {}
  ~SceneScope();

  SceneScope(const SceneScope&) = delete;
  SceneScope& operator=(const SceneScope&) = delete;

  /// Renders (config, duration) through the cache and pins the entry.
  std::shared_ptr<const StationSignal> render(const StationConfig& config,
                                              units::Seconds duration);

 private:
  friend class StationCache;

  StationCache& cache_;
  std::vector<Key> keys_;  // distinct keys pinned by this scope
};

}  // namespace fmbs::fm
