#include "fm/station_cache.h"

#include <algorithm>
#include <utility>

namespace fmbs::fm {

StationCache& StationCache::instance() {
  static StationCache cache;
  return cache;
}

StationCache::Key StationCache::make_key(const StationConfig& config,
                                         units::Seconds duration) {
  Key key;
  key.genre = static_cast<int>(config.program.genre);
  key.stereo = config.program.stereo;
  key.rds_level = config.rds_level;
  key.rds_ps_name = config.rds_ps_name;
  key.preemphasis = config.preemphasis;
  key.seed = config.seed;
  key.duration_seconds = duration.raw();
  return key;
}

bool StationCache::evict_one_locked() {
  Entry* oldest = nullptr;
  for (Entry& entry : entries_) {
    if (entry.pins > 0) continue;
    if (oldest == nullptr || entry.last_used < oldest->last_used) {
      oldest = &entry;
    }
  }
  if (oldest == nullptr) return false;  // everything pinned: overflow instead
  entries_.erase(entries_.begin() + (oldest - entries_.data()));
  return true;
}

std::shared_ptr<const StationSignal> StationCache::render(
    const StationConfig& config, units::Seconds duration) {
  return render_impl(config, duration, nullptr);
}

std::shared_ptr<const StationSignal> StationCache::render_impl(
    const StationConfig& config, units::Seconds duration, SceneScope* scope) {
  Key key;
  std::shared_future<std::shared_ptr<const StationSignal>> future;
  std::promise<std::shared_ptr<const StationSignal>> promise;
  bool renderer = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!enabled_) {
      lock.unlock();
      return std::make_shared<const StationSignal>(
          render_station(config, duration));
    }
    key = make_key(config, duration);
    ++tick_;
    for (Entry& entry : entries_) {
      if (entry.key == key) {
        ++stats_.hits;
        entry.last_used = tick_;
        if (scope != nullptr &&
            std::find(scope->keys_.begin(), scope->keys_.end(), key) ==
                scope->keys_.end()) {
          ++entry.pins;
          scope->keys_.push_back(key);
        }
        future = entry.signal;
        break;
      }
    }
    if (!future.valid()) {
      ++stats_.misses;
      if (entries_.size() >= capacity_) evict_one_locked();
      future = promise.get_future().share();
      Entry entry{key, future, tick_, 0};
      if (scope != nullptr) {
        entry.pins = 1;
        scope->keys_.push_back(key);
      }
      entries_.push_back(std::move(entry));
      renderer = true;
    }
  }
  if (renderer) {
    // Render with the lock released: distinct keys proceed in parallel and
    // same-key callers block on the shared future instead of re-rendering.
    try {
      promise.set_value(std::make_shared<const StationSignal>(
          render_station(config, duration)));
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Drop the poisoned entry so later calls retry rather than rethrowing
      // a stale error forever; waiters holding the future still see it.
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(
          std::remove_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.key == key; }),
          entries_.end());
      // The scope's pin died with the entry; forget the key so the scope's
      // destructor cannot decrement a pin owned by a scope that re-created
      // the entry later. (The renderer is the scope-owning thread, so
      // touching keys_ here is safe.)
      if (scope != nullptr) {
        scope->keys_.erase(
            std::remove(scope->keys_.begin(), scope->keys_.end(), key),
            scope->keys_.end());
      }
    }
  }
  return future.get();
}

StationCache::SceneScope::~SceneScope() {
  std::lock_guard<std::mutex> lock(cache_.mutex_);
  for (const Key& key : keys_) {
    for (Entry& entry : cache_.entries_) {
      if (!(entry.key == key)) continue;
      if (entry.pins > 0) --entry.pins;
      break;
    }
  }
  // A pinned scene may have overflowed capacity; shrink back now.
  while (cache_.entries_.size() > cache_.capacity_) {
    if (!cache_.evict_one_locked()) break;
  }
}

std::shared_ptr<const StationSignal> StationCache::SceneScope::render(
    const StationConfig& config, units::Seconds duration) {
  return cache_.render_impl(config, duration, this);
}

void StationCache::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
}

void StationCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
  while (entries_.size() > capacity_) {
    if (!evict_one_locked()) break;  // pinned entries overflow transiently
  }
}

std::size_t StationCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void StationCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [](const Entry& e) { return e.pins == 0; }),
                 entries_.end());
}

StationCache::Stats StationCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void StationCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Stats{};
}

}  // namespace fmbs::fm
