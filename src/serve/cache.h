// Content-addressed LRU result caches for the estimation service.
//
// Keys are 128-bit content hashes (util/hash.h) over everything that
// determines the cached value — see serve/wire.h for the exact key
// definitions — so a hit is *bitwise identical* to a recompute by
// construction: equal keys imply equal inputs, and the estimation pipeline
// is deterministic in its inputs (including across thread counts, PR 1).
//
// The cache is a plain bounded LRU: thread-safe, entry-count bounded,
// eviction from the least-recently-used end, with hit/miss/eviction/insert
// counters. It deliberately has no TTLs or size-adaptive policies — model
// hot-reloads change the model digest, which changes every key, so stale
// entries age out through normal LRU pressure.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/fault.h"
#include "util/hash.h"

namespace m3::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  // current occupancy

  /// e.g. "42 hits, 7 misses, 7 inserts, 3 evictions, 4 entries".
  std::string ToString() const;
};

struct Hash128Hasher {
  std::size_t operator()(const Hash128& h) const noexcept {
    // The key is already uniformly mixed; fold the lanes.
    return static_cast<std::size_t>(h.hi ^ h.lo);
  }
};

template <typename V>
class LruCache {
 public:
  /// `capacity` = max entries; 0 disables the cache (every lookup misses,
  /// inserts are dropped).
  explicit LruCache(std::size_t capacity, const char* fault_site = nullptr)
      : capacity_(capacity), fault_site_(fault_site) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns a copy of the cached value and promotes the entry to
  /// most-recently-used. The serve-layer fault site (when configured) fires
  /// *before* the probe so an injected cache outage is indistinguishable
  /// from a real one to the caller. `count_miss` false leaves the counters
  /// alone on a miss: for a probe that a counted lookup of the same query
  /// follows, so each query counts one hit or one miss.
  std::optional<V> Lookup(const Hash128& key, bool count_miss = true) {
    if (fault_site_ != nullptr) M3_FAULT_POINT(fault_site_);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      if (count_miss) ++stats_.misses;
      return std::nullopt;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++stats_.hits;
    return it->second->second;
  }

  /// Inserts (or refreshes) `key`, evicting from the LRU end as needed.
  void Insert(const Hash128& key, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Deterministic inputs mean the value can only be byte-identical;
      // refresh recency, keep the original bytes.
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    ++stats_.inserts;
    while (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++stats_.evictions;
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    order_.clear();
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats s = stats_;
    s.entries = order_.size();
    return s;
  }

  std::size_t capacity() const { return capacity_; }

  /// Keys from most- to least-recently-used (test introspection).
  std::vector<Hash128> KeysByRecency() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Hash128> keys;
    keys.reserve(order_.size());
    for (const auto& kv : order_) keys.push_back(kv.first);
    return keys;
  }

 private:
  const std::size_t capacity_;
  const char* const fault_site_;
  mutable std::mutex mu_;
  std::list<std::pair<Hash128, V>> order_;  // front = most recent
  std::unordered_map<Hash128, typename std::list<std::pair<Hash128, V>>::iterator,
                     Hash128Hasher>
      index_;
  CacheStats stats_;
};

}  // namespace m3::serve
