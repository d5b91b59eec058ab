// Shard placement for the m3d-router fleet.
//
// HashRing: consistent hashing with virtual nodes. Each shard contributes
// `vnodes` points on a u64 ring (hashed from its address string, so the
// mapping is stable across router restarts and across routers pointed at
// the same fleet); a key is owned by the first point clockwise from it.
// Preference(key) walks further clockwise collecting *distinct* shards —
// the retry order for that key. The router's keys are hashes of
// (query key, sample slot). Adding or removing one shard moves only the
// keys that shard owned.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace m3::serve {

class HashRing {
 public:
  /// `vnodes` points per shard (>= 1; clamped). Shard indices in lookups
  /// refer to positions in `shards`.
  HashRing(const std::vector<std::string>& shards, int vnodes = 64);

  std::size_t num_shards() const { return num_shards_; }

  /// The shard owning `key`, or -1 on an empty ring.
  int Owner(const Hash128& key) const;

  /// Up to `max_shards` distinct shards in clockwise order from `key`'s
  /// owner (0 = all shards). The owner is always first; this is the
  /// dispatch order for the key's retries.
  std::vector<int> Preference(const Hash128& key, std::size_t max_shards = 0) const;

 private:
  // (ring point, shard index), sorted by point.
  std::vector<std::pair<std::uint64_t, int>> ring_;
  std::size_t num_shards_ = 0;
};

}  // namespace m3::serve
