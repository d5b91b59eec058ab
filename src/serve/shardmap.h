// Shard placement + per-shard failure tracking for the m3d-router fleet.
//
// HashRing: consistent hashing with virtual nodes. Each shard contributes
// `vnodes` points on a u64 ring (hashed from its address string, so the
// mapping is stable across router restarts and across routers pointed at
// the same fleet); a key is owned by the first point clockwise from it.
// Preference(key) walks further clockwise collecting *distinct* shards —
// the retry/hedge order for that key. The router's keys are hashes of
// (query key, sample slot). Adding or removing one shard moves only the
// keys that shard owned.
//
// ShardBreaker: a recoverable circuit breaker, one per shard. Unlike the
// supervisor's per-model-digest breaker (serve/supervisor.h) — where a
// quarantined digest stays quarantined for the life of the process because
// a crashing *model* does not heal — a shard is a *peer* that can come
// back, so an open breaker re-closes: `threshold` failures within
// `window_seconds` open it for `cooloff_seconds`; after the cooloff one
// probe dispatch is let through (half-open), and any recorded success
// closes the breaker and clears the window. While open, the router routes
// the shard's keys to the next ring replica instead of burning a timeout
// per query on a peer that is known-down.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
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
  /// dispatch order for the key's retries and hedges.
  std::vector<int> Preference(const Hash128& key, std::size_t max_shards = 0) const;

 private:
  // (ring point, shard index), sorted by point.
  std::vector<std::pair<std::uint64_t, int>> ring_;
  std::size_t num_shards_ = 0;
};

struct ShardBreakerOptions {
  int threshold = 3;              // failures within the window that trip it
  double window_seconds = 10.0;
  double cooloff_seconds = 2.0;   // open duration before the half-open probe
};

class ShardBreaker {
 public:
  explicit ShardBreaker(const ShardBreakerOptions& opts = ShardBreakerOptions());

  /// May a dispatch go to this shard right now? Closed: always true.
  /// Open: false until the cooloff expires, then true exactly once per
  /// cooloff period (the half-open probe — callers that get true while
  /// open own the probe). Thread-safe.
  bool Allow();

  /// Charges one failure; trips the breaker at the threshold. Failures
  /// while open (a failed probe) re-arm the full cooloff.
  void RecordFailure();

  /// Closes the breaker and clears the failure window.
  void RecordSuccess();

  bool open() const;
  std::uint64_t trips() const;

 private:
  using Clock = std::chrono::steady_clock;

  const ShardBreakerOptions opts_;
  mutable std::mutex mu_;
  std::deque<Clock::time_point> failures_;  // within the window
  bool open_ = false;
  Clock::time_point probe_at_{};  // while open: when the next probe may go
  std::uint64_t trips_ = 0;
};

}  // namespace m3::serve
