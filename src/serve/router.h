// m3d-router: a failure-tolerant scatter-gather front-end over N shard
// m3d daemons.
//
// The router addresses and merges; it never decomposes a query or builds a
// path scenario. A query's `num_paths` sample slots (none when it has no
// flows) are placed on the consistent-hash ring by a hash of (query key,
// slot): one query's slots spread over the fleet, and a repeat places them
// as before. Validation stays on the shards: a request their validator
// rejects ends with that status and marks no shard down.
//
// Exact repeats are answered from a whole-query cache in front of
// everything else, with the service's key and value (QueryCacheKey,
// QueryResponse); an entry is served only while its model CRC matches the
// live fleet's.
//
// Slots are grouped per owning shard and dispatched as ShardQueryRequests;
// shards estimate only their slots and return raw per-slot estimates,
// which the router merges positionally and re-aggregates with the same
// Clamp/Aggregate/Combine sequence the single-host pipeline uses — a
// fault-free scattered answer is bitwise identical to a one-daemon answer.
//
// Robustness (the reason this binary exists):
//   liveness           — one signal per shard, `healthy`: a ready ping or an
//                        answered dispatch sets it, a failed probe or a
//                        failed connect clears it. Slots owned by an
//                        unhealthy shard go straight to their next ring
//                        replica.
//   replica walk       — a failed or refused sub-request re-dispatches each
//                        of its slots at once to the slot's next distinct
//                        ring replica (`replicas` shards per slot in all).
//   degradation ladder — slots no replica could serve fall back to a
//                        router-side flowSim estimate (counted degraded;
//                        the only time the router builds the tree and
//                        flows), then to a reweighted drop; the merged
//                        DegradationReport plus per-shard ShardReportWire
//                        rows attribute every slot.
//
// A router with every shard down still answers every query (all-fallback,
// status kDegraded) — degraded, never failed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/exec.h"
#include "serve/shardmap.h"
#include "serve/wire.h"
#include "util/socket.h"

namespace m3::serve {

struct RouterOptions {
  // Shard endpoint specs: "tcp:host:port", "unix:/path", or a bare socket
  // path. At least one is required.
  std::vector<std::string> shards;
  int vnodes = 64;    // ring points per shard
  int replicas = 2;   // distinct shards tried per slot before fallback
  double connect_timeout_seconds = 2.0;
  // Per-sub-request answer bound (<= 0: wait indefinitely). The client
  // query's own deadline, when tighter, wins.
  double shard_timeout_seconds = 30.0;
  double health_interval_seconds = 0.5;
  // Thread width for the flowSim fallback (M3Options::num_threads
  // semantics; 0 = hardware).
  unsigned fallback_threads = 0;
  // Idle connections kept per shard between queries.
  std::size_t pool_per_shard = 4;
  // Router-side whole-query cache: merged kOk answers keyed by
  // QueryCacheKey, consulted before validation so exact repeats never reach
  // the fleet. Entries are tied to the fleet's model *content CRC* (learned
  // from shard pings). 0 disables it.
  std::size_t query_cache_entries = 256;
};

class Router {
 public:
  explicit Router(const RouterOptions& opts);
  ~Router();  // Stop()s

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Parses the shard specs, builds the ring, runs one synchronous health
  /// probe round (so a query issued right after Start sees live shards),
  /// and starts the prober thread. kInvalidArgument on no/malformed shards
  /// or if already started.
  Status Start();

  /// Joins the prober and closes pooled connections. Idempotent.
  void Stop();

  /// Scatter-gathers one query across the fleet. Always returns an answer
  /// (possibly fully degraded); see the file comment for the ladder.
  /// Thread-safe.
  QueryResponse Query(const QueryRequest& req);

  /// Router readiness: ready when >= 1 shard is healthy.
  PingResponse Ping() const;

  /// Router counters + per-shard health rows (router_mode stats).
  ServerStatsWire Stats() const;

  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    Endpoint ep;
    std::string name;  // canonical endpoint string (ring + report identity)
    // The shard's one liveness signal (see the file comment).
    std::atomic<bool> healthy{false};
    std::atomic<std::uint64_t> model_version{0};
    std::atomic<std::uint32_t> model_crc{0};  // content CRC from pings
    // Cumulative counters (ShardHealthWire).
    std::atomic<std::uint64_t> dispatches{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> slots_fallback{0};
    std::atomic<std::uint64_t> slots_dropped{0};
    std::mutex pool_mu;
    std::vector<UnixFd> pool;  // idle connections

    Shard(Endpoint e, std::string n) : ep(std::move(e)), name(std::move(n)) {}
  };

  /// One framed request/response exchange with a shard: pooled or fresh
  /// connection, send + bounded recv, decode. A stale pooled connection
  /// (closed by the shard between queries) gets one fresh-connection retry;
  /// a recv timeout never does (the shard may be mid-compute — resending
  /// would double the work). Updates dispatches/failures, and clears the
  /// healthy flag on a failed connect.
  /// The request payload is `head` (the round's shared version and
  /// embedded query) followed by `slots` (this shard's slot list).
  StatusOr<ShardQueryResponse> CallShard(Shard& s, std::string_view head, std::string_view slots,
                                         double recv_timeout_seconds);

  /// One liveness probe: ping over a throwaway connection; `healthy`
  /// becomes the ping's readiness (false when it fails).
  void ProbeShard(Shard& s);
  void HealthLoop();

  /// The fleet's current model identity: (version, param CRC) of the
  /// highest-versioned healthy shard; (0, 0) when none is healthy.
  std::pair<std::uint64_t, std::uint32_t> FleetModel() const;

  const RouterOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<HashRing> ring_;
  mutable TopoMemo topos_;

  // Router-side whole-query cache.
  mutable LruCache<QueryResponse> query_cache_;

  std::thread prober_;
  mutable std::mutex mu_;  // started_/stopping_ + prober wakeup
  std::condition_variable stop_cv_;
  bool started_ = false;
  bool stopping_ = false;

  std::atomic<std::uint64_t> queries_received_{0};
  std::atomic<std::uint64_t> queries_ok_{0};
  std::atomic<std::uint64_t> queries_failed_{0};
  // Queries the router shed because the deadline budget could not cover a
  // dispatch (ShedReason kRouterBudget); disjoint from ok/failed.
  std::atomic<std::uint64_t> queries_shed_{0};
};

}  // namespace m3::serve
