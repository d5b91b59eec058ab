// EstimationService: the m3d daemon's core, usable in-process.
//
// One service owns the three serving-side resources and wires them to the
// estimation pipeline:
//
//   ModelRegistry     — shared immutable model snapshots, atomic hot-reload
//   request scheduler — bounded MPMC per-priority-class queues + worker
//                       threads; a full queue rejects new work, workers
//                       drain the highest class first (DESIGN.md §13);
//                       per-request deadlines map onto
//                       M3Options::deadline_seconds and expired queued
//                       requests are reaped eagerly
//   result cache      — a whole-query content-addressed LRU
//                       (serve/cache.h); only full-quality kOk answers are
//                       cached, so a hit is always bitwise identical to a
//                       fault-free recompute. Query() answers a hit on the
//                       calling thread, before admission
//
// Concurrent queries share the process-wide ThreadPool for their path work.
//
// Threading: Submit/Query/Stats/ReloadModel are all thread-safe. Workers
// execute queries with `threads_per_query` pool threads each (default 1:
// with several workers, query-level parallelism beats intra-query
// parallelism for throughput; a single-worker service should use 0 = full
// pool width for latency).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/exec.h"
#include "serve/registry.h"
#include "serve/supervisor.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"

namespace m3::serve {

struct ServiceOptions {
  int num_workers = 2;
  std::size_t queue_capacity = 64;
  std::size_t query_cache_entries = 256;
  // ThreadPool width per query (M3Options::num_threads); 0 = full pool.
  unsigned threads_per_query = 1;
  // Compiled model dimensions; checkpoints must match (tests use small ones).
  M3ModelConfig model_config;
  // > 0: execute queries in this many supervised worker *subprocesses*
  // (crash isolation — a worker crash/hang never takes down the daemon).
  // 0 (default): execute in-process, exactly the pre-supervisor behavior.
  // Fault-free answers are bitwise identical either way (both run
  // serve/exec.h on the same snapshot).
  int worker_processes = 0;
  // Supervisor tuning for worker mode. num_workers / threads_per_query
  // inside are overridden from the fields above.
  SupervisorOptions supervisor;
};

class EstimationService {
 public:
  explicit EstimationService(const ServiceOptions& opts = ServiceOptions());
  ~EstimationService();  // Stop()s if running

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Loads (or hot-reloads) the serving checkpoint. Safe under load: on
  /// failure the current snapshot keeps serving and the error is returned.
  /// In worker mode a successful reload rolls the worker pool onto the new
  /// snapshot.
  Status ReloadModel(const std::string& checkpoint_path);

  /// Spawns the worker threads. kInvalidArgument if already running.
  Status Start();

  /// Drains the queue (every accepted query is answered), then joins the
  /// workers. Idempotent.
  void Stop();

  using DoneFn = std::function<void(QueryResponse)>;

  /// Admission-controlled enqueue of a request the queue then owns; a
  /// worker computes its cache key and probes the cache. `done` is invoked
  /// exactly once on a worker thread. Returns kResourceExhausted /
  /// ShedReason kQueueFull (and does not invoke `done`) when the queue is
  /// full, whatever the request's class, and kUnavailable when the service
  /// is not running; both count as rejected. `shed_out` (optional) reports why a rejected submission
  /// was shed so callers can surface a typed status. Expired queued
  /// requests are reaped eagerly on every Submit (and at dequeue) so they
  /// stop holding queue slots; their `done` fires with kDeadlineExceeded /
  /// ShedReason kExpired.
  Status Submit(QueryRequest req, DoneFn done, ShedReason* shed_out = nullptr);

  /// Synchronous query. When running, the calling thread computes the
  /// cache key and answers a hit itself: no admission, so a hit is answered
  /// even with every worker busy and the queue full (it counts as received
  /// + ok). A miss, or a cache outage, goes through Submit's admission
  /// (rejections surface in the response status) with a queue entry that
  /// borrows `req`, not a copy, and carries the key. When not running, the
  /// query executes on the calling thread (ExecuteInline).
  QueryResponse Query(const QueryRequest& req);

  /// Executes a query on the calling thread, bypassing the scheduler (no
  /// admission control). The cache/registry path is identical to scheduled
  /// execution; used by tests and benchmarks.
  QueryResponse ExecuteInline(const QueryRequest& req);

  /// Executes a shard's share of a scattered query (serve/exec.h
  /// ExecuteShardOnSnapshot) on the calling thread against the current
  /// snapshot. Runs in-process even in worker
  /// mode: the fleet's crash-failure domain is the whole shard daemon, and
  /// m3d-router — not this process — supervises it. Admission control for
  /// shard queries is likewise the router's job (it bounds in-flight
  /// sub-requests to one per shard per client query). kUnavailable when no
  /// model is loaded.
  ShardQueryResponse ExecuteShard(const ShardQueryRequest& req);

  ServerStatsWire Stats() const;

  /// Liveness/readiness for `m3_client --ping`: ready once a model is
  /// loaded and, in worker mode, at least one worker is alive.
  PingResponse Ping() const;

  /// Drops every cached result (test/ops hook; counters are kept).
  void ClearCaches();

  ModelRegistry& registry() { return registry_; }
  const ServiceOptions& options() const { return opts_; }

  /// The worker-process pool, or nullptr when executing in-process.
  /// Test/ops hook (chaos harnesses read worker_pids() off it).
  WorkerSupervisor* supervisor() { return supervisor_.get(); }

  /// Topology memo entries (see TopologyFor). Test/ops visibility.
  std::size_t TopologyCacheSize() const;

  /// Test hook: invoked on the worker thread just before Execute() for
  /// every dequeued (non-reaped) request. Lets tests hold workers busy to
  /// build queue pressure deterministically. Not for production use.
  void set_pre_execute_hook(std::function<void(const QueryRequest&)> hook) {
    pre_execute_hook_ = std::move(hook);
  }

 private:
  // A query's cache key and the model digest it was computed under.
  struct KeyedQuery {
    Hash128 key;
    Hash128 digest;
  };

  struct Pending {
    // Submit's request, owned here; Query's is borrowed (`owned` empty):
    // its caller blocks until `done` fires, so `req` outlives the entry's
    // use. Nothing reads `req` after `done`.
    std::unique_ptr<const QueryRequest> owned;
    const QueryRequest* req = nullptr;
    DoneFn done;
    // When the request was admitted. Queue wait counts against the
    // request's deadline_seconds: WorkerLoop executes with what is left,
    // passed to Execute; the request itself is never rewritten.
    std::chrono::steady_clock::time_point enqueued;
    // Query's key, reused by the worker unless a reload changed the digest.
    std::optional<KeyedQuery> key;
  };

  void WorkerLoop();
  /// Submit's and Query's admission: reaps expired entries, then queues `p`
  /// in its priority class or rejects it (queue full, not running). Counts
  /// rejections, not receipt.
  Status Admit(Pending p, ShedReason* shed_out);
  /// The query path after admission: registry snapshot, cache probe (under
  /// `known`'s key when its digest is the snapshot's), RunM3 with
  /// `deadline_seconds` (or, in worker mode, dispatch to a supervised
  /// subprocess), cache insert.
  QueryResponse Execute(const QueryRequest& req, double deadline_seconds,
                        const KeyedQuery* known);
  /// The cached answer under `key`, served by `snap`, counted ok; nullopt
  /// on a miss (a cache miss only if `count_miss`) or a cache outage.
  std::optional<QueryResponse> LookupHit(const Hash128& key, const ModelSnapshot& snap,
                                         bool count_miss);

  /// Removes queued entries whose deadline already expired (they can no
  /// longer be answered in time) into *reaped. Caller answers them outside
  /// queue_mu_. Requires queue_mu_ held.
  void ReapExpiredLocked(std::chrono::steady_clock::time_point now,
                         std::vector<Pending>* reaped);
  /// Total entries across all priority class queues. Requires queue_mu_.
  std::size_t QueueDepthLocked() const;
  /// Answers a request whose deadline expired while queued (kExpired) and
  /// fires its done callback. Must be called *without* queue_mu_ held.
  void AnswerExpired(Pending p);

  const ServiceOptions opts_;
  ModelRegistry registry_;
  LruCache<QueryResponse> query_cache_;
  std::unique_ptr<WorkerSupervisor> supervisor_;  // null in in-process mode

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  // One FIFO per priority class; workers drain the highest non-empty
  // class first.
  std::deque<Pending> queues_[kNumPriorityClasses];
  bool running_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::function<void(const QueryRequest&)> pre_execute_hook_;

  // Fat-tree memo (serve/exec.h): fat trees are immutable post-build, so
  // repeated queries skip topology construction.
  TopoMemo topos_;

  std::atomic<std::uint64_t> queries_received_{0};
  std::atomic<std::uint64_t> queries_ok_{0};
  std::atomic<std::uint64_t> queries_rejected_{0};
  std::atomic<std::uint64_t> queries_failed_{0};
  // Admitted-then-shed (expiry reap); disjoint from queries_rejected_
  // (turned away at admission). The serving invariant:
  // received = ok + rejected + failed + shed.
  std::atomic<std::uint64_t> queries_shed_{0};
  std::atomic<std::uint64_t> shed_by_reason_[kNumShedReasons] = {};
};

}  // namespace m3::serve
