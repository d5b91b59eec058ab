// EstimationService: the m3d daemon's core, usable in-process.
//
// One service owns the three serving-side resources and wires them to the
// estimation pipeline:
//
//   ModelRegistry     — shared immutable model snapshots, atomic hot-reload
//   request scheduler — bounded MPMC per-priority-class queues + worker
//                       threads; admission control sheds by priority class,
//                       cost budget, and queue sojourn instead of plain
//                       FIFO rejection (DESIGN.md §13); per-request
//                       deadlines map onto M3Options::deadline_seconds and
//                       expired queued requests are reaped eagerly
//   result cache      — a whole-query content-addressed LRU
//                       (serve/cache.h); only full-quality kOk answers are
//                       cached, so a hit is always bitwise identical to a
//                       fault-free recompute
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
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/exec.h"
#include "serve/persist.h"
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

  // ---- Overload control (DESIGN.md §13) ----
  // In-flight cost budget for cost-aware admission. Each query's cost is
  // estimated from its flow/path counts discounted by the measured query
  // cache hit rate; admission rejects (kResourceExhausted, ShedReason
  // kCostBudget) when admitting would push the committed cost past the
  // budget. <= 0 picks the default (queue_capacity + workers) * 128, which
  // is deliberately generous: it exists to stop a burst of maximum-size
  // queries from monopolizing the daemon, not to meter normal load. A
  // kCritical query, or any query arriving when nothing is in flight, is
  // always admitted.
  double cost_budget = 0.0;
  // CoDel-style sojourn gate: when > 0 and the oldest queued request has
  // already waited longer than this, new non-critical arrivals are shed at
  // admission (ShedReason kSojourn) *before* the queue fills — bounding
  // queue delay instead of queue length. 0 (default) disables the gate.
  double shed_sojourn_seconds = 0.0;
  // Brownout: under sustained pressure (observed dequeue sojourn past the
  // thresholds below, or priority displacement) the service stamps
  // QueryRequest::brownout on non-critical queries so exec reduces the
  // path sample (level 1) or substitutes flowSim (level 2). Browned-out
  // answers are always kDegraded with brownout attribution in the
  // DegradationReport — never silent, never cached.
  bool brownout_enabled = true;
  double brownout1_sojourn_seconds = 0.25;  // sojourn that triggers level 1
  double brownout2_sojourn_seconds = 1.0;   // sojourn that triggers level 2
  // How long a brownout level is held after the pressure signal stops;
  // bounds recovery time back to full quality.
  double brownout_hold_seconds = 2.0;

  // ---- Durable result cache (DESIGN.md §14) ----
  // Directory for append-only cache segments. Empty (default) disables
  // persistence entirely. Start() validates it (create-if-missing, reject
  // unwritable, refuse a directory another live daemon holds locked) and
  // recovers any surviving warm set concurrently with serving.
  std::string cache_dir;
  // Background flusher wakeup period; each round spills only entries
  // inserted since the last one (bounded write amplification).
  double cache_flush_interval_seconds = 2.0;
};

class EstimationService {
 public:
  explicit EstimationService(const ServiceOptions& opts = ServiceOptions());
  ~EstimationService();  // Stop()s if running

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Loads (or hot-reloads) the serving checkpoint. Safe under load: on
  /// failure the current snapshot keeps serving and the error is returned.
  /// In worker mode a checkpoint whose digest the circuit breaker has
  /// quarantined is refused (kUnavailable) without being published, and a
  /// successful reload rolls the worker pool onto the new snapshot.
  Status ReloadModel(const std::string& checkpoint_path);

  /// Spawns the worker threads. kInvalidArgument if already running.
  Status Start();

  /// Drains the queue (every accepted query is answered), then joins the
  /// workers. Idempotent.
  void Stop();

  using DoneFn = std::function<void(QueryResponse)>;

  /// Admission-controlled enqueue. `done` is invoked exactly once on a
  /// worker thread. Returns kResourceExhausted (and does not invoke `done`)
  /// when admission sheds the request — queue full with no lower-priority
  /// victim, sojourn gate, or cost budget — and kUnavailable when the
  /// service is not running. `shed_out` (optional) reports why a rejected
  /// submission was shed so callers can surface a typed status. A full
  /// queue with a strictly lower-priority entry queued admits the new
  /// request and sheds the victim instead: the victim's `done` fires with
  /// kResourceExhausted / ShedReason kPriority. Expired queued requests
  /// are reaped eagerly on every Submit (and at dequeue) so they stop
  /// displacing admissible work; their `done` fires with
  /// kDeadlineExceeded / ShedReason kExpired.
  Status Submit(QueryRequest req, DoneFn done, ShedReason* shed_out = nullptr);

  /// Synchronous query: through the scheduler when running (admission
  /// rejections surface in the response status), directly on the calling
  /// thread otherwise.
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

  /// Synchronously spills everything queued for persistence (no-op without
  /// --cache-dir). Test/shutdown hook; the background flusher normally
  /// handles this on its interval.
  Status FlushPersistNow();
  /// Blocks until boot-time cache recovery (which runs concurrent with
  /// serving) has finished. Test hook; no-op without --cache-dir.
  void WaitForPersistRecovery();

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
  struct Pending {
    QueryRequest req;
    DoneFn done;
    // When the request was admitted; queue wait counts against the
    // client's deadline (WorkerLoop shrinks deadline_seconds by it).
    std::chrono::steady_clock::time_point enqueued;
    // Admission-time cost estimate; released from in_flight_cost_ when the
    // request is answered or shed.
    double cost = 0.0;
  };

  void WorkerLoop();
  /// The full query path: registry snapshot, validation, cache probes, RunM3
  /// (or, in worker mode, dispatch to a supervised subprocess).
  QueryResponse Execute(const QueryRequest& req);

  /// Admission-time cost estimate for cost-aware admission: base work plus
  /// a flow-count term plus a path-count term discounted by the measured
  /// query-cache hit rate (a likely query-cache hit is nearly free).
  double EstimateCost(const QueryRequest& req) const;
  /// Removes queued entries whose deadline already expired (they can no
  /// longer be answered in time) into *reaped. Caller answers them outside
  /// queue_mu_. Requires queue_mu_ held.
  void ReapExpiredLocked(std::chrono::steady_clock::time_point now,
                         std::vector<Pending>* reaped);
  /// Total entries across all priority class queues. Requires queue_mu_.
  std::size_t QueueDepthLocked() const;
  /// Age of the oldest queued entry, in seconds. Requires queue_mu_.
  double OldestSojournLocked(std::chrono::steady_clock::time_point now) const;
  /// Feeds one observed dequeue sojourn into the brownout controller;
  /// escalate=true forces at least level 1 (priority displacement is a
  /// pressure signal even when sojourns are still short). Requires
  /// queue_mu_.
  void UpdateBrownoutLocked(double sojourn_seconds, bool escalate,
                            std::chrono::steady_clock::time_point now);
  /// Builds the typed response for a shed request and fires its done
  /// callback. Must be called *without* queue_mu_ held (fills stats).
  void AnswerShed(Pending p, ShedReason reason);
  /// Circuit-breaker trip handler: rolls back to the last good snapshot
  /// when the freshly published model is the one killing workers.
  void OnBreakerTrip(const Hash128& digest);
  /// Boot-time durable-cache replay (runs on recovery_, concurrent with
  /// serving): decodes each surviving record, drops entries whose model
  /// digest no longer matches the registry, inserts the rest.
  void RecoverPersistedCaches();

  const ServiceOptions opts_;
  ModelRegistry registry_;
  LruCache<QueryResponse> query_cache_;
  std::unique_ptr<WorkerSupervisor> supervisor_;  // null in in-process mode

  // Durable-cache persistence (null / unheld without --cache-dir).
  std::unique_ptr<CachePersister> persister_;
  CacheDirLock dir_lock_;
  std::mutex recovery_mu_;  // guards recovery_ join
  std::thread recovery_;

  // Serializes reload/rollback decisions (quarantine check + publish must
  // be atomic against each other); also guards last_good_.
  std::mutex reload_mu_;
  // The snapshot a breaker trip rolls back to: the previously serving
  // snapshot at the time of the last successful reload.
  std::shared_ptr<const ModelSnapshot> last_good_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  // One FIFO per priority class; workers drain the highest non-empty
  // class first, and a full queue sheds from the lowest class first.
  std::deque<Pending> queues_[kNumPriorityClasses];
  bool running_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // ---- Overload control state (guarded by queue_mu_) ----
  double in_flight_cost_ = 0.0;  // committed cost: queued + executing
  double cost_budget_ = 0.0;     // resolved from opts (default if <= 0)
  int brownout_level_ = 0;       // 0 none, 1 reduced paths, 2 flowSim
  std::chrono::steady_clock::time_point brownout_until_{};

  std::function<void(const QueryRequest&)> pre_execute_hook_;

  // Fat-tree memo (serve/exec.h): fat trees are immutable post-build, so
  // repeated queries skip topology construction.
  TopoMemo topos_;

  std::atomic<std::uint64_t> queries_received_{0};
  std::atomic<std::uint64_t> queries_ok_{0};
  std::atomic<std::uint64_t> queries_rejected_{0};
  std::atomic<std::uint64_t> queries_failed_{0};
  // Admitted-then-shed (priority displacement, expiry reap); disjoint from
  // queries_rejected_ (turned away at the admission gate). The serving
  // invariant: received = ok + rejected + failed + shed.
  std::atomic<std::uint64_t> queries_shed_{0};
  std::atomic<std::uint64_t> shed_by_reason_[kNumShedReasons] = {};
  std::atomic<std::uint64_t> brownout_queries_{0};
};

}  // namespace m3::serve
