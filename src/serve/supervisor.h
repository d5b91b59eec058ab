// WorkerSupervisor: a crash-proof pool of forked query workers.
//
// The supervisor owns every worker subprocess the daemon runs queries in:
// it forks them (serve/worker.h), leases them to Execute() calls, detects
// death three ways (EOF mid-query, reaper waitpid while idle, undecodable
// reply), SIGKILLs workers that blow their per-query watchdog, respawns
// with exponential backoff, and retries a crashed query once on a fresh
// worker. A worker death is never charged to the model it was serving: a
// loaded model cannot crash a worker, so deaths come from outside (an
// operator's SIGKILL, the OOM killer) or from a bug in the per-path code
// (DESIGN.md §10).
//
// Failure semantics, per query:
//   worker crash   -> retried once on a fresh worker; a second crash
//                     answers kUnavailable (the client's retry loop takes
//                     it from there)
//   worker hang    -> SIGKILL at deadline + grace (or the default
//                     watchdog for deadline-less queries); the query
//                     answers kDeadlineExceeded; other queries on other
//                     workers are never blocked
//   garbage reply  -> the worker is killed and replaced; the query is
//                     retried like a crash (junk is never surfaced)
//
// Threading: Execute() may be called from many scheduler threads; each
// call leases one worker (lowest idle index — deterministic for tests)
// and owns that worker's channel until the query resolves. Only the
// reaper thread calls waitpid (per-pid WNOHANG; never -1, so unrelated
// children of the embedding process are left alone).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/wire.h"
#include "util/socket.h"
#include "util/status.h"

namespace m3::serve {

struct SupervisorOptions {
  int num_workers = 2;
  unsigned threads_per_query = 1;
  // Respawn backoff: delay after the k-th consecutive failure of one slot
  // is min(backoff_max_ms, backoff_initial_ms * 2^(k-1)).
  int backoff_initial_ms = 25;
  int backoff_max_ms = 2000;
  // Watchdog: a query with a deadline may run to deadline + grace before
  // its worker is SIGKILLed; a deadline-less query gets the default budget.
  double grace_seconds = 2.0;
  double default_watchdog_seconds = 120.0;
  // How long Execute() waits for a leasable worker before kUnavailable.
  double lease_timeout_seconds = 10.0;
  // M3_FAULTS-syntax spec armed inside every spawned worker (tests drive
  // the chaos sites with this; production leaves it empty).
  std::string worker_faults;
};

/// A stats() snapshot; field meanings match ServerStatsWire's worker block.
struct WorkerPoolStats {
  std::uint32_t configured = 0;
  std::uint32_t alive = 0;
  std::uint64_t spawns = 0;
  std::uint64_t restarts = 0;
  std::uint64_t crashes = 0;
  std::uint64_t watchdog_kills = 0;
  std::uint64_t garbage_replies = 0;
  std::uint64_t crash_retried_queries = 0;
};

class WorkerSupervisor {
 public:
  /// Returns the snapshot new workers should pin (nullptr = no model yet;
  /// spawning is deferred until one exists).
  using SnapshotProvider = std::function<std::shared_ptr<const ModelSnapshot>()>;

  WorkerSupervisor(const SupervisorOptions& opts, SnapshotProvider provider);
  ~WorkerSupervisor();  // Stop()s if running

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Forks the initial pool and starts the reaper. kInvalidArgument if
  /// already running.
  Status Start();

  /// Kills and reaps every worker (EOF first, SIGKILL for stragglers),
  /// then joins the reaper. No zombies survive. Idempotent.
  void Stop();

  /// Runs one query on a leased worker, with the crash/hang/garbage
  /// semantics described in the file comment, and `deadline_seconds`
  /// (0 = none) in place of req.deadline_seconds. Thread-safe.
  QueryResponse Execute(const QueryRequest& req, double deadline_seconds);

  /// Rolls the pool onto the provider's current snapshot: idle workers are
  /// replaced immediately, busy ones right after their in-flight query.
  /// Used after a model reload.
  void RestartWorkers();

  WorkerPoolStats stats() const;

  /// Live worker pids (test/ops hook: chaos harnesses kill these).
  std::vector<pid_t> worker_pids() const;

  /// Exposed for tests: the deterministic backoff schedule.
  static int BackoffDelayMs(int consecutive_failures, int initial_ms, int max_ms);

 private:
  // Slot lifecycle: kEmpty -> (spawn) -> kIdle <-> kBusy
  //   kIdle/kBusy -> kReaping (death noticed / intentional kill; pid still
  //   needs waitpid) -> kWaitRespawn -> (backoff elapses, spawn) -> kIdle.
  enum class SlotState { kEmpty, kIdle, kBusy, kReaping, kWaitRespawn };

  struct Slot {
    UnixFd fd;  // parent end of the socketpair
    pid_t pid = -1;
    SlotState state = SlotState::kEmpty;
    std::uint64_t generation = 0;      // pool generation the worker was forked in
    std::uint64_t snap_version = 0;    // snapshot the worker pinned
    int consecutive_failures = 0;      // drives the backoff schedule
    bool kill_intentional = false;     // restart/stale kill: not a crash
    std::chrono::steady_clock::time_point respawn_at;
  };

  void ReaperLoop();
  /// Forks a worker into `slot` (mu_ held). False if no snapshot yet.
  bool SpawnLocked(Slot& slot);
  /// Marks a busy worker dead after Execute noticed (mu_ held): SIGKILL
  /// (idempotent for already-dead pids), state -> kReaping.
  void FailBusyWorkerLocked(Slot& slot, bool intentional);
  /// Counts one unintended death of `slot` and schedules its respawn after
  /// the backoff delay (mu_ held).
  void ScheduleRespawnLocked(Slot& slot);
  /// Leases the lowest idle current-generation worker. -1 on timeout/stop.
  int LeaseWorker();

  const SupervisorOptions opts_;
  const SnapshotProvider provider_;

  mutable std::mutex mu_;
  std::condition_variable lease_cv_;  // signaled when a worker turns idle
  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  bool running_ = false;
  bool stopping_ = false;
  std::thread reaper_;

  // Counters (under mu_).
  std::uint64_t spawns_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t watchdog_kills_ = 0;
  std::uint64_t garbage_replies_ = 0;
  std::uint64_t crash_retried_queries_ = 0;
};

}  // namespace m3::serve
