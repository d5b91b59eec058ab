// Chaos harness for the supervised worker pool (DESIGN.md §10).
//
// Drives the three worker fault sites (serve/worker_crash, worker_hang,
// worker_garbage_reply) through SupervisorOptions::worker_faults — the spec
// is armed inside each forked worker, so the parent's FaultRegistry stays
// clean — plus *external* SIGKILLs of worker pids, and asserts the
// supervisor's contract: every query is answered, the daemon process never
// dies, workers respawn with deterministic backoff, hangs are cut at
// deadline + grace, a worker death never touches the serving model, and
// Stop() leaves no zombies behind.
//
// Suite names (WorkerPool / Supervisor / ChaosSoak / SocketTimeout) are the
// chaos tier's ctest filter in tools/check.sh; they are deliberately
// disjoint from the TSan tier's filter because fork() and ThreadSanitizer
// do not mix.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/exec.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/supervisor.h"
#include "serve/wire.h"
#include "serve/worker.h"
#include "temp_path.h"
#include "topo/fat_tree.h"
#include "util/fault.h"
#include "util/socket.h"
#include "wait_for.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3::serve {
namespace {

class FaultGuard {
 public:
  FaultGuard() { FaultRegistry::Instance().Reset(); }
  ~FaultGuard() { FaultRegistry::Instance().Reset(); }
};

// ---------------------------------------------------------------- fixture --

M3ModelConfig SmallModel() {
  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  return mcfg;
}

std::string SmallCheckpoint() {
  static const std::string path = [] {
    const std::string p = TempPath("chaos_small_model.ckpt");
    M3Model model(SmallModel());
    model.Save(p);
    return p;
  }();
  return path;
}

// A second valid checkpoint with different weights (a reload target).
std::string SmallCheckpointB() {
  static const std::string path = [] {
    const std::string p = TempPath("chaos_small_model_b.ckpt");
    M3ModelConfig mcfg = SmallModel();
    mcfg.init_seed = 777;
    M3Model model(mcfg);
    model.Save(p);
    return p;
  }();
  return path;
}

// Worker-mode service options tuned for test latency: fast backoff, small
// pool, short lease waits.
ServiceOptions WorkerServiceOptions(int workers = 2) {
  ServiceOptions so;
  so.model_config = SmallModel();
  so.num_workers = workers;
  so.threads_per_query = 1;
  so.worker_processes = workers;
  so.supervisor.backoff_initial_ms = 5;
  so.supervisor.backoff_max_ms = 100;
  so.supervisor.lease_timeout_seconds = 30.0;
  return so;
}

QueryRequest SmallQuery(std::uint64_t wl_seed = 3) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = 300;
  wspec.seed = wl_seed;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  QueryRequest req;
  req.oversub = 2.0;
  req.num_paths = 3;
  req.flows.reserve(flows.size());
  for (const Flow& f : flows) {
    WireFlow wf;
    wf.id = f.id;
    wf.src_host = ft.HostIndexOf(f.src);
    wf.dst_host = ft.HostIndexOf(f.dst);
    wf.size = f.size;
    wf.arrival = f.arrival;
    wf.priority = f.priority;
    req.flows.push_back(wf);
  }
  return req;
}

void ExpectBitwiseEqual(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.bucket_pct, b.bucket_pct);
  EXPECT_EQ(a.total_counts, b.total_counts);
  EXPECT_EQ(a.combined_pct, b.combined_pct);
}

// --------------------------------------------------------- socket timeouts --

TEST(SocketTimeout, RecvTimeoutSurfacesDeadlineExceeded) {
  UnixFd a, b;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  ASSERT_TRUE(SetRecvTimeout(a, 0.05).ok());
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<Frame> got = RecvFrame(a);  // nobody ever writes: must time out
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status().ToString();
  EXPECT_LT(waited, 5.0);  // returned promptly, not a blocked read
}

TEST(SocketTimeout, RecvBeforeTimeoutStillWorks) {
  UnixFd a, b;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  ASSERT_TRUE(SetRecvTimeout(a, 5.0).ok());
  ASSERT_TRUE(SendFrame(b, 42, "payload").ok());
  StatusOr<Frame> got = RecvFrame(a);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->type, 42u);
  EXPECT_EQ(got->payload, "payload");
}

TEST(SocketTimeout, ClearingTimeoutRestoresBlockingReads) {
  UnixFd a, b;
  ASSERT_TRUE(MakeSocketPair(&a, &b).ok());
  ASSERT_TRUE(SetRecvTimeout(a, 0.05).ok());
  ASSERT_TRUE(SetRecvTimeout(a, 0.0).ok());  // 0 clears the timeout
  std::thread writer([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    (void)SendFrame(b, 7, "late");
  });
  StatusOr<Frame> got = RecvFrame(a);  // would have timed out at 50ms
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, "late");
}

TEST(SocketTimeout, ConnectTimeoutToMissingSocketFailsFast) {
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<UnixFd> fd =
      ConnectUnixTimeout(TempPath("chaos_no_such.sock"), 0.5);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(fd.ok());
  EXPECT_LT(waited, 5.0);
}

// ------------------------------------------------------------- worker pool --

TEST(WorkerPool, AnswersBitwiseIdenticalToInProcess) {
  FaultGuard guard;
  // The headline invariant: default (fault-free) worker-mode serving is
  // indistinguishable from in-process serving — both run serve/exec.h on
  // the same snapshot, so the answers must match to the last bit.
  ServiceOptions in_proc;
  in_proc.model_config = SmallModel();
  EstimationService inline_svc(in_proc);
  ASSERT_TRUE(inline_svc.ReloadModel(SmallCheckpoint()).ok());

  EstimationService worker_svc(WorkerServiceOptions());
  ASSERT_TRUE(worker_svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(worker_svc.Start().ok());

  QueryRequest req = SmallQuery();
  req.no_cache = true;
  const QueryResponse a = inline_svc.ExecuteInline(req);
  const QueryResponse b = worker_svc.Query(req);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  ExpectBitwiseEqual(a, b);
  EXPECT_EQ(a.model_crc, b.model_crc);
  worker_svc.Stop();
}

TEST(WorkerPool, CrashedQueryIsRetriedOnAFreshWorker) {
  FaultGuard guard;
  ServiceOptions so = WorkerServiceOptions();
  // Fault counters are per-child: each worker aborts on its *second*
  // request. Query 1 lands on worker 0 (hit 1: survives). Query 2 lands on
  // worker 0 again (hit 2: abort); the retry leases worker 1 at hit 1 and
  // answers. The crash is invisible to the caller.
  so.supervisor.worker_faults = std::string(kWorkerCrashSite) + "=throw@2x1";
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest req = SmallQuery();
  req.no_cache = true;
  const QueryResponse first = svc.Query(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const QueryResponse second = svc.Query(req);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  ExpectBitwiseEqual(first, second);

  const ServerStatsWire s = svc.Stats();
  EXPECT_TRUE(s.worker_mode);
  EXPECT_GE(s.worker_crashes, 1u);
  EXPECT_GE(s.crash_retried_queries, 1u);
  svc.Stop();
}

TEST(WorkerPool, HangIsKilledAtDeadlinePlusGraceAndAnswersDeadlineExceeded) {
  FaultGuard guard;
  ServiceOptions so = WorkerServiceOptions();
  so.supervisor.grace_seconds = 0.3;
  // Each worker wedges (pause() forever) on its second request.
  so.supervisor.worker_faults = std::string(kWorkerHangSite) + "=throw@2x1";
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest req = SmallQuery();
  req.no_cache = true;
  ASSERT_TRUE(svc.Query(req).status.ok());

  req.deadline_seconds = 0.5;
  const auto t0 = std::chrono::steady_clock::now();
  const QueryResponse hung = svc.Query(req);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(hung.status.code(), StatusCode::kDeadlineExceeded)
      << hung.status.ToString();
  // Cut at deadline + grace (0.8s), not the 120s default watchdog — allow
  // generous slack for a loaded machine but far below the default.
  EXPECT_LT(waited, 30.0);
  EXPECT_GE(svc.Stats().watchdog_kills, 1u);

  // The pool recovered: the next query answers on a respawned worker.
  req.deadline_seconds = 0.0;
  const QueryResponse after = svc.Query(req);
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();
  svc.Stop();
}

TEST(WorkerPool, GarbageReplyNeverSurfacesToTheCaller) {
  FaultGuard guard;
  ServiceOptions so = WorkerServiceOptions();
  // Each worker answers its second request with unframed junk bytes; the
  // supervisor must kill it and retry on a fresh worker.
  so.supervisor.worker_faults = std::string(kWorkerGarbageSite) + "=throw@2x1";
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest req = SmallQuery();
  req.no_cache = true;
  const QueryResponse clean = svc.Query(req);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  const QueryResponse retried = svc.Query(req);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  ExpectBitwiseEqual(clean, retried);
  EXPECT_GE(svc.Stats().garbage_replies, 1u);
  svc.Stop();
}

TEST(WorkerPool, PingReportsReadinessAndWorkerMode) {
  FaultGuard guard;
  EstimationService svc(WorkerServiceOptions());
  PingResponse before = svc.Ping();
  EXPECT_FALSE(before.ready);  // no model yet
  EXPECT_TRUE(before.worker_mode);

  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return svc.Ping().ready; },
                      std::chrono::milliseconds(5000)));
  const PingResponse after = svc.Ping();
  EXPECT_TRUE(after.worker_mode);
  EXPECT_GE(after.workers_alive, 1u);
  EXPECT_GT(after.model_version, 0u);
  svc.Stop();
}

TEST(WorkerPool, ExternalKillsNeverQuarantineTheServingModel) {
  FaultGuard guard;
  // SIGKILLs from outside (an operator, the OOM killer) say nothing about
  // the model a worker was serving: after any number of them the reloaded
  // model keeps serving, and reloading it again is accepted.
  EstimationService svc(WorkerServiceOptions());
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());
  const std::uint32_t crc_a = svc.Stats().model_crc;
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpointB()).ok());
  const ServerStatsWire loaded = svc.Stats();
  ASSERT_NE(loaded.model_crc, crc_a);

  WorkerSupervisor* sup = svc.supervisor();
  constexpr int kKills = 6;  // past the 5 deaths that once quarantined a model
  for (int k = 0; k < kKills; ++k) {
    ASSERT_TRUE(WaitFor([&] { return sup->worker_pids().size() == 2; },
                        std::chrono::milliseconds(5000)));
    const std::uint64_t restarts = sup->stats().restarts;
    ASSERT_EQ(::kill(sup->worker_pids().front(), SIGKILL), 0);
    ASSERT_TRUE(WaitFor([&] { return sup->stats().restarts > restarts; },
                        std::chrono::milliseconds(5000)));
  }
  ASSERT_TRUE(WaitFor([&] { return svc.Ping().ready; }, std::chrono::milliseconds(5000)));

  QueryRequest req = SmallQuery();
  req.no_cache = true;
  const QueryResponse served = svc.Query(req);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.model_crc, loaded.model_crc) << "a worker death rolled the model back";
  EXPECT_EQ(svc.Stats().model_crc, loaded.model_crc);

  const Status again = svc.ReloadModel(SmallCheckpointB());
  EXPECT_TRUE(again.ok()) << again.ToString();
  EXPECT_EQ(svc.Stats().model_version, loaded.model_version + 1);
  svc.Stop();
}

// -------------------------------------------------------------- supervisor --

TEST(Supervisor, BackoffScheduleIsDeterministicAndCapped) {
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(1, 25, 2000), 25);
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(2, 25, 2000), 50);
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(3, 25, 2000), 100);
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(4, 25, 2000), 200);
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(7, 25, 2000), 1600);
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(8, 25, 2000), 2000);   // capped
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(60, 25, 2000), 2000);  // no overflow
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(0, 25, 2000), 25);     // clamped low
  EXPECT_EQ(WorkerSupervisor::BackoffDelayMs(3, 4000, 2000), 2000); // init > max
}

TEST(Supervisor, WorkerKilledWhileIdleIsReapedAndRespawned) {
  FaultGuard guard;
  // "Dies between accept and reply" from the supervisor's point of view:
  // the worker is idle (no query in flight) when it dies; the reaper must
  // notice via waitpid, count the restart, and respawn.
  EstimationService svc(WorkerServiceOptions());
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());
  WorkerSupervisor* sup = svc.supervisor();
  ASSERT_NE(sup, nullptr);
  ASSERT_TRUE(WaitFor([&] { return sup->worker_pids().size() == 2; },
                      std::chrono::milliseconds(5000)));

  const std::uint64_t spawns_before = sup->stats().spawns;
  const std::vector<pid_t> pids = sup->worker_pids();
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  ASSERT_TRUE(WaitFor([&] { return sup->stats().spawns > spawns_before; },
                      std::chrono::milliseconds(5000)));
  ASSERT_TRUE(WaitFor([&] { return sup->stats().alive == 2; },
                      std::chrono::milliseconds(5000)));
  EXPECT_GE(sup->stats().restarts, 1u);

  // The respawned pool still answers.
  QueryRequest req = SmallQuery();
  req.no_cache = true;
  EXPECT_TRUE(svc.Query(req).status.ok());
  svc.Stop();
}

TEST(Supervisor, StopDrainsAndLeavesNoZombies) {
  FaultGuard guard;
  EstimationService svc(WorkerServiceOptions(3));
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());
  WorkerSupervisor* sup = svc.supervisor();
  ASSERT_TRUE(WaitFor([&] { return sup->worker_pids().size() == 3; },
                      std::chrono::milliseconds(5000)));
  QueryRequest req = SmallQuery();
  req.no_cache = true;
  ASSERT_TRUE(svc.Query(req).status.ok());

  const std::vector<pid_t> pids = sup->worker_pids();
  ASSERT_EQ(pids.size(), 3u);
  svc.Stop();

  // Every worker is gone *and reaped*: kill(pid, 0) on a zombie still
  // succeeds, so ESRCH proves the supervisor did the waitpid.
  for (const pid_t pid : pids) {
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1) << "worker " << pid << " survived Stop()";
    EXPECT_EQ(errno, ESRCH) << "worker " << pid << " left as a zombie";
  }
  EXPECT_TRUE(sup->worker_pids().empty());
}

TEST(Supervisor, SpawnIsDeferredUntilAModelExists) {
  FaultGuard guard;
  EstimationService svc(WorkerServiceOptions());
  ASSERT_TRUE(svc.Start().ok());  // no model yet: nothing to pin
  EXPECT_EQ(svc.supervisor()->stats().alive, 0u);
  EXPECT_FALSE(svc.Ping().ready);

  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(WaitFor([&] { return svc.Ping().ready; },
                      std::chrono::milliseconds(5000)));
  QueryRequest req = SmallQuery();
  req.no_cache = true;
  EXPECT_TRUE(svc.Query(req).status.ok());
  svc.Stop();
}

// -------------------------------------------------------------- chaos soak --

TEST(ChaosSoak, ExternalKillStormUnderConcurrentLoadAnswersEverything) {
  FaultGuard guard;
  ServiceOptions so = WorkerServiceOptions(3);
  so.query_cache_entries = 0;  // force every query through a worker
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());
  WorkerSupervisor* sup = svc.supervisor();
  ASSERT_TRUE(WaitFor([&] { return sup->stats().alive == 3; },
                      std::chrono::milliseconds(5000)));

  std::atomic<bool> stop_killer{false};
  std::thread killer([&] {
    // Kill a worker every 20ms for the duration of the load — many
    // pool-widths of deaths.
    while (!stop_killer.load(std::memory_order_relaxed)) {
      const std::vector<pid_t> pids = sup->worker_pids();
      if (!pids.empty()) ::kill(pids.front(), SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 25;
  std::atomic<int> answered{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        QueryRequest req = SmallQuery(static_cast<std::uint64_t>(c * 100 + q));
        req.no_cache = true;
        // The supervisor retries one crash itself; mimic m3_client's retry
        // loop on top for kills that land on both attempts.
        QueryResponse resp;
        for (int attempt = 0; attempt < 4; ++attempt) {
          resp = svc.Query(req);
          if (resp.status.code() != StatusCode::kUnavailable) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        answered.fetch_add(1, std::memory_order_relaxed);
        if (IsAnsweredCode(resp.status.code())) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          ADD_FAILURE() << "query " << c << "/" << q
                        << " failed: " << resp.status.ToString();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop_killer.store(true, std::memory_order_relaxed);
  killer.join();

  EXPECT_EQ(answered.load(), kClients * kQueriesPerClient);
  EXPECT_EQ(ok.load(), kClients * kQueriesPerClient);
  const ServerStatsWire s = svc.Stats();
  EXPECT_GE(s.worker_restarts, 1u) << "the kill storm never landed";

  // The storm is over: the pool heals and serves cleanly again.
  ASSERT_TRUE(WaitFor(
      [&] {
        QueryRequest probe = SmallQuery();
        probe.no_cache = true;
        return svc.Query(probe).status.ok();
      },
      std::chrono::milliseconds(30000)));

  const std::vector<pid_t> pids = sup->worker_pids();
  svc.Stop();
  for (const pid_t pid : pids) {
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH) << "zombie worker " << pid << " after Stop()";
  }
}

TEST(ChaosSoak, ReloadStormWhileServingKeepsAnswering) {
  FaultGuard guard;
  ServiceOptions so = WorkerServiceOptions();
  so.query_cache_entries = 0;
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(svc.Start().ok());

  // Roll the pool between checkpoints while queries are in flight: every
  // query must answer, served by whichever snapshot its worker pinned.
  std::atomic<bool> stop_reloader{false};
  std::thread reloader([&] {
    bool use_b = true;
    while (!stop_reloader.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          svc.ReloadModel(use_b ? SmallCheckpointB() : SmallCheckpoint()).ok());
      use_b = !use_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });
  for (int q = 0; q < 8; ++q) {
    QueryRequest req = SmallQuery(static_cast<std::uint64_t>(q));
    req.no_cache = true;
    const QueryResponse resp = svc.Query(req);
    EXPECT_TRUE(IsAnsweredCode(resp.status.code()))
        << "query " << q << ": " << resp.status.ToString();
  }
  stop_reloader.store(true, std::memory_order_relaxed);
  reloader.join();
  svc.Stop();
}

}  // namespace
}  // namespace m3::serve
