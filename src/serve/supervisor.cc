#include "serve/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "serve/worker.h"
#include "util/fault.h"

namespace m3::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kReaperTick = std::chrono::milliseconds(10);
// How long Stop() waits for workers to honor EOF before SIGKILL.
constexpr int kStopGraceTicks = 50;  // x 10ms
// Re-runs of a crashed (or garbage-answering) query on a fresh worker.
constexpr int kCrashRetries = 1;

}  // namespace

WorkerSupervisor::WorkerSupervisor(const SupervisorOptions& opts, SnapshotProvider provider)
    : opts_(opts), provider_(std::move(provider)) {}

WorkerSupervisor::~WorkerSupervisor() { Stop(); }

int WorkerSupervisor::BackoffDelayMs(int consecutive_failures, int initial_ms,
                                     int max_ms) {
  if (consecutive_failures <= 1) return std::min(initial_ms, max_ms);
  long long delay = initial_ms;
  for (int i = 1; i < consecutive_failures && delay < max_ms; ++i) delay *= 2;
  return static_cast<int>(std::min<long long>(delay, max_ms));
}

Status WorkerSupervisor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::InvalidArgument("worker supervisor already running");
  running_ = true;
  stopping_ = false;
  generation_ = 1;
  slots_ = std::vector<Slot>(static_cast<std::size_t>(std::max(1, opts_.num_workers)));
  const auto now = Clock::now();
  for (Slot& s : slots_) {
    s.respawn_at = now;
    SpawnLocked(s);  // no model yet -> stays kWaitRespawn; reaper retries
  }
  reaper_ = std::thread([this] { ReaperLoop(); });
  return Status::Ok();
}

void WorkerSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  lease_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();

  // Single-threaded from here (the embedding service drains its scheduler
  // before stopping the pool; a racing Execute fails its lease on stopping_).
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) s.fd.Close();  // EOF: workers drain and _exit(0)
  for (Slot& s : slots_) {
    if (s.pid <= 0) continue;
    int status = 0;
    pid_t reaped = 0;
    for (int i = 0; i < kStopGraceTicks; ++i) {
      reaped = ::waitpid(s.pid, &status, WNOHANG);
      if (reaped != 0) break;
      std::this_thread::sleep_for(kReaperTick);
    }
    if (reaped == 0) {
      // Hung or wedged: EOF was ignored, escalate. SIGKILL cannot be
      // blocked, so the blocking waitpid below always returns.
      ::kill(s.pid, SIGKILL);
      ::waitpid(s.pid, &status, 0);
    }
    s.pid = -1;
    s.state = SlotState::kEmpty;
  }
  running_ = false;
  stopping_ = false;
}

bool WorkerSupervisor::SpawnLocked(Slot& s) {
  const auto retry_later = [&](std::chrono::milliseconds delay) {
    s.state = SlotState::kWaitRespawn;
    s.respawn_at = Clock::now() + delay;
    return false;
  };

  std::shared_ptr<const ModelSnapshot> snap = provider_ ? provider_() : nullptr;
  if (snap == nullptr) return retry_later(std::chrono::milliseconds(50));

  UnixFd parent_end, child_end;
  if (!MakeSocketPair(&parent_end, &child_end).ok()) {
    return retry_later(std::chrono::milliseconds(opts_.backoff_initial_ms));
  }

  WorkerOptions wopts;
  wopts.threads_per_query = opts_.threads_per_query;

  // Hold the fault-registry lock across fork(): another thread may be
  // inside a fault point, and the child must not inherit a mid-held mutex
  // it can never unlock (see FaultRegistry::AcquireForkLock).
  FaultRegistry::Instance().AcquireForkLock();
  const pid_t pid = ::fork();
  if (pid == 0) {
    FaultRegistry::Instance().ReleaseForkLock();
    PrepareWorkerChild(child_end.get());
    if (!opts_.worker_faults.empty()) {
      (void)FaultRegistry::Instance().ArmFromString(opts_.worker_faults);
    }
    WorkerMain(child_end, *snap, wopts);
    ::_exit(0);  // no unwinding/static destructors in a fork-no-exec child
  }
  FaultRegistry::Instance().ReleaseForkLock();
  if (pid < 0) return retry_later(std::chrono::milliseconds(opts_.backoff_initial_ms));

  s.fd = std::move(parent_end);  // child_end closes at scope exit
  s.pid = pid;
  s.state = SlotState::kIdle;
  s.generation = generation_;
  s.snap_version = snap->version;
  s.kill_intentional = false;
  ++spawns_;
  return true;
}

void WorkerSupervisor::FailBusyWorkerLocked(Slot& s, bool intentional) {
  if (s.pid > 0) ::kill(s.pid, SIGKILL);  // idempotent if already dead
  s.fd.Close();
  s.state = SlotState::kReaping;
  s.kill_intentional = intentional;
  if (intentional) {
    s.consecutive_failures = 0;
    s.respawn_at = Clock::now();
  } else {
    ScheduleRespawnLocked(s);
  }
}

void WorkerSupervisor::ScheduleRespawnLocked(Slot& s) {
  ++s.consecutive_failures;
  ++restarts_;
  const int delay_ms =
      BackoffDelayMs(s.consecutive_failures, opts_.backoff_initial_ms, opts_.backoff_max_ms);
  s.respawn_at = Clock::now() + std::chrono::milliseconds(delay_ms);
}

int WorkerSupervisor::LeaseWorker() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts_.lease_timeout_seconds));
  for (;;) {
    if (!running_ || stopping_) return -1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      // Lowest idle index: deterministic lease order for fault tests.
      if (slots_[i].state == SlotState::kIdle && slots_[i].generation == generation_) {
        slots_[i].state = SlotState::kBusy;
        return static_cast<int>(i);
      }
    }
    if (lease_cv_.wait_until(lock, deadline) == std::cv_status::timeout) return -1;
  }
}

QueryResponse WorkerSupervisor::Execute(const QueryRequest& req, double deadline_seconds) {
  const std::string payload = EncodeScheduledQuery(req, deadline_seconds);
  // Two-tier deadline: the worker's estimator honors deadline_seconds
  // itself (partial kDeadlineExceeded answer); the watchdog only fires for
  // a worker so wedged it cannot even answer, at deadline + grace.
  const double budget = deadline_seconds > 0 ? deadline_seconds + opts_.grace_seconds
                                             : opts_.default_watchdog_seconds;
  int attempts_left = 1 + kCrashRetries;
  for (;;) {
    const int idx = LeaseWorker();
    if (idx < 0) {
      QueryResponse resp;
      resp.status = Status::Unavailable(
          "no live worker available (pool respawning, exhausted, or stopping)");
      return resp;
    }
    // While kBusy this thread owns the slot's channel; slots_ never
    // resizes after Start, so the reference stays valid without the lock.
    Slot& s = slots_[static_cast<std::size_t>(idx)];
    --attempts_left;

    Status send = SendFrame(s.fd, static_cast<std::uint32_t>(MsgType::kQueryRequest),
                            payload);
    StatusOr<Frame> reply = send;
    if (send.ok()) {
      (void)SetRecvTimeout(s.fd, budget);
      reply = RecvFrame(s.fd);
    }

    // Decode through to a response; any shape mismatch is "garbage".
    std::optional<QueryResponse> decoded;
    bool garbage = false;
    if (reply.ok()) {
      if (reply->type == static_cast<std::uint32_t>(MsgType::kQueryResponse)) {
        StatusOr<QueryResponse> r = DecodeQueryResponse(reply->payload);
        if (r.ok()) decoded = std::move(*r);
        else garbage = true;
      } else {
        garbage = true;
      }
    } else if (reply.status().code() == StatusCode::kInvalidArgument) {
      garbage = true;  // bad frame magic / hostile length: junk on the wire
    }

    if (decoded.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      s.consecutive_failures = 0;
      if (s.generation != generation_) {
        // Pool rolled mid-query (model reload): the answer stands, but the
        // worker pins a stale snapshot — replace it before the next lease.
        FailBusyWorkerLocked(s, /*intentional=*/true);
      } else {
        s.state = SlotState::kIdle;
      }
      lease_cv_.notify_all();
      return std::move(*decoded);
    }

    const bool hang = !garbage && reply.status().code() == StatusCode::kDeadlineExceeded;
    std::uint64_t failed_version = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      failed_version = s.snap_version;
      if (hang) {
        ++watchdog_kills_;
      } else if (garbage) {
        ++garbage_replies_;
      } else {
        ++crashes_;
      }
      FailBusyWorkerLocked(s, /*intentional=*/false);
      if (!hang && attempts_left > 0) ++crash_retried_queries_;
    }

    if (hang) {
      // No retry: the query itself may be pathological, and its deadline
      // is already blown. Answer what the estimator would have.
      QueryResponse resp;
      resp.status = Status::DeadlineExceeded(
          "query exceeded its deadline plus the " +
          std::to_string(opts_.grace_seconds) +
          "s grace period; the worker executing it was killed");
      resp.model_version = failed_version;
      return resp;
    }
    if (attempts_left > 0) continue;  // crash/garbage: once more, fresh worker

    QueryResponse resp;
    resp.status = Status::Unavailable(
        garbage ? "worker answered garbage and its retry was exhausted"
                : "worker crashed while executing the query (retry exhausted)");
    resp.model_version = failed_version;
    return resp;
  }
}

void WorkerSupervisor::ReaperLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const auto now = Clock::now();
    bool spawned = false;
    for (Slot& s : slots_) {
      // Only the reaper calls waitpid, per-pid with WNOHANG — never -1,
      // so unrelated children of an embedding process are left alone.
      // Busy slots belong to their Execute thread (it observes the death
      // as EOF and moves the slot to kReaping for us).
      if (s.pid > 0 && (s.state == SlotState::kIdle || s.state == SlotState::kReaping)) {
        int status = 0;
        const pid_t reaped = ::waitpid(s.pid, &status, WNOHANG);
        if (reaped == s.pid) {
          if (s.state == SlotState::kIdle) {
            // Died while idle: external kill (chaos) or startup crash.
            s.fd.Close();
            ScheduleRespawnLocked(s);
          }
          s.pid = -1;
          s.state = SlotState::kWaitRespawn;
        }
      } else if (s.pid <= 0 && s.state == SlotState::kReaping) {
        s.state = SlotState::kWaitRespawn;
      }
      if ((s.state == SlotState::kWaitRespawn || s.state == SlotState::kEmpty) &&
          s.respawn_at <= now) {
        if (SpawnLocked(s)) spawned = true;
      }
    }
    if (spawned) lease_cv_.notify_all();
    lease_cv_.wait_for(lock, kReaperTick);  // also woken by Stop()
  }
}

void WorkerSupervisor::RestartWorkers() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_) return;
  ++generation_;
  const auto now = Clock::now();
  for (Slot& s : slots_) {
    if (s.state == SlotState::kIdle) {
      FailBusyWorkerLocked(s, /*intentional=*/true);
      s.respawn_at = now;
    }
    // kBusy workers finish their in-flight query first; the Execute thread
    // retires them on reply (generation mismatch). Respawning slots pick
    // up the new snapshot when they spawn.
  }
}

WorkerPoolStats WorkerSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerPoolStats st;
  st.configured = static_cast<std::uint32_t>(slots_.size());
  for (const Slot& s : slots_) {
    if (s.pid > 0 && (s.state == SlotState::kIdle || s.state == SlotState::kBusy)) {
      ++st.alive;
    }
  }
  st.spawns = spawns_;
  st.restarts = restarts_;
  st.crashes = crashes_;
  st.watchdog_kills = watchdog_kills_;
  st.garbage_replies = garbage_replies_;
  st.crash_retried_queries = crash_retried_queries_;
  return st;
}

std::vector<pid_t> WorkerSupervisor::worker_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<pid_t> pids;
  for (const Slot& s : slots_) {
    if (s.pid > 0 && s.state != SlotState::kReaping && s.state != SlotState::kWaitRespawn) {
      pids.push_back(s.pid);
    }
  }
  return pids;
}

}  // namespace m3::serve
