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

int WorkerSupervisor::JitteredBackoffMs(int delay_ms, std::uint64_t seed, std::uint64_t slot,
                                        std::uint64_t failure) {
  // splitmix64 over (seed, slot, failure): every slot and every retry round
  // lands on its own point of the [0.5, 1.5) factor range, deterministically
  // for a fixed seed.
  std::uint64_t z = seed ^ (slot * 0x9e3779b97f4a7c15ull) ^ (failure * 0xbf58476d1ce4e5b9ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double factor = 0.5 + static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
  return std::max(1, static_cast<int>(static_cast<double>(delay_ms) * factor));
}

Status WorkerSupervisor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::InvalidArgument("worker supervisor already running");
  running_ = true;
  stopping_ = false;
  generation_ = 1;
  // Pid-derived default: every daemon in a fleet gets its own jitter
  // stream even when launched from identical configs.
  jitter_seed_ = opts_.backoff_jitter_seed != 0
                     ? opts_.backoff_jitter_seed
                     : static_cast<std::uint64_t>(::getpid()) * 0x9e3779b97f4a7c15ull + 1;
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
  s.snap_digest = snap->digest;
  s.kill_intentional = false;
  ++spawns_;
  return true;
}

void WorkerSupervisor::FailBusyWorkerLocked(Slot& s, bool intentional) {
  if (s.pid > 0) ::kill(s.pid, SIGKILL);  // idempotent if already dead
  s.fd.Close();
  s.state = SlotState::kReaping;
  s.kill_intentional = intentional;
  const auto now = Clock::now();
  if (intentional) {
    s.consecutive_failures = 0;
    s.respawn_at = now;
  } else {
    ++s.consecutive_failures;
    ++restarts_;
    s.respawn_at = now + std::chrono::milliseconds(JitteredBackoffMs(
                             BackoffDelayMs(s.consecutive_failures, opts_.backoff_initial_ms,
                                            opts_.backoff_max_ms),
                             jitter_seed_, static_cast<std::uint64_t>(&s - slots_.data()),
                             static_cast<std::uint64_t>(s.consecutive_failures)));
  }
}

std::optional<Hash128> WorkerSupervisor::RecordFailureLocked(const Hash128& digest) {
  const auto now = Clock::now();
  failures_.emplace_back(now, digest);
  const auto cutoff =
      now - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(opts_.breaker_window_seconds));
  while (!failures_.empty() && failures_.front().first < cutoff) failures_.pop_front();
  if (quarantined_.count(digest) != 0) return std::nullopt;  // already tripped
  int in_window = 0;
  for (const auto& [when, d] : failures_) {
    if (d == digest) ++in_window;
  }
  if (in_window < opts_.breaker_threshold) return std::nullopt;
  quarantined_.insert(digest);
  ++breaker_trips_;
  return digest;
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

QueryResponse WorkerSupervisor::Execute(const QueryRequest& req) {
  const std::string payload = EncodeQueryRequest(req);
  // Two-tier deadline: the worker's estimator honors req.deadline_seconds
  // itself (partial kDeadlineExceeded answer); the watchdog only fires for
  // a worker so wedged it cannot even answer, at deadline + grace.
  const double budget = req.deadline_seconds > 0
                            ? req.deadline_seconds + opts_.grace_seconds
                            : opts_.default_watchdog_seconds;
  int attempts_left = 1 + std::max(0, opts_.crash_retries);
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
    std::optional<Hash128> tripped;
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
      tripped = RecordFailureLocked(s.snap_digest);
      if (!hang && attempts_left > 0) ++crash_retried_queries_;
    }
    if (tripped.has_value() && on_trip_) on_trip_(*tripped);

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
    // Every trip of this pass: a later death in the same pass finds the
    // digest already quarantined and must not hide the trip.
    std::vector<Hash128> tripped;
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
            ++s.consecutive_failures;
            ++restarts_;
            s.respawn_at =
                now + std::chrono::milliseconds(JitteredBackoffMs(
                          BackoffDelayMs(s.consecutive_failures, opts_.backoff_initial_ms,
                                         opts_.backoff_max_ms),
                          jitter_seed_, static_cast<std::uint64_t>(&s - slots_.data()),
                          static_cast<std::uint64_t>(s.consecutive_failures)));
            if (std::optional<Hash128> t = RecordFailureLocked(s.snap_digest)) {
              tripped.push_back(*t);
            }
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
    if (!tripped.empty() && on_trip_) {
      // Fire the trip callbacks off the lock: they re-enter the supervisor
      // (RestartWorkers) and the registry.
      lock.unlock();
      for (const Hash128& digest : tripped) on_trip_(digest);
      lock.lock();
      continue;
    }
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

bool WorkerSupervisor::IsQuarantined(const Hash128& digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.count(digest) != 0;
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
  st.breaker_trips = breaker_trips_;
  st.quarantined_digests = static_cast<std::uint32_t>(quarantined_.size());
  if (provider_) {
    if (const auto snap = provider_()) {
      st.breaker_open = quarantined_.count(snap->digest) != 0;
    }
  }
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
