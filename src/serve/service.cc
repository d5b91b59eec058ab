#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

namespace m3::serve {
namespace {

// An armed "serve/cache_lookup" fault makes every query-cache lookup fail,
// and the service must degrade to plain recompute (same answer, no reuse)
// rather than failing queries.
constexpr const char* kCacheFaultSite = "serve/cache_lookup";

}  // namespace

EstimationService::EstimationService(const ServiceOptions& opts)
    : opts_(opts),
      registry_(opts.model_config),
      query_cache_(opts.query_cache_entries, kCacheFaultSite) {
  if (opts_.worker_processes > 0) {
    SupervisorOptions sopts = opts_.supervisor;
    sopts.num_workers = opts_.worker_processes;
    sopts.threads_per_query = opts_.threads_per_query;
    supervisor_ = std::make_unique<WorkerSupervisor>(
        sopts, [this] { return registry_.Current(); });
  }
}

EstimationService::~EstimationService() { Stop(); }

Status EstimationService::ReloadModel(const std::string& checkpoint_path) {
  M3_RETURN_IF_ERROR(registry_.Reload(checkpoint_path));
  if (supervisor_ != nullptr) supervisor_->RestartWorkers();  // roll the pool
  return Status::Ok();
}

Status EstimationService::Start() {
  if (supervisor_ != nullptr) {
    // If the service is already running, so is the supervisor, and this
    // returns the same kInvalidArgument the scheduler check would.
    M3_RETURN_IF_ERROR(supervisor_->Start());
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (running_) return Status::InvalidArgument("service already running");
    running_ = true;
    stopping_ = false;
    const int n = std::max(1, opts_.num_workers);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  return Status::Ok();
}

void EstimationService::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_) {
      if (supervisor_ != nullptr) supervisor_->Stop();  // Start() may have half-run
      return;
    }
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    running_ = false;
    stopping_ = false;
  }
  // The scheduler is drained (every accepted query answered), so no
  // Execute() is in flight on the pool.
  if (supervisor_ != nullptr) supervisor_->Stop();
}

std::size_t EstimationService::QueueDepthLocked() const {
  std::size_t depth = 0;
  for (const std::deque<Pending>& q : queues_) depth += q.size();
  return depth;
}

void EstimationService::ReapExpiredLocked(std::chrono::steady_clock::time_point now,
                                          std::vector<Pending>* reaped) {
  for (std::deque<Pending>& q : queues_) {
    for (auto it = q.begin(); it != q.end();) {
      const double age = std::chrono::duration<double>(now - it->enqueued).count();
      const double deadline = it->req->deadline_seconds;
      if (deadline > 0 && age >= deadline) {
        reaped->push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void EstimationService::AnswerExpired(Pending p) {
  queries_shed_.fetch_add(1, std::memory_order_relaxed);
  shed_by_reason_[static_cast<std::size_t>(ShedReason::kExpired)].fetch_add(
      1, std::memory_order_relaxed);
  if (!p.done) return;
  QueryResponse resp;
  resp.shed_reason = static_cast<std::uint8_t>(ShedReason::kExpired);
  resp.status =
      Status::DeadlineExceeded("shed: deadline expired while queued (never executed)");
  p.done(std::move(resp));
}

void EstimationService::WorkerLoop() {
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || QueueDepthLocked() > 0; });
      if (QueueDepthLocked() == 0) return;  // stopping_ && drained
      // Highest priority class first; FIFO within a class.
      for (int cls = kNumPriorityClasses - 1; cls >= 0; --cls) {
        std::deque<Pending>& q = queues_[cls];
        if (q.empty()) continue;
        p = std::move(q.front());
        q.pop_front();
        break;
      }
    }
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - p.enqueued)
            .count();
    const double deadline = p.req->deadline_seconds;
    if (deadline > 0 && waited >= deadline) {
      // Its deadline is already blown; executing would only burn budget
      // other queries still need. Answer typed, immediately.
      AnswerExpired(std::move(p));
      continue;
    }
    // The client's deadline covers time spent queued behind other work,
    // not just compute; Execute may spend only what the observed wait left
    // (positive: a blown deadline was answered above).
    const double budget = deadline > 0 ? deadline - waited : 0.0;
    if (pre_execute_hook_) pre_execute_hook_(*p.req);
    QueryResponse resp = Execute(*p.req, budget, p.key ? &*p.key : nullptr);
    // A borrowed request's caller may return once `done` fires.
    if (p.done) p.done(std::move(resp));
  }
}

Status EstimationService::Submit(QueryRequest req, DoneFn done,
                                 ShedReason* shed_out) {
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  Pending p;
  p.owned = std::make_unique<const QueryRequest>(std::move(req));
  p.req = p.owned.get();
  p.done = std::move(done);
  return Admit(std::move(p), shed_out);
}

Status EstimationService::Admit(Pending p, ShedReason* shed_out) {
  if (shed_out != nullptr) *shed_out = ShedReason::kNone;
  const int cls = std::min<int>(p.req->priority, kNumPriorityClasses - 1);

  std::vector<Pending> expired;  // answered outside queue_mu_
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_ || stopping_) {
      // Query() can race Stop() to here; the outcome still counts, so
      // received = ok + rejected + failed + shed holds through shutdown.
      queries_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("estimation service is not running");
    }
    const auto now = std::chrono::steady_clock::now();
    // Expired entries free their slots the moment any new work arrives,
    // not when a worker finally reaches them.
    ReapExpiredLocked(now, &expired);
    full = QueueDepthLocked() >= opts_.queue_capacity;
    if (!full) {
      p.enqueued = now;
      queues_[cls].push_back(std::move(p));
    }
  }
  for (Pending& p : expired) AnswerExpired(std::move(p));
  if (full) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    shed_by_reason_[static_cast<std::size_t>(ShedReason::kQueueFull)].fetch_add(
        1, std::memory_order_relaxed);
    if (shed_out != nullptr) *shed_out = ShedReason::kQueueFull;
    return Status::ResourceExhausted("admission control: request queue full (" +
                                     std::to_string(opts_.queue_capacity) + " pending)");
  }
  queue_cv_.notify_one();
  return Status::Ok();
}

QueryResponse EstimationService::Query(const QueryRequest& req) {
  bool scheduled;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    scheduled = running_ && !stopping_;
  }
  if (!scheduled) return ExecuteInline(req);
  queries_received_.fetch_add(1, std::memory_order_relaxed);

  // Key the query here, where its bytes are hot, and answer a hit without
  // a trip through the queue: a hit needs no compute.
  Pending p;
  p.req = &req;
  if (!req.no_cache) {
    if (const std::shared_ptr<const ModelSnapshot> snap = registry_.Current()) {
      p.key = KeyedQuery{QueryCacheKey(req, snap->digest), snap->digest};
      // A miss counts at the worker's probe, once per query.
      if (std::optional<QueryResponse> hit = LookupHit(p.key->key, *snap, false)) {
        return std::move(*hit);
      }
    }
  }

  // A miss borrows `req`: this thread blocks below until `done` fires.
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> result = promise.get_future();
  p.done = [&promise](QueryResponse r) { promise.set_value(std::move(r)); };
  ShedReason shed = ShedReason::kNone;
  const Status st = Admit(std::move(p), &shed);
  if (!st.ok()) {
    QueryResponse resp;
    resp.status = st;
    resp.shed_reason = static_cast<std::uint8_t>(shed);
    return resp;
  }
  return result.get();
}

QueryResponse EstimationService::ExecuteInline(const QueryRequest& req) {
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  return Execute(req, req.deadline_seconds, nullptr);
}

ShardQueryResponse EstimationService::ExecuteShard(const ShardQueryRequest& req) {
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  ShardQueryResponse resp;
  const std::shared_ptr<const ModelSnapshot> snap = registry_.Current();
  if (snap == nullptr) {
    resp.status = Status::Unavailable(
        "no model loaded (start m3d with --model, or send a reload request)");
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return resp;
  }
  ExecContext ctx;
  ctx.topos = &topos_;
  ctx.threads_per_query = opts_.threads_per_query;
  resp = ExecuteShardOnSnapshot(req, *snap, ctx);
  (IsAnsweredCode(resp.status.code()) ? queries_ok_ : queries_failed_)
      .fetch_add(1, std::memory_order_relaxed);
  return resp;
}

std::size_t EstimationService::TopologyCacheSize() const { return topos_.size(); }

std::optional<QueryResponse> EstimationService::LookupHit(const Hash128& key,
                                                          const ModelSnapshot& snap,
                                                          bool count_miss) {
  try {
    std::optional<QueryResponse> hit = query_cache_.Lookup(key, count_miss);
    if (!hit.has_value()) return std::nullopt;
    hit->model_version = snap.version;
    hit->model_crc = snap.param_crc;
    hit->query_cache_hit = true;
    queries_ok_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  } catch (...) {
    // Cache outage (injected or real): recompute. Never fail the query.
    return std::nullopt;
  }
}

QueryResponse EstimationService::Execute(const QueryRequest& req, double deadline_seconds,
                                         const KeyedQuery* known) {
  QueryResponse resp;
  const std::shared_ptr<const ModelSnapshot> snap = registry_.Current();
  if (snap == nullptr) {
    resp.status = Status::Unavailable(
        "no model loaded (start m3d with --model, or send a reload request)");
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return resp;
  }
  resp.model_version = snap->version;
  resp.model_crc = snap->param_crc;

  // Probe once more before computing: a duplicate may have finished
  // while this one queued. The admitting thread's key stands unless a
  // reload changed the model since.
  Hash128 query_key;
  if (!req.no_cache) {
    query_key = known != nullptr && known->digest == snap->digest
                    ? known->key
                    : QueryCacheKey(req, snap->digest);
    if (std::optional<QueryResponse> hit = LookupHit(query_key, *snap, true)) {
      return std::move(*hit);
    }
  }

  if (supervisor_ != nullptr) {
    resp = supervisor_->Execute(req, deadline_seconds);
  } else {
    ExecContext ctx;
    ctx.topos = &topos_;
    ctx.threads_per_query = opts_.threads_per_query;
    resp = ExecuteQueryOnSnapshot(req, deadline_seconds, *snap, ctx);
  }

  (IsAnsweredCode(resp.status.code()) ? queries_ok_ : queries_failed_)
      .fetch_add(1, std::memory_order_relaxed);

  // Only full-quality answers are content-addressable: a degraded or
  // partial answer depends on fault timing, not just on the inputs. The
  // version check matters in worker mode: during a reload roll a worker
  // pinning the *old* snapshot may answer, and its result must not be
  // cached under the new digest's key.
  if (resp.status.ok() && !req.no_cache && resp.model_version == snap->version) {
    query_cache_.Insert(query_key, resp);  // hit flag stays default
  }
  return resp;
}

ServerStatsWire EstimationService::Stats() const {
  ServerStatsWire s;
  s.queries_received = queries_received_.load(std::memory_order_relaxed);
  s.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  s.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  s.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  s.queries_shed = queries_shed_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumShedReasons; ++i) {
    s.shed_by_reason[i] = shed_by_reason_[i].load(std::memory_order_relaxed);
  }
  s.query_cache = CacheOpValues(query_cache_.stats());
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = static_cast<std::uint32_t>(QueueDepthLocked());
  }
  s.queue_capacity = static_cast<std::uint32_t>(opts_.queue_capacity);
  s.workers = static_cast<std::uint32_t>(std::max(1, opts_.num_workers));
  if (const auto snap = registry_.Current()) {
    s.model_version = snap->version;
    s.model_crc = snap->param_crc;
    s.model_path = snap->checkpoint_path;
  }
  s.reloads_ok = registry_.reloads_ok();
  s.reloads_failed = registry_.reloads_failed();
  if (supervisor_ != nullptr) {
    const WorkerPoolStats w = supervisor_->stats();
    s.worker_mode = true;
    s.workers_configured = w.configured;
    s.workers_alive = w.alive;
    s.worker_spawns = w.spawns;
    s.worker_restarts = w.restarts;
    s.worker_crashes = w.crashes;
    s.watchdog_kills = w.watchdog_kills;
    s.garbage_replies = w.garbage_replies;
    s.crash_retried_queries = w.crash_retried_queries;
  }
  return s;
}

PingResponse EstimationService::Ping() const {
  PingResponse p;
  const auto snap = registry_.Current();
  if (snap != nullptr) {
    p.model_version = snap->version;
    p.model_crc = snap->param_crc;
  }
  if (supervisor_ != nullptr) {
    p.worker_mode = true;
    p.workers_alive = supervisor_->stats().alive;
    p.ready = snap != nullptr && p.workers_alive > 0;
  } else {
    p.ready = snap != nullptr;
  }
  return p;
}

void EstimationService::ClearCaches() { query_cache_.Clear(); }

}  // namespace m3::serve
