#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <utility>

namespace m3::serve {
namespace {

// Both caches share one injection site: an armed "serve/cache_lookup"
// fault makes every lookup fail, and the service must degrade to plain
// recompute (same answer, no reuse) rather than failing queries.
constexpr const char* kCacheFaultSite = "serve/cache_lookup";

// Distinct fat trees a daemon keeps alive at once. Real deployments use a
// handful of oversubscription ratios; the bound exists because the ratio is
// a client-supplied double (any bit pattern in range is admissible).
constexpr std::size_t kTopoCacheEntries = 8;

}  // namespace

EstimationService::EstimationService(const ServiceOptions& opts)
    : opts_(opts),
      registry_(opts.model_config),
      query_cache_(opts.query_cache_entries, kCacheFaultSite),
      path_cache_(opts.path_cache_entries, kCacheFaultSite),
      topos_(kTopoCacheEntries) {
  cost_budget_ = opts_.cost_budget > 0
                     ? opts_.cost_budget
                     : static_cast<double>(opts_.queue_capacity +
                                           static_cast<std::size_t>(
                                               std::max(1, opts_.num_workers))) *
                           128.0;
  if (opts_.worker_processes > 0) {
    SupervisorOptions sopts = opts_.supervisor;
    sopts.num_workers = opts_.worker_processes;
    sopts.threads_per_query = opts_.threads_per_query;
    sopts.path_cache_entries = opts_.path_cache_entries;
    supervisor_ = std::make_unique<WorkerSupervisor>(
        sopts, [this] { return registry_.Current(); });
    supervisor_->set_trip_callback([this](const Hash128& d) { OnBreakerTrip(d); });
  }
}

EstimationService::~EstimationService() { Stop(); }

Status EstimationService::ReloadModel(const std::string& checkpoint_path) {
  if (supervisor_ == nullptr) return registry_.Reload(checkpoint_path);

  // Worker mode splits load from publish so the quarantine check can sit
  // between them; reload_mu_ restores load->publish atomicity.
  std::lock_guard<std::mutex> lock(reload_mu_);
  StatusOr<std::shared_ptr<ModelSnapshot>> snap = registry_.Load(checkpoint_path);
  if (!snap.ok()) return snap.status();
  if (supervisor_->IsQuarantined((*snap)->digest)) {
    registry_.NoteReloadRefused();
    return Status::Unavailable(
        "reload refused: this checkpoint's model version is quarantined by the "
        "worker circuit breaker (it kept crashing workers)");
  }
  const std::shared_ptr<const ModelSnapshot> prev = registry_.Current();
  registry_.Publish(std::move(*snap));
  if (prev != nullptr && !supervisor_->IsQuarantined(prev->digest)) {
    last_good_ = prev;  // the rollback target if the new model misbehaves
  }
  supervisor_->RestartWorkers();  // roll the pool onto the new snapshot
  return Status::Ok();
}

void EstimationService::OnBreakerTrip(const Hash128& digest) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  const std::shared_ptr<const ModelSnapshot> cur = registry_.Current();
  if (cur == nullptr || !(cur->digest == digest)) return;  // already replaced
  if (last_good_ == nullptr || last_good_->digest == digest ||
      supervisor_->IsQuarantined(last_good_->digest)) {
    // Nothing safe to roll back to: the trip stays advisory (breaker_open
    // in --stats) and respawn backoff caps the churn — a crashing model
    // still beats no model.
    return;
  }
  registry_.Republish(last_good_);
  supervisor_->RestartWorkers();
}

Status EstimationService::Start() {
  if (supervisor_ != nullptr) {
    // If the service is already running, so is the supervisor, and this
    // returns the same kInvalidArgument the scheduler check would.
    M3_RETURN_IF_ERROR(supervisor_->Start());
  }
  // Durable caches: validate + lock the directory and start the flusher
  // before any worker can compute (so the first fresh entry can spill).
  // A bad --cache-dir fails Start with a clear status instead of failing
  // the first background flush.
  bool first_persist_start = false;
  if (!opts_.cache_dir.empty()) {
    if (!dir_lock_.held()) {
      if (Status st = AcquireCacheDir(opts_.cache_dir, &dir_lock_); !st.ok()) {
        if (supervisor_ != nullptr) supervisor_->Stop();
        return st;
      }
    }
    if (persister_ == nullptr) {
      PersistOptions popts;
      popts.dir = opts_.cache_dir;
      popts.flush_interval_seconds = opts_.cache_flush_interval_seconds;
      persister_ = std::make_unique<CachePersister>(popts);
      first_persist_start = true;
    }
    if (Status st = persister_->Start(); !st.ok()) {
      if (first_persist_start) persister_.reset();
      if (supervisor_ != nullptr) supervisor_->Stop();
      return st.Annotate("cache persistence");
    }
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
  // Recovery replays surviving segments *concurrently with serving*:
  // readiness never waits on disk. Only the first Start replays — a
  // Stop/Start cycle keeps its in-memory caches.
  if (first_persist_start) {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    recovery_ = std::thread([this] { RecoverPersistedCaches(); });
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
  WaitForPersistRecovery();
  // Final drain flush so a clean shutdown persists everything it computed.
  if (persister_ != nullptr) persister_->Stop();
}

Status EstimationService::FlushPersistNow() {
  if (persister_ == nullptr) return Status::Ok();
  return persister_->FlushNow();
}

void EstimationService::WaitForPersistRecovery() {
  std::lock_guard<std::mutex> lock(recovery_mu_);
  if (recovery_.joinable()) recovery_.join();
}

void EstimationService::RecoverPersistedCaches() {
  // The snapshot is pinned once for the whole replay: recovered entries
  // must match the model this process serves, not whatever it may reload
  // into later (a reload changes the digest, so stale keys simply miss).
  const std::shared_ptr<const ModelSnapshot> snap = registry_.Current();
  persister_->Recover([this, &snap](CacheKind kind, const Hash128& digest,
                                    const Hash128& key, const std::string& value)
                          -> CachePersister::Recovered {
    if (snap == nullptr || !(digest == snap->digest)) {
      return CachePersister::Recovered::kDigestMismatch;
    }
    switch (kind) {
      case CacheKind::kQuery: {
        StatusOr<QueryResponse> qr = DecodeQueryResponse(value);
        // Only full-quality kOk answers were ever written; anything else
        // surviving the framing checks is still not servable.
        if (!qr.ok() || !qr->status.ok()) return CachePersister::Recovered::kCorrupt;
        qr->model_version = snap->version;
        qr->model_crc = snap->param_crc;
        query_cache_.Insert(key, std::move(*qr));
        return CachePersister::Recovered::kLoaded;
      }
      case CacheKind::kPath: {
        StatusOr<PathEstimate> pe = DecodePathEstimateValue(value);
        if (!pe.ok()) return CachePersister::Recovered::kCorrupt;
        path_cache_.Insert(key, std::move(*pe));
        return CachePersister::Recovered::kLoaded;
      }
      default:
        // kRouterPath (or an unknown kind) does not belong to a daemon's
        // directory; directory locking should make this unreachable.
        return CachePersister::Recovered::kCorrupt;
    }
  });
}

std::size_t EstimationService::QueueDepthLocked() const {
  std::size_t depth = 0;
  for (const std::deque<Pending>& q : queues_) depth += q.size();
  return depth;
}

double EstimationService::OldestSojournLocked(
    std::chrono::steady_clock::time_point now) const {
  double oldest = 0.0;
  for (const std::deque<Pending>& q : queues_) {
    if (q.empty()) continue;
    const double age = std::chrono::duration<double>(now - q.front().enqueued).count();
    oldest = std::max(oldest, age);
  }
  return oldest;
}

double EstimationService::EstimateCost(const QueryRequest& req) const {
  const auto hit_rate = [](const CacheStats& s) {
    const std::uint64_t probes = s.hits + s.misses;
    return probes == 0 ? 0.0 : static_cast<double>(s.hits) / static_cast<double>(probes);
  };
  const double q_hit = req.no_cache ? 0.0 : hit_rate(query_cache_.stats());
  const double p_hit = req.no_cache ? 0.0 : hit_rate(path_cache_.stats());
  const double paths = static_cast<double>(std::max<std::int32_t>(req.num_paths, 0));
  // Base work + flow ingestion + per-path model work, each discounted by
  // the chance the cache absorbs it (a query-cache hit skips everything; a
  // path-cache hit skips ~90% of that path's cost).
  return 1.0 + static_cast<double>(req.flows.size()) / 10000.0 +
         (1.0 - q_hit) * paths * (1.0 - 0.9 * p_hit);
}

void EstimationService::ReapExpiredLocked(std::chrono::steady_clock::time_point now,
                                          std::vector<Pending>* reaped) {
  for (std::deque<Pending>& q : queues_) {
    for (auto it = q.begin(); it != q.end();) {
      const double age = std::chrono::duration<double>(now - it->enqueued).count();
      if (it->req.deadline_seconds > 0 && age >= it->req.deadline_seconds) {
        in_flight_cost_ = std::max(0.0, in_flight_cost_ - it->cost);
        reaped->push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void EstimationService::UpdateBrownoutLocked(
    double sojourn_seconds, bool escalate,
    std::chrono::steady_clock::time_point now) {
  if (!opts_.brownout_enabled) return;
  int observed = 0;
  if (sojourn_seconds >= opts_.brownout2_sojourn_seconds) {
    observed = 2;
  } else if (sojourn_seconds >= opts_.brownout1_sojourn_seconds) {
    observed = 1;
  }
  if (escalate) observed = std::max(observed, 1);
  if (observed >= brownout_level_) {
    // Pressure persists (or worsens): move to the observed level and
    // restart the hold window.
    if (observed > 0) {
      brownout_level_ = observed;
      brownout_until_ =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(opts_.brownout_hold_seconds));
    }
  } else if (now >= brownout_until_) {
    // Pressure subsided and the hold expired: recover (possibly straight
    // to full quality).
    brownout_level_ = observed;
  }
}

void EstimationService::AnswerShed(Pending p, ShedReason reason) {
  queries_shed_.fetch_add(1, std::memory_order_relaxed);
  shed_by_reason_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (!p.done) return;
  QueryResponse resp;
  resp.shed_reason = static_cast<std::uint8_t>(reason);
  if (reason == ShedReason::kExpired) {
    resp.status = Status::DeadlineExceeded(
        "shed: deadline expired while queued (never executed)");
  } else {
    resp.status = Status::ResourceExhausted(
        "shed: displaced by a higher-priority request");
  }
  p.done(std::move(resp));
}

void EstimationService::WorkerLoop() {
  for (;;) {
    Pending p;
    bool expired = false;
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
      const auto now = std::chrono::steady_clock::now();
      const double sojourn =
          std::chrono::duration<double>(now - p.enqueued).count();
      UpdateBrownoutLocked(sojourn, /*escalate=*/false, now);
      expired = p.req.deadline_seconds > 0 && sojourn >= p.req.deadline_seconds;
      if (expired) {
        in_flight_cost_ = std::max(0.0, in_flight_cost_ - p.cost);
      } else if (brownout_level_ > 0 &&
                 p.req.priority <
                     static_cast<std::uint8_t>(Priority::kCritical) &&
                 p.req.brownout == 0) {
        // Brownout applies only below kCritical, and never overrides a
        // level the client pinned explicitly (tests do).
        p.req.brownout = static_cast<std::uint8_t>(brownout_level_);
      }
    }
    if (expired) {
      // Its deadline is already blown; executing would only burn budget
      // other queries still need. Answer typed, immediately.
      AnswerShed(std::move(p), ShedReason::kExpired);
      continue;
    }
    if (p.req.brownout > 0) {
      brownout_queries_.fetch_add(1, std::memory_order_relaxed);
    }
    if (p.req.deadline_seconds > 0) {
      // The client's deadline covers time spent queued behind other work,
      // not just compute; shrink the budget Execute may spend by the
      // observed wait. A fully blown deadline keeps a nominal budget so
      // the estimator's own deadline machinery reports it uniformly
      // (kDeadlineExceeded with a partial estimate).
      const double waited =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - p.enqueued)
              .count();
      p.req.deadline_seconds = std::max(p.req.deadline_seconds - waited, 1e-9);
    }
    if (pre_execute_hook_) pre_execute_hook_(p.req);
    QueryResponse resp = Execute(p.req);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      in_flight_cost_ = std::max(0.0, in_flight_cost_ - p.cost);
    }
    if (p.done) p.done(std::move(resp));
  }
}

Status EstimationService::Submit(QueryRequest req, DoneFn done,
                                 ShedReason* shed_out) {
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  if (shed_out != nullptr) *shed_out = ShedReason::kNone;
  const int cls = std::min<int>(req.priority, kNumPriorityClasses - 1);
  req.priority = static_cast<std::uint8_t>(cls);

  std::vector<Pending> shed;  // answered outside queue_mu_ (AnswerShed → Stats)
  Status result = Status::Ok();
  ShedReason reason = ShedReason::kNone;
  bool displaced_victim = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_ || stopping_) {
      return Status::Unavailable("estimation service is not running");
    }
    const auto now = std::chrono::steady_clock::now();
    // Satellite fix: expired entries stop displacing admissible work the
    // moment any new work arrives, not when a worker finally reaches them.
    ReapExpiredLocked(now, &shed);

    const bool critical =
        cls == static_cast<int>(Priority::kCritical);
    const double cost = EstimateCost(req);
    if (!critical && opts_.shed_sojourn_seconds > 0 &&
        OldestSojournLocked(now) >= opts_.shed_sojourn_seconds) {
      // CoDel-style: queue *delay*, not queue length, is the overload
      // signal — once standing sojourn passes the target, adding more
      // work only pushes everyone past their deadline.
      reason = ShedReason::kSojourn;
      result = Status::ResourceExhausted(
          "admission control: queue sojourn above shed threshold (" +
          std::to_string(opts_.shed_sojourn_seconds) + "s)");
    } else if (!critical && in_flight_cost_ > 0.0 &&
               in_flight_cost_ + cost > cost_budget_) {
      reason = ShedReason::kCostBudget;
      result = Status::ResourceExhausted(
          "admission control: in-flight cost budget exhausted");
    } else if (QueueDepthLocked() >= opts_.queue_capacity) {
      // Full queue: displace the newest entry of the lowest class that is
      // strictly below this request's class; same-or-higher classes are
      // never displaced, so a same-class burst still sees the original
      // FIFO queue-full rejection.
      int victim_cls = -1;
      for (int c = 0; c < cls; ++c) {
        if (!queues_[c].empty()) {
          victim_cls = c;
          break;
        }
      }
      if (victim_cls >= 0) {
        Pending victim = std::move(queues_[victim_cls].back());
        queues_[victim_cls].pop_back();
        in_flight_cost_ = std::max(0.0, in_flight_cost_ - victim.cost);
        shed.push_back(std::move(victim));
        displaced_victim = true;
        // Displacement is a pressure signal: brown out before sojourns grow.
        UpdateBrownoutLocked(0.0, /*escalate=*/true, now);
      } else {
        reason = ShedReason::kQueueFull;
        result = Status::ResourceExhausted(
            "admission control: request queue full (" +
            std::to_string(opts_.queue_capacity) + " pending)");
      }
    }
    if (result.ok()) {
      in_flight_cost_ += cost;
      queues_[cls].push_back(
          Pending{std::move(req), std::move(done), now, cost});
    }
  }
  // Everything reaped is kExpired; the displaced victim (appended last,
  // if any) is kPriority.
  const std::size_t expired_count = shed.size() - (displaced_victim ? 1 : 0);
  for (std::size_t i = 0; i < shed.size(); ++i) {
    AnswerShed(std::move(shed[i]),
               i < expired_count ? ShedReason::kExpired : ShedReason::kPriority);
  }
  if (!result.ok()) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    shed_by_reason_[static_cast<std::size_t>(reason)].fetch_add(
        1, std::memory_order_relaxed);
    if (shed_out != nullptr) *shed_out = reason;
    return result;
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

  std::promise<QueryResponse> promise;
  std::future<QueryResponse> result = promise.get_future();
  ShedReason shed = ShedReason::kNone;
  const Status st = Submit(
      req, [&promise](QueryResponse r) { promise.set_value(std::move(r)); }, &shed);
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
  return Execute(req);
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
  ctx.path_cache = opts_.path_cache_entries > 0 ? &path_cache_ : nullptr;
  ctx.threads_per_query = opts_.threads_per_query;
  if (persister_ != nullptr) {
    ctx.persist_path = [this](const Hash128& key, const Hash128& digest,
                              const PathEstimate& pe) {
      persister_->Enqueue(CacheKind::kPath, digest, key, EncodePathEstimateValue(pe));
    };
  }
  resp = ExecuteShardOnSnapshot(req, *snap, ctx);
  (IsAnsweredCode(resp.status.code()) ? queries_ok_ : queries_failed_)
      .fetch_add(1, std::memory_order_relaxed);
  return resp;
}

std::size_t EstimationService::TopologyCacheSize() const { return topos_.size(); }

QueryResponse EstimationService::Execute(const QueryRequest& req) {
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

  const Hash128 query_key = QueryCacheKey(req, snap->digest);
  if (!req.no_cache) {
    try {
      if (std::optional<QueryResponse> hit = query_cache_.Lookup(query_key)) {
        resp = std::move(*hit);
        resp.model_version = snap->version;
        resp.model_crc = snap->param_crc;
        resp.query_cache_hit = true;
        queries_ok_.fetch_add(1, std::memory_order_relaxed);
        return resp;
      }
    } catch (...) {
      // Cache outage (injected or real): recompute. Never fail the query.
    }
  }

  if (supervisor_ != nullptr) {
    // Worker subprocesses keep private path caches that die with them;
    // only the daemon-level query cache (below) persists in this mode.
    resp = supervisor_->Execute(req);
  } else {
    ExecContext ctx;
    ctx.topos = &topos_;
    ctx.path_cache = opts_.path_cache_entries > 0 ? &path_cache_ : nullptr;
    ctx.threads_per_query = opts_.threads_per_query;
    if (persister_ != nullptr) {
      ctx.persist_path = [this](const Hash128& key, const Hash128& digest,
                                const PathEstimate& pe) {
        persister_->Enqueue(CacheKind::kPath, digest, key,
                            EncodePathEstimateValue(pe));
      };
    }
    resp = ExecuteQueryOnSnapshot(req, *snap, ctx);
  }

  (IsAnsweredCode(resp.status.code()) ? queries_ok_ : queries_failed_)
      .fetch_add(1, std::memory_order_relaxed);

  // Only full-quality answers are content-addressable: a degraded or
  // partial answer depends on fault timing, not just on the inputs. The
  // version check matters in worker mode: during a reload roll a worker
  // pinning the *old* snapshot may answer, and its result must not be
  // cached under the new digest's key.
  if (resp.status.ok() && !req.no_cache && resp.model_version == snap->version) {
    QueryResponse cached = resp;  // hit flag stays default
    // Encode before the move; Insert's return gates the spill so refreshes
    // (and recovered entries) are never written twice.
    std::string blob;
    if (persister_ != nullptr) blob = EncodeQueryResponse(cached);
    if (query_cache_.Insert(query_key, std::move(cached)) &&
        persister_ != nullptr) {
      persister_->Enqueue(CacheKind::kQuery, snap->digest, query_key,
                          std::move(blob));
    }
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
  s.brownout_queries = brownout_queries_.load(std::memory_order_relaxed);
  s.query_cache = CacheOpValues(query_cache_.stats());
  s.path_cache = CacheOpValues(path_cache_.stats());
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = static_cast<std::uint32_t>(QueueDepthLocked());
    s.brownout_level = static_cast<std::uint32_t>(brownout_level_);
    s.in_flight_cost = in_flight_cost_;
    s.cost_budget = cost_budget_;
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
    s.breaker_trips = w.breaker_trips;
    s.breaker_open = w.breaker_open;
    s.quarantined_digests = w.quarantined_digests;
  }
  ExportPersistStats(persister_.get(), &s);
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

void EstimationService::ClearCaches() {
  query_cache_.Clear();
  path_cache_.Clear();
}

void EstimationService::ClearQueryCache() { query_cache_.Clear(); }

}  // namespace m3::serve
