#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "core/validate.h"
#include "util/hash.h"

namespace m3::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kInfSeconds = std::numeric_limits<double>::infinity();

// Same injection site as the service's caches: an armed "serve/cache_lookup"
// fault makes the router cache lookup fail, and the query must fall through
// to a plain scatter (same answer, no reuse).
constexpr const char* kCacheFaultSite = "serve/cache_lookup";

double Elapsed(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The model term of the router's query-cache keys: the fleet's model CRC
// (the router never sees a digest). A fleet model swap moves every key, as a
// reload moves the service's; LruCache::Insert never overwrites an entry.
Hash128 FleetDigest(std::uint32_t crc) { return Hash128{0, crc}; }

// The ring key of sample slot `s` of the query keyed `query_key`: slots
// spread over the fleet with no decomposition, and a repeat of the query
// places them as before.
Hash128 SlotKey(const Hash128& query_key, std::size_t s) {
  return Hasher().U64(query_key.hi).U64(query_key.lo).U64(s).Finish();
}

bool HasWeight(const PathEstimate& pe) {
  for (double c : pe.counts) {
    if (c > 0.0) return true;
  }
  return false;
}

}  // namespace

Router::Router(const RouterOptions& opts)
    : opts_(opts), query_cache_(opts.query_cache_entries, kCacheFaultSite) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::InvalidArgument("router already started");
  }
  if (opts_.shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard endpoint");
  }
  std::vector<std::string> names;
  std::vector<std::unique_ptr<Shard>> shards;
  for (const std::string& spec : opts_.shards) {
    StatusOr<Endpoint> ep = ParseEndpoint(spec);
    if (!ep.ok()) return ep.status().Annotate("shard spec '" + spec + "'");
    std::string name = ep->ToString();
    for (const auto& s : shards) {
      if (s->name == name) return Status::InvalidArgument("duplicate shard " + name);
    }
    shards.push_back(std::make_unique<Shard>(std::move(*ep), name, opts_.breaker));
    names.push_back(shards.back()->name);
  }
  shards_ = std::move(shards);
  ring_ = std::make_unique<HashRing>(names, opts_.vnodes);
  // Durable router cache: validate + lock the directory before probing so a
  // bad --cache-dir fails Start with a clear status.
  bool first_persist_start = false;
  if (!opts_.cache_dir.empty() && opts_.query_cache_entries > 0) {
    if (!dir_lock_.held()) {
      M3_RETURN_IF_ERROR(AcquireCacheDir(opts_.cache_dir, &dir_lock_));
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
      return st.Annotate("cache persistence");
    }
  }
  // Synchronous first probe round (parallel: a down shard costs one connect
  // timeout, not one per shard): a query issued right after Start() must
  // see the shards that are already up, not wait out a health interval.
  {
    std::vector<std::thread> th;
    th.reserve(shards_.size());
    for (auto& s : shards_) th.emplace_back([this, &s] { ProbeShard(*s); });
    for (auto& t : th) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  prober_ = std::thread([this] { HealthLoop(); });
  // Recovery runs after the synchronous probe round (the fleet's model CRC
  // is the validity guard) and concurrently with serving: readiness never
  // waits on disk. Only the first Start replays.
  if (first_persist_start) {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    recovery_ = std::thread([this] { RecoverPersistedCache(); });
  }
  return Status::Ok();
}

Status Router::FlushPersistNow() {
  if (persister_ == nullptr) return Status::Ok();
  return persister_->FlushNow();
}

void Router::WaitForPersistRecovery() {
  std::lock_guard<std::mutex> lock(recovery_mu_);
  if (recovery_.joinable()) recovery_.join();
}

std::pair<std::uint64_t, std::uint32_t> Router::FleetModel() const {
  std::uint64_t mv = 0;
  std::uint32_t crc = 0;
  for (const auto& s : shards_) {
    if (!s->healthy.load(std::memory_order_relaxed)) continue;
    const std::uint64_t v = s->model_version.load(std::memory_order_relaxed);
    const std::uint32_t c = s->model_crc.load(std::memory_order_relaxed);
    // Highest version wins; with equal versions any healthy shard's CRC
    // serves (a converged fleet agrees on it).
    if (v > mv || (crc == 0 && c != 0)) {
      mv = std::max(mv, v);
      crc = c;
    }
  }
  return {mv, crc};
}

void Router::RecoverPersistedCache() {
  const std::uint32_t fleet_crc = FleetModel().second;
  persister_->Recover([this, fleet_crc](CacheKind kind, const Hash128& digest,
                                        const Hash128& key, const std::string& value)
                          -> CachePersister::Recovered {
    // Retired kRouterPath records (and any other kind) are not servable.
    if (kind != CacheKind::kQuery) return CachePersister::Recovered::kCorrupt;
    // No healthy shard at boot (crc 0) or a model swap across the restart:
    // the entry cannot be validated against the live fleet — drop it.
    if (fleet_crc == 0 || digest != FleetDigest(fleet_crc)) {
      return CachePersister::Recovered::kDigestMismatch;
    }
    StatusOr<QueryResponse> qr = DecodeQueryResponse(value);
    // Only full-quality kOk answers were ever written.
    if (!qr.ok() || !qr->status.ok()) return CachePersister::Recovered::kCorrupt;
    if (qr->model_crc != fleet_crc) return CachePersister::Recovered::kDigestMismatch;
    query_cache_.Insert(key, std::move(*qr));
    return CachePersister::Recovered::kLoaded;
  });
}

void Router::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->pool_mu);
    s->pool.clear();
  }
  WaitForPersistRecovery();
  // Final drain flush so a clean shutdown persists everything it gathered.
  if (persister_ != nullptr) persister_->Stop();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  stopping_ = false;
}

void Router::HealthLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    stop_cv_.wait_for(lock,
                      std::chrono::duration<double>(std::max(0.05, opts_.health_interval_seconds)),
                      [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    std::vector<std::thread> th;
    th.reserve(shards_.size());
    for (auto& s : shards_) th.emplace_back([this, &s] { ProbeShard(*s); });
    for (auto& t : th) t.join();
    lock.lock();
  }
}

void Router::ProbeShard(Shard& s) {
  const double t = opts_.connect_timeout_seconds;
  StatusOr<UnixFd> fd = ConnectEndpoint(s.ep, t);
  bool ready = false;
  if (fd.ok()) {
    const double io = t > 0 ? std::max(t, 1.0) : 5.0;
    SetRecvTimeout(*fd, io);
    SetSendTimeout(*fd, io);
    if (SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kPingRequest), EncodePingRequest())
            .ok()) {
      StatusOr<Frame> f = RecvFrame(*fd);
      if (f.ok() && f->type == static_cast<std::uint32_t>(MsgType::kPingResponse)) {
        if (StatusOr<PingResponse> p = DecodePingResponse(f->payload); p.ok()) {
          ready = p->ready;
          s.model_version.store(p->model_version, std::memory_order_relaxed);
          if (p->model_crc != 0) {
            s.model_crc.store(p->model_crc, std::memory_order_relaxed);
          }
        }
      }
    }
  }
  s.healthy.store(ready, std::memory_order_relaxed);
  if (ready) {
    s.breaker.RecordSuccess();
  } else if (!fd.ok()) {
    // Unreachable: charge the breaker so the shard's keys stop burning a
    // timeout per query. Reachable-but-not-ready (no model yet) only clears
    // `healthy` — the peer is alive, just not serving.
    s.breaker.RecordFailure();
  }
}

StatusOr<ShardQueryResponse> Router::CallShard(Shard& s, const std::string& payload,
                                               double recv_timeout_seconds) {
  s.dispatches.fetch_add(1, std::memory_order_relaxed);
  UnixFd fd;
  {
    std::lock_guard<std::mutex> lock(s.pool_mu);
    if (!s.pool.empty()) {
      fd = std::move(s.pool.back());
      s.pool.pop_back();
    }
  }
  bool pooled = fd.valid();
  Status err;
  for (;;) {
    if (!fd.valid()) {
      StatusOr<UnixFd> c = ConnectEndpoint(s.ep, opts_.connect_timeout_seconds);
      if (!c.ok()) {
        s.failures.fetch_add(1, std::memory_order_relaxed);
        s.healthy.store(false, std::memory_order_relaxed);
        return c.status().Annotate("shard " + s.name);
      }
      fd = std::move(*c);
      pooled = false;
    }
    SetRecvTimeout(fd, recv_timeout_seconds);
    SetSendTimeout(fd, recv_timeout_seconds);
    const Status sent =
        SendFrame(fd, static_cast<std::uint32_t>(MsgType::kShardQueryRequest), payload);
    if (sent.ok()) {
      StatusOr<Frame> frame = RecvFrame(fd);
      if (frame.ok()) {
        if (frame->type != static_cast<std::uint32_t>(MsgType::kShardQueryResponse)) {
          err = Status::Internal("shard " + s.name + ": unexpected frame type " +
                                 std::to_string(frame->type));
          break;
        }
        StatusOr<ShardQueryResponse> resp = DecodeShardQueryResponse(frame->payload);
        if (!resp.ok()) {
          err = resp.status().Annotate("shard " + s.name + " reply");
          break;
        }
        std::lock_guard<std::mutex> lock(s.pool_mu);
        if (s.pool.size() < opts_.pool_per_shard) s.pool.push_back(std::move(fd));
        return resp;
      }
      // Clean EOF on a pooled connection: the shard closed it while idle.
      // Retry once on a fresh connection. A recv *timeout* never retries —
      // the shard may be mid-compute, and resending would double the work.
      if (pooled && frame.status().code() == StatusCode::kNotFound) {
        fd.Close();
        pooled = false;
        continue;
      }
      err = frame.status().Annotate("shard " + s.name);
      break;
    }
    if (pooled) {  // stale pooled fd failed the send; one fresh retry
      fd.Close();
      pooled = false;
      continue;
    }
    err = sent.Annotate("shard " + s.name);
    break;
  }
  fd.Close();  // failed exchange: connection state unknown, never pool it
  s.failures.fetch_add(1, std::memory_order_relaxed);
  return err;
}

QueryResponse Router::Query(const QueryRequest& req) {
  const auto t0 = Clock::now();
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  QueryResponse resp;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      resp.status = Status::Unavailable("router not started");
      queries_failed_.fetch_add(1, std::memory_order_relaxed);
      return resp;
    }
  }

  // ---- router query cache, consulted before anything else ----
  // An exact repeat never touches the fleet. Entries are valid only while
  // their model *content CRC* matches the live fleet's (the registry
  // version is per-process and cannot survive a shard restart). The key
  // also places the slots, so every query computes it.
  const std::pair<std::uint64_t, std::uint32_t> fleet_model = FleetModel();
  const std::uint32_t fleet_crc = fleet_model.second;
  const bool cache_on = !req.no_cache && query_cache_.capacity() > 0 && fleet_crc != 0;
  const Hash128 query_key = QueryCacheKey(req, FleetDigest(fleet_crc));
  if (cache_on) {
    try {
      if (std::optional<QueryResponse> hit = query_cache_.Lookup(query_key);
          hit && hit->model_crc == fleet_crc) {
        resp = std::move(*hit);
        resp.model_version = fleet_model.first;
        resp.model_crc = fleet_crc;
        resp.query_cache_hit = true;
        queries_ok_.fetch_add(1, std::memory_order_relaxed);
        return resp;
      }
    } catch (const FaultInjected&) {
      // Injected cache outage: serve this query by plain scatter.
    }
  }

  // Validation is the shards' (and the flowSim fallback's) job. A request
  // it rejects is the client's fault: the query ends with the validator's
  // status and report, uncached, and no shard's breaker is charged.
  const auto reject = [&](const Status& st, const DegradationReport& d) {
    resp = QueryResponse{};
    resp.status = st;
    resp.degradation = d;
    resp.degradation.errors_validation = 1;
    resp.model_version = fleet_model.first;
    resp.model_crc = fleet_crc;
    resp.wall_seconds = Elapsed(t0);
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return resp;
  };

  // ---- slot count, bounded (with the other estimator options) before
  // any per-slot array is sized ----
  M3Options mopts;  // the fallback's options
  mopts.num_paths = req.num_paths;
  mopts.seed = req.seed;
  mopts.use_context = req.use_context;
  mopts.deadline_seconds = req.deadline_seconds;
  mopts.max_attempts = req.max_attempts;
  mopts.num_threads = opts_.fallback_threads;
  if (Status st = ValidateM3Options(mopts); !st.ok()) {
    DegradationReport d;
    d.first_error = st.ToString();
    return reject(st, d);
  }
  // No flows, no sampled path: a query with no flows has no slots.
  const std::size_t n = req.flows.empty() ? 0 : static_cast<std::size_t>(req.num_paths);

  // ---- placement: slot s goes to the ring owner of (query key, s) ----
  const std::size_t replicas = static_cast<std::size_t>(std::max(1, opts_.replicas));
  std::vector<std::vector<int>> pref(n);
  for (std::size_t i = 0; i < n; ++i) {
    pref[i] = ring_->Preference(SlotKey(query_key, i), replicas);
  }

  // Availability snapshot: one breaker decision per shard per query — an
  // open breaker's half-open probe budget must not be drained per-slot.
  std::vector<char> avail(shards_.size(), 0);
  std::vector<ShardReportWire> report(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    report[s].shard = shards_[s]->name;
    report[s].breaker_open = shards_[s]->breaker.open();
    avail[s] =
        (shards_[s]->healthy.load(std::memory_order_relaxed) && shards_[s]->breaker.Allow()) ? 1
                                                                                             : 0;
  }

  std::vector<int> cursor(n, -1);  // index into pref[i] of the current target
  std::vector<std::optional<PathEstimate>> got(n);
  std::vector<std::uint32_t> missing;  // slots headed for the router ladder
  std::vector<char> in_missing(n, 0);
  const auto push_missing = [&](std::uint32_t slot) {
    if (!in_missing[slot]) {
      in_missing[slot] = 1;
      missing.push_back(slot);
    }
  };

  struct Dispatch {
    int shard = -1;
    std::vector<std::uint32_t> slots;
  };
  std::vector<Dispatch> queue;
  {
    std::map<int, std::vector<std::uint32_t>> groups;
    for (std::size_t i = 0; i < n; ++i) {
      report[static_cast<std::size_t>(pref[i][0])].slots_assigned++;
      int c = -1;
      for (std::size_t k = 0; k < pref[i].size(); ++k) {
        if (avail[static_cast<std::size_t>(pref[i][k])]) {
          c = static_cast<int>(k);
          break;
        }
      }
      if (c < 0) {
        push_missing(static_cast<std::uint32_t>(i));
        continue;
      }
      cursor[i] = c;
      groups[pref[i][static_cast<std::size_t>(c)]].push_back(static_cast<std::uint32_t>(i));
    }
    for (auto& [sh, slots] : groups) queue.push_back(Dispatch{sh, std::move(slots)});
  }

  DegradationReport rep;
  std::string shard_error;  // first transport/infra failure, for annotation
  Status strict_abort;      // strict mode: a shard's own error aborts the query
  bool deadline_hit = false;
  std::uint64_t model_version = 0;
  std::uint32_t model_crc = 0;
  bool mixed_models = false;  // some sub-answer came from another model
  const bool has_deadline = req.deadline_seconds > 0.0;
  const auto remaining = [&]() -> double {
    return has_deadline ? req.deadline_seconds - Elapsed(t0) : kInfSeconds;
  };

  // Router-level shed: if the cache lookup and placement already consumed
  // the whole deadline budget, dispatching would only burn shard capacity
  // on answers nobody can use. Answer typed immediately (ShedReason
  // kRouterBudget) without touching the fleet.
  if (has_deadline && remaining() <= 0.0) {
    resp.status = Status::DeadlineExceeded(
        "router shed: deadline of " + std::to_string(req.deadline_seconds) +
        "s expired before dispatch");
    resp.shed_reason = static_cast<std::uint8_t>(ShedReason::kRouterBudget);
    resp.wall_seconds = Elapsed(t0);
    queries_shed_.fetch_add(1, std::memory_order_relaxed);
    return resp;
  }

  // ---- scatter rounds: dispatch, then re-dispatch failures replica-wise ----
  int round = 0;
  int retry_rounds = 0;
  while (!queue.empty() && strict_abort.ok()) {
    double window = opts_.shard_timeout_seconds > 0 ? opts_.shard_timeout_seconds : kInfSeconds;
    const double rem = remaining();
    if (rem <= 0.0) {
      deadline_hit = true;
      break;
    }
    window = std::min(window, rem);
    const bool hedged_round =
        round == 0 && opts_.hedge_seconds > 0.0 && opts_.hedge_seconds < window;
    if (hedged_round) window = opts_.hedge_seconds;
    const double recv_timeout = std::isfinite(window) ? window : 0.0;  // 0 = unbounded

    std::vector<StatusOr<ShardQueryResponse>> results(queue.size(),
                                                      Status::Internal("dispatch pending"));
    {
      std::vector<std::thread> th;
      th.reserve(queue.size());
      // Deadline propagation: each sub-request carries what is *left* of
      // the client's budget at dispatch time — the elapsed scatter time
      // (placement, earlier rounds, backoff sleeps) is already spent, and
      // a shard that inherited the full deadline would happily compute
      // past the moment the router has to answer.
      const double shard_budget = has_deadline ? std::max(rem, 1e-9) : 0.0;
      for (std::size_t d = 0; d < queue.size(); ++d) {
        th.emplace_back([&, d] {
          ShardQueryRequest sub;
          sub.query = req;
          if (has_deadline) sub.query.deadline_seconds = shard_budget;
          sub.slots = queue[d].slots;
          results[d] = CallShard(*shards_[static_cast<std::size_t>(queue[d].shard)],
                                 EncodeShardQueryRequest(sub), recv_timeout);
        });
      }
      for (auto& t : th) t.join();
    }

    std::map<int, std::vector<std::uint32_t>> next;
    bool any_retry = false;
    for (std::size_t d = 0; d < queue.size() && strict_abort.ok(); ++d) {
      const Dispatch& disp = queue[d];
      Shard& s = *shards_[static_cast<std::size_t>(disp.shard)];
      bool reroute = false;
      bool as_hedge = false;
      if (results[d].ok()) {
        ShardQueryResponse& r = *results[d];
        if (r.status.code() == StatusCode::kInvalidArgument) {
          return reject(r.status, r.degradation);
        }
        if (IsAnsweredCode(r.status.code())) {
          s.breaker.RecordSuccess();
          s.healthy.store(true, std::memory_order_relaxed);
          if (r.model_version > model_version) {
            model_version = r.model_version;
            model_crc = r.model_crc;
          }
          if (r.model_crc != fleet_crc) mixed_models = true;
          std::vector<char> in_group(n, 0);
          for (std::uint32_t slot : disp.slots) in_group[slot] = 1;
          for (const SlotEstimateWire& e : r.estimates) {
            if (e.slot < n && in_group[e.slot] && !got[e.slot]) {
              got[e.slot] = e.estimate;
              report[static_cast<std::size_t>(disp.shard)].slots_ok++;
            }
          }
          // Merge the shard's ladder accounting. Its *dropped* slots are
          // not summed — they re-enter the router's own ladder below and
          // land in exactly one merged class (no double counting).
          rep.paths_ok += r.degradation.paths_ok;
          rep.paths_retried += r.degradation.paths_retried;
          rep.paths_degraded += r.degradation.paths_degraded;
          rep.errors_exception += r.degradation.errors_exception;
          rep.errors_nonfinite += r.degradation.errors_nonfinite;
          rep.errors_deadline += r.degradation.errors_deadline;
          rep.errors_validation += r.degradation.errors_validation;
          rep.clamped_values += r.degradation.clamped_values;
          // Brownout attribution survives the scatter: the merged answer
          // reports the worst level any shard served at, and the total
          // paths served at reduced quality.
          rep.brownout_level = std::max(rep.brownout_level, r.degradation.brownout_level);
          rep.paths_brownout += r.degradation.paths_brownout;
          if (rep.first_error.empty() && !r.degradation.first_error.empty()) {
            rep.first_error = r.degradation.first_error;
          }
          for (std::uint32_t slot : disp.slots) {
            if (!got[slot]) push_missing(slot);  // shard-dropped
          }
        } else {
          // The shard answered "can't" (no model, strict fault). Charged
          // like a failure so a persistently unready shard opens its
          // breaker; the slots move to the next replica.
          s.breaker.RecordFailure();
          if (shard_error.empty()) shard_error = "shard " + s.name + ": " + r.status.ToString();
          if (req.strict) {
            strict_abort = r.status.Annotate("shard " + s.name);
            break;
          }
          reroute = true;
        }
      } else {
        // Transport-level failure. In a hedged first round a recv timeout
        // is a *straggler*, not a fault: re-dispatch without charging the
        // breaker (the shard may answer fine at the next query).
        const bool straggler =
            hedged_round && results[d].status().code() == StatusCode::kDeadlineExceeded;
        if (straggler) {
          as_hedge = true;
        } else {
          s.breaker.RecordFailure();
        }
        if (shard_error.empty()) shard_error = results[d].status().ToString();
        reroute = true;
      }
      if (reroute) {
        for (std::uint32_t slot : disp.slots) {
          if (got[slot]) continue;
          int c = -1;
          for (int k = cursor[slot] + 1; k < static_cast<int>(pref[slot].size()); ++k) {
            if (avail[static_cast<std::size_t>(pref[slot][static_cast<std::size_t>(k)])]) {
              c = k;
              break;
            }
          }
          if (c < 0) {  // every replica tried or unavailable
            push_missing(slot);
            continue;
          }
          cursor[slot] = c;
          const int target = pref[slot][static_cast<std::size_t>(c)];
          next[target].push_back(slot);
          Shard& ts = *shards_[static_cast<std::size_t>(target)];
          if (as_hedge) {
            ts.hedges.fetch_add(1, std::memory_order_relaxed);
            report[static_cast<std::size_t>(target)].hedges++;
          } else {
            ts.retries.fetch_add(1, std::memory_order_relaxed);
            report[static_cast<std::size_t>(target)].retries++;
            any_retry = true;
          }
        }
      }
    }
    queue.clear();
    for (auto& [sh, slots] : next) queue.push_back(Dispatch{sh, std::move(slots)});
    if (!queue.empty() && any_retry) {
      // Exponential backoff before a retry round; hedge-only rounds fire
      // immediately (the whole point of hedging is not to wait).
      const double delay_ms =
          std::min(1000.0, opts_.retry_backoff_ms * std::pow(2.0, retry_rounds));
      ++retry_rounds;
      const double sleep_s = std::min(delay_ms / 1000.0, std::max(0.0, remaining()));
      if (sleep_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
    }
    ++round;
    if (round > static_cast<int>(replicas) + 2) {  // safety net; unreachable via cursors
      for (const Dispatch& d : queue) {
        for (std::uint32_t slot : d.slots) push_missing(slot);
      }
      break;
    }
  }
  // Slots still queued when the scatter loop exited (deadline or strict
  // abort) drop through to the ladder below.
  for (const Dispatch& d : queue) {
    for (std::uint32_t slot : d.slots) push_missing(slot);
  }

  // ---- degradation ladder for unserved slots: flowSim, then drop ----
  // The only place the router builds the tree and flows. It validates them
  // as a shard would, which also covers the requests no shard has checked:
  // one with no slots, or one whose every slot missed the fleet.
  std::sort(missing.begin(), missing.end());
  const auto drop_slot = [&](std::uint32_t slot) {
    const std::size_t owner = static_cast<std::size_t>(pref[slot][0]);
    rep.paths_dropped++;
    report[owner].slots_dropped++;
    shards_[owner]->slots_dropped.fetch_add(1, std::memory_order_relaxed);
  };
  // Strict mode never substitutes an estimator: unserved slots are dropped
  // (and the answer reweighted), whether the shards were unreachable or
  // answered with their own error.
  const bool fallback = !missing.empty() && strict_abort.ok() && !req.strict;
  if (n == 0 || fallback) {
    const double rem = remaining();
    if (rem <= 0.0) {
      deadline_hit = true;
      for (std::uint32_t slot : missing) drop_slot(slot);
    } else {
      StatusOr<std::shared_ptr<const FatTree>> ft = TopoForRequest(req, &topos_);
      std::vector<Flow> flows;
      const Status built = ft.ok() ? BuildRequestFlows(req, **ft, &flows) : ft.status();
      if (!built.ok()) return reject(built, DegradationReport{});
      M3Options fopts = mopts;
      fopts.sample_slots = &missing;
      if (has_deadline) fopts.deadline_seconds = rem;
      NetworkEstimate fb = RunFlowSimOnly((*ft)->topo(), flows, req.cfg, fopts);
      if (fb.status.code() == StatusCode::kInvalidArgument) {
        return reject(fb.status, fb.degradation);
      }
      rep.errors_exception += fb.degradation.errors_exception;
      rep.errors_nonfinite += fb.degradation.errors_nonfinite;
      rep.errors_deadline += fb.degradation.errors_deadline;
      rep.clamped_values += fb.degradation.clamped_values;
      if (fb.status.code() == StatusCode::kDeadlineExceeded) deadline_hit = true;
      for (std::uint32_t slot : missing) {
        const std::size_t owner = static_cast<std::size_t>(pref[slot][0]);
        if (slot < fb.paths.size() && HasWeight(fb.paths[slot])) {
          got[slot] = fb.paths[slot];
          rep.paths_degraded++;
          report[owner].slots_fallback++;
          shards_[owner]->slots_fallback.fetch_add(1, std::memory_order_relaxed);
        } else {
          drop_slot(slot);
        }
      }
    }
  } else {
    for (std::uint32_t slot : missing) drop_slot(slot);
  }

  // ---- merge + re-aggregate (the single-host Clamp/Aggregate/Combine) ----
  std::vector<PathEstimate> paths(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i]) paths[i] = *got[i];
  }
  // The clamp re-runs over shard-supplied bytes: both sources pre-clamp, so
  // this is 0 unless a shard shipped non-finite values — the aggregation
  // guard holds even against a corrupted peer.
  rep.clamped_values += ClampPathEstimates(paths);
  resp.bucket_pct = AggregateBuckets(paths);
  for (const PathEstimate& pe : paths) {
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      resp.total_counts[static_cast<std::size_t>(b)] += pe.counts[static_cast<std::size_t>(b)];
    }
  }
  resp.combined_pct = CombineBuckets(resp.bucket_pct, resp.total_counts);

  if (rep.first_error.empty() && !shard_error.empty()) rep.first_error = shard_error;
  resp.degradation = rep;
  resp.model_version = model_version;
  resp.model_crc = model_crc;
  resp.shards.assign(report.begin(), report.end());
  if (!strict_abort.ok()) {
    resp.status = strict_abort;
  } else if (deadline_hit) {
    resp.status = Status::DeadlineExceeded("deadline of " + std::to_string(req.deadline_seconds) +
                                           "s expired; " + rep.ToString());
    if (rep.paths_ok == 0 && rep.paths_degraded == 0) {
      // Nothing was served before the budget ran out: this is a router
      // shed (typed, attributed), not a partially-degraded answer.
      resp.shed_reason = static_cast<std::uint8_t>(ShedReason::kRouterBudget);
    }
  } else if (rep.Degraded()) {
    resp.status = Status::Degraded(rep.ToString());
  }
  resp.wall_seconds = Elapsed(t0);
  // Only a strictly kOk answer is cached (a degraded one depends on fault
  // timing), and only when every sub-answer came from the fleet model the
  // lookup checked: an answer merged during a model rollout is never cached.
  if (cache_on && resp.status.ok() && !mixed_models) {
    QueryResponse cached = resp;
    // Encode before the move; Insert's return gates the spill so refreshes
    // (and recovered entries) are never written twice.
    std::string blob;
    if (persister_ != nullptr) blob = EncodeQueryResponse(cached);
    if (query_cache_.Insert(query_key, std::move(cached)) && persister_ != nullptr) {
      persister_->Enqueue(CacheKind::kQuery, FleetDigest(fleet_crc), query_key,
                          std::move(blob));
    }
  }
  if (resp.shed_reason == static_cast<std::uint8_t>(ShedReason::kRouterBudget)) {
    queries_shed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    (IsAnsweredCode(resp.status.code()) ? queries_ok_ : queries_failed_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return resp;
}

PingResponse Router::Ping() const {
  PingResponse p;
  p.router_mode = true;
  p.shards_total = static_cast<std::uint32_t>(shards_.size());
  std::uint64_t mv = 0;
  for (const auto& s : shards_) {
    if (s->healthy.load(std::memory_order_relaxed)) {
      p.shards_healthy++;
      mv = std::max(mv, s->model_version.load(std::memory_order_relaxed));
    }
  }
  p.model_version = mv;
  p.model_crc = FleetModel().second;
  p.ready = p.shards_healthy > 0;
  return p;
}

ServerStatsWire Router::Stats() const {
  ServerStatsWire st;
  st.queries_received = queries_received_.load(std::memory_order_relaxed);
  st.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  st.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  st.queries_shed = queries_shed_.load(std::memory_order_relaxed);
  st.shed_by_reason[static_cast<std::size_t>(ShedReason::kRouterBudget)] =
      st.queries_shed;
  st.router_mode = true;
  std::uint64_t mv = 0;
  st.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    ShardHealthWire h;
    h.address = s->name;
    h.healthy = s->healthy.load(std::memory_order_relaxed);
    h.breaker_open = s->breaker.open();
    h.model_version = s->model_version.load(std::memory_order_relaxed);
    h.dispatches = s->dispatches.load(std::memory_order_relaxed);
    h.failures = s->failures.load(std::memory_order_relaxed);
    h.retries = s->retries.load(std::memory_order_relaxed);
    h.hedges = s->hedges.load(std::memory_order_relaxed);
    h.slots_fallback = s->slots_fallback.load(std::memory_order_relaxed);
    h.slots_dropped = s->slots_dropped.load(std::memory_order_relaxed);
    if (h.healthy) mv = std::max(mv, h.model_version);
    st.shards.push_back(std::move(h));
  }
  st.model_version = mv;
  st.model_crc = FleetModel().second;
  st.query_cache = CacheOpValues(query_cache_.stats());
  ExportPersistStats(persister_.get(), &st);
  return st;
}

}  // namespace m3::serve
