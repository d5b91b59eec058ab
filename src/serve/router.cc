#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <tuple>
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
    shards.push_back(std::make_unique<Shard>(std::move(*ep), name));
    names.push_back(shards.back()->name);
  }
  shards_ = std::move(shards);
  ring_ = std::make_unique<HashRing>(names, opts_.vnodes);
  // Synchronous first probe round: a query issued right after Start() must
  // see the shards that are already up, not wait out a health interval.
  ProbeRound();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  prober_ = std::thread([this] { HealthLoop(); });
  return Status::Ok();
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
    ProbeRound();
    lock.lock();
  }
}

void Router::ProbeRound() {
  // In parallel: a down shard costs one connect timeout, not one per shard.
  std::vector<std::thread> th;
  th.reserve(shards_.size());
  for (auto& s : shards_) th.emplace_back([this, &s] { ProbeShard(*s); });
  for (auto& t : th) t.join();
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
}

StatusOr<ShardQueryResponse> Router::CallShard(Shard& s, std::string_view head,
                                               std::string_view slots,
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
        SendFrame(fd, static_cast<std::uint32_t>(MsgType::kShardQueryRequest), head, slots);
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
  // status and report, uncached, and no shard is marked down.
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
  // Availability snapshot: one liveness reading per shard per query, so
  // every slot of the query sees the same fleet.
  std::vector<char> avail(shards_.size(), 0);
  std::vector<ShardReportWire> report(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    report[s].shard = shards_[s]->name;
    avail[s] = shards_[s]->healthy.load(std::memory_order_relaxed) ? 1 : 0;
  }

  // One state per slot: the index into pref[i] of the replica it is headed
  // for, kGot once its estimate is in, or kLadder once no replica is left.
  constexpr int kGot = -2;
  constexpr int kLadder = -3;
  const std::size_t replicas = static_cast<std::size_t>(std::max(1, opts_.replicas));
  std::vector<std::vector<int>> pref(n);
  std::vector<int> at(n, -1);  // -1: before the first replica
  std::vector<PathEstimate> paths(n);
  const auto target = [&](std::size_t i) {
    return static_cast<std::size_t>(pref[i][static_cast<std::size_t>(at[i])]);
  };
  // Moves slot i on to its next available replica, or to the ladder when
  // none is left; true when it found a replica.
  const auto advance = [&](std::size_t i) {
    const int size = static_cast<int>(pref[i].size());
    int k = at[i] + 1;
    while (k < size && !avail[static_cast<std::size_t>(pref[i][static_cast<std::size_t>(k)])]) ++k;
    at[i] = k < size ? k : kLadder;
    return k < size;
  };
  for (std::size_t i = 0; i < n; ++i) {
    pref[i] = ring_->Preference(SlotKey(query_key, i), replicas);
    report[static_cast<std::size_t>(pref[i][0])].slots_assigned++;
    advance(i);
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

  // ---- scatter rounds: each sends every placed slot to its replica ----
  // A round ends each slot it sent as got, shard-dropped (ladder) or moved
  // on down its preference list, so the rounds end within `replicas`.
  for (;;) {
    std::vector<std::vector<std::uint32_t>> groups(shards_.size());
    bool pending = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (at[i] < 0) continue;
      groups[target(i)].push_back(static_cast<std::uint32_t>(i));
      pending = true;
    }
    if (!pending) break;
    const double rem = remaining();
    if (rem <= 0.0) {
      deadline_hit = true;
      break;
    }
    double window = opts_.shard_timeout_seconds > 0 ? opts_.shard_timeout_seconds : kInfSeconds;
    window = std::min(window, rem);
    const double recv_timeout = std::isfinite(window) ? window : 0.0;  // 0 = unbounded

    std::vector<StatusOr<ShardQueryResponse>> results(shards_.size(),
                                                      Status::Internal("not dispatched"));
    {
      std::vector<std::thread> th;
      // Deadline propagation: each sub-request carries what is *left* of
      // the client's budget at dispatch time — the elapsed scatter time
      // (placement, earlier rounds) is already spent, and a shard that
      // inherited the full deadline would happily compute past the moment
      // the router has to answer. Every shard of the round gets the same
      // budget, so the query is encoded once and each dispatch adds only
      // its slot list.
      const double shard_budget = has_deadline ? std::max(rem, 1e-9) : req.deadline_seconds;
      const std::string head = EncodeShardQueryHead(req, shard_budget);
      for (std::size_t sh = 0; sh < shards_.size(); ++sh) {
        if (groups[sh].empty()) continue;
        th.emplace_back([&, sh] {
          results[sh] =
              CallShard(*shards_[sh], head, EncodeShardQuerySlots(groups[sh]), recv_timeout);
        });
      }
      for (auto& t : th) t.join();
    }

    for (std::size_t sh = 0; sh < shards_.size(); ++sh) {
      if (groups[sh].empty()) continue;
      Shard& s = *shards_[sh];
      if (!results[sh].ok()) {  // transport-level failure
        if (shard_error.empty()) shard_error = results[sh].status().ToString();
        continue;
      }
      ShardQueryResponse& r = *results[sh];
      if (r.status.code() == StatusCode::kInvalidArgument) {
        return reject(r.status, r.degradation);
      }
      if (!IsAnsweredCode(r.status.code())) {
        // The shard answered "can't" (no model, strict fault). Strict mode
        // ends the query: every slot still without an estimate drops.
        if (shard_error.empty()) shard_error = "shard " + s.name + ": " + r.status.ToString();
        if (req.strict) {
          strict_abort = r.status.Annotate("shard " + s.name);
          break;
        }
        continue;
      }
      s.healthy.store(true, std::memory_order_relaxed);
      if (r.model_version > model_version) {
        model_version = r.model_version;
        model_crc = r.model_crc;
      }
      if (r.model_crc != fleet_crc) mixed_models = true;
      // An estimate counts only for a slot headed to this shard: one it
      // was sent this round and has not answered yet.
      for (const SlotEstimateWire& e : r.estimates) {
        if (e.slot < n && at[e.slot] >= 0 && target(e.slot) == sh) {
          paths[e.slot] = e.estimate;
          at[e.slot] = kGot;
          report[sh].slots_ok++;
        }
      }
      // Merge the shard's ladder accounting. Its *dropped* slots are not
      // summed — they go to the router's own ladder below and land in
      // exactly one merged class (no double counting).
      rep.paths_ok += r.degradation.paths_ok;
      rep.paths_retried += r.degradation.paths_retried;
      rep.paths_degraded += r.degradation.paths_degraded;
      rep.errors_exception += r.degradation.errors_exception;
      rep.errors_nonfinite += r.degradation.errors_nonfinite;
      rep.errors_deadline += r.degradation.errors_deadline;
      rep.errors_validation += r.degradation.errors_validation;
      rep.clamped_values += r.degradation.clamped_values;
      if (rep.first_error.empty() && !r.degradation.first_error.empty()) {
        rep.first_error = r.degradation.first_error;
      }
      for (std::uint32_t slot : groups[sh]) {
        if (at[slot] != kGot) at[slot] = kLadder;  // shard-dropped: never re-dispatched
      }
    }
    if (!strict_abort.ok()) break;
    // A slot still placed was sent to a shard that failed it, and walks on
    // to its next replica. Only now that the whole round is read: the
    // estimates above were matched against this round's targets.
    for (std::size_t i = 0; i < n; ++i) {
      if (at[i] >= 0 && advance(i)) {
        shards_[target(i)]->retries.fetch_add(1, std::memory_order_relaxed);
        report[target(i)].retries++;
      }
    }
  }

  // ---- degradation ladder for unserved slots: flowSim, then drop ----
  // Every slot without an estimate lands here: no replica left, dropped by
  // its shard, or still placed when the deadline or a strict abort ended
  // the rounds. The only place the router builds the tree and flows. It
  // validates them as a shard would, which also covers the requests no
  // shard has checked: one with no slots, or one whose every slot missed
  // the fleet.
  std::vector<std::uint32_t> missing;
  for (std::size_t i = 0; i < n; ++i) {
    if (at[i] != kGot) missing.push_back(static_cast<std::uint32_t>(i));
  }
  const auto drop_slot = [&](std::uint32_t slot) {
    const std::size_t owner = static_cast<std::size_t>(pref[slot][0]);
    rep.paths_dropped++;
    report[owner].slots_dropped++;
    shards_[owner]->slots_dropped.fetch_add(1, std::memory_order_relaxed);
  };
  // Strict mode never substitutes an estimator: unserved slots are dropped
  // (and the answer reweighted), whether the shards were unreachable or
  // answered with their own error.
  const bool fallback = !missing.empty() && !req.strict;
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
          paths[slot] = fb.paths[slot];
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
  // The clamp re-runs over shard-supplied bytes: both sources pre-clamp, so
  // this is 0 unless a shard shipped non-finite values — the aggregation
  // guard holds even against a corrupted peer. Width 1: queries run on
  // per-connection threads, and a merge on the shared pool would queue
  // behind every other query's.
  PathAggregate agg = AggregatePaths(paths);
  rep.clamped_values += agg.clamped_values;
  resp.bucket_pct = std::move(agg.bucket_pct);
  resp.total_counts = agg.total_counts;
  resp.combined_pct = std::move(agg.combined_pct);

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
    query_cache_.Insert(query_key, resp);
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
  for (const auto& s : shards_) {
    if (s->healthy.load(std::memory_order_relaxed)) p.shards_healthy++;
  }
  std::tie(p.model_version, p.model_crc) = FleetModel();
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
  st.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    ShardHealthWire h;
    h.address = s->name;
    h.healthy = s->healthy.load(std::memory_order_relaxed);
    h.model_version = s->model_version.load(std::memory_order_relaxed);
    h.dispatches = s->dispatches.load(std::memory_order_relaxed);
    h.failures = s->failures.load(std::memory_order_relaxed);
    h.retries = s->retries.load(std::memory_order_relaxed);
    h.slots_fallback = s->slots_fallback.load(std::memory_order_relaxed);
    h.slots_dropped = s->slots_dropped.load(std::memory_order_relaxed);
    st.shards.push_back(std::move(h));
  }
  std::tie(st.model_version, st.model_crc) = FleetModel();
  st.query_cache = CacheOpValues(query_cache_.stats());
  return st;
}

}  // namespace m3::serve
