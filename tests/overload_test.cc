// Overload-control tests (DESIGN.md §13): cost-aware admission, priority
// shedding (lower classes shed first, the highest never starves), eager
// expiry reaping, brownout attribution (degraded answers are never
// silent), the wire's priority/deadline/shed fields, and the router's
// deadline-budget propagation into shard sub-requests.
//
// Suite names deliberately start with "Overload" so check.sh's sanitizer
// tier regexes (Service|SocketServer|... and the chaos set) do not pull
// these in; the `overload` tier drives the live daemon instead. The one
// exception is OverloadWire, which the ASan tier runs with the other
// decoder suites.
#include <gtest/gtest.h>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/exec.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "temp_path.h"
#include "topo/fat_tree.h"
#include "util/socket.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3::serve {
namespace {

// ---------------------------------------------------------------- fixture --

M3ModelConfig TinyModel() {
  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  return mcfg;
}

std::string TinyCheckpoint() {
  static const std::string path = [] {
    const std::string p = TempPath("overload_tiny_model.ckpt");
    M3Model model(TinyModel());
    model.Save(p);
    return p;
  }();
  return path;
}

QueryRequest SmallQuery(int num_paths = 3, std::uint64_t wl_seed = 3) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = 300;
  wspec.seed = wl_seed;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  QueryRequest req;
  req.oversub = 2.0;
  req.num_paths = num_paths;
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

ServiceOptions SmallServiceOptions() {
  ServiceOptions so;
  so.model_config = TinyModel();
  so.num_workers = 1;
  so.threads_per_query = 1;
  return so;
}

void ExpectBitwiseEqual(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.bucket_pct, b.bucket_pct);
  EXPECT_EQ(a.total_counts, b.total_counts);
  EXPECT_EQ(a.combined_pct, b.combined_pct);
}

// Blocks the (single) worker thread inside the pre-execute hook until
// Release(), so tests can build queue pressure deterministically.
class WorkerGate {
 public:
  void Install(EstimationService& svc) {
    svc.set_pre_execute_hook([this](const QueryRequest&) {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    });
  }
  void AwaitWorkerBlocked(int n = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

struct Answer {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  EstimationService::DoneFn Done() {
    return [this](QueryResponse r) { promise.set_value(std::move(r)); };
  }
};

void ExpectInvariant(const ServerStatsWire& s) {
  EXPECT_EQ(s.queries_received,
            s.queries_ok + s.queries_rejected + s.queries_failed + s.queries_shed)
      << "received=" << s.queries_received << " ok=" << s.queries_ok
      << " rejected=" << s.queries_rejected << " failed=" << s.queries_failed
      << " shed=" << s.queries_shed;
}

// ------------------------------------------------------------------- wire --

TEST(OverloadWire, V4RoundTripCarriesPriorityBrownoutAndShedReason) {
  QueryRequest req = SmallQuery();
  req.priority = static_cast<std::uint8_t>(Priority::kInteractive);
  req.brownout = 1;
  req.deadline_seconds = 2.5;
  const StatusOr<QueryRequest> got = DecodeQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->priority, static_cast<std::uint8_t>(Priority::kInteractive));
  EXPECT_EQ(got->brownout, 1);
  EXPECT_EQ(got->deadline_seconds, 2.5);

  QueryResponse resp;
  resp.status = Status::ResourceExhausted("shed");
  resp.shed_reason = static_cast<std::uint8_t>(ShedReason::kPriority);
  resp.degradation.brownout_level = 2;
  resp.degradation.paths_brownout = 7;
  const StatusOr<QueryResponse> rt = DecodeQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->shed_reason, static_cast<std::uint8_t>(ShedReason::kPriority));
  EXPECT_EQ(rt->degradation.brownout_level, 2);
  EXPECT_EQ(rt->degradation.paths_brownout, 7);

  ServerStatsWire st;
  st.queries_shed = 5;
  st.shed_by_reason[static_cast<std::size_t>(ShedReason::kExpired)] = 3;
  st.brownout_queries = 2;
  st.brownout_level = 1;
  st.in_flight_cost = 12.5;
  st.cost_budget = 640.0;
  const StatusOr<ServerStatsWire> gs = DecodeStats(EncodeStats(st));
  ASSERT_TRUE(gs.ok()) << gs.status().ToString();
  EXPECT_EQ(gs->queries_shed, 5u);
  EXPECT_EQ(gs->shed_by_reason[static_cast<std::size_t>(ShedReason::kExpired)], 3u);
  EXPECT_EQ(gs->brownout_queries, 2u);
  EXPECT_EQ(gs->brownout_level, 1u);
  EXPECT_EQ(gs->in_flight_cost, 12.5);
  EXPECT_EQ(gs->cost_budget, 640.0);
}

TEST(OverloadWire, HostilePriorityAndShedReasonAreRejected) {
  QueryRequest req = SmallQuery();
  req.priority = 17;  // encoder writes it raw; the decoder must refuse
  const StatusOr<QueryRequest> got = DecodeQueryRequest(EncodeQueryRequest(req));
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);

  QueryRequest bad_brownout = SmallQuery();
  bad_brownout.brownout = 9;
  EXPECT_EQ(DecodeQueryRequest(EncodeQueryRequest(bad_brownout)).status().code(),
            StatusCode::kInvalidArgument);

  QueryResponse resp;
  resp.shed_reason = kNumShedReasons;  // one past the last valid reason
  EXPECT_EQ(DecodeQueryResponse(EncodeQueryResponse(resp)).status().code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- admission --

TEST(OverloadAdmission, LowerClassShedFirstAndCriticalNeverStarves) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 2;
  so.brownout_enabled = false;  // keep the critical answer full-quality
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest bg = SmallQuery();
  bg.priority = static_cast<std::uint8_t>(Priority::kBackground);
  bg.no_cache = true;

  // q0 occupies the worker; q1/q2 fill the queue.
  Answer a0, a1, a2;
  ASSERT_TRUE(svc.Submit(bg, a0.Done()).ok());
  gate.AwaitWorkerBlocked();
  ASSERT_TRUE(svc.Submit(bg, a1.Done()).ok());
  ASSERT_TRUE(svc.Submit(bg, a2.Done()).ok());

  // Same class, full queue: the original FIFO rejection, with its reason.
  ShedReason why = ShedReason::kNone;
  Answer a3;
  const Status st = svc.Submit(bg, a3.Done(), &why);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(st.ToString().find("queue full"), std::string::npos) << st.ToString();
  EXPECT_EQ(why, ShedReason::kQueueFull);

  // A critical arrival displaces the newest background entry (q2) instead
  // of being turned away: lower classes shed first, critical never starves.
  QueryRequest crit = SmallQuery(3, /*wl_seed=*/5);
  crit.priority = static_cast<std::uint8_t>(Priority::kCritical);
  crit.no_cache = true;
  Answer a4;
  ASSERT_TRUE(svc.Submit(crit, a4.Done(), &why).ok());
  EXPECT_EQ(why, ShedReason::kNone);

  const QueryResponse displaced = a2.future.get();  // fires without the worker
  EXPECT_EQ(displaced.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(displaced.shed_reason, static_cast<std::uint8_t>(ShedReason::kPriority));

  gate.Release();
  svc.Stop();  // drains: q0, q1, and the critical q4 all answer

  const QueryResponse crit_resp = a4.future.get();
  EXPECT_TRUE(crit_resp.status.ok()) << crit_resp.status.ToString();
  EXPECT_EQ(crit_resp.degradation.brownout_level, 0);
  EXPECT_TRUE(a0.future.get().status.ok());
  EXPECT_TRUE(a1.future.get().status.ok());

  const ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.queries_rejected, 1u);
  EXPECT_EQ(s.queries_shed, 1u);
  EXPECT_EQ(s.shed_by_reason[static_cast<std::size_t>(ShedReason::kQueueFull)], 1u);
  EXPECT_EQ(s.shed_by_reason[static_cast<std::size_t>(ShedReason::kPriority)], 1u);
  ExpectInvariant(s);
}

TEST(OverloadAdmission, ExpiredQueuedEntriesAreReapedEagerly) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 4;
  so.brownout_enabled = false;  // keep drained answers full-quality kOk
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest blocker = SmallQuery();
  blocker.no_cache = true;
  Answer a0;
  ASSERT_TRUE(svc.Submit(blocker, a0.Done()).ok());
  gate.AwaitWorkerBlocked();

  QueryRequest doomed = SmallQuery();
  doomed.no_cache = true;
  doomed.deadline_seconds = 0.05;
  Answer a1;
  ASSERT_TRUE(svc.Submit(doomed, a1.Done()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // The next Submit reaps the expired entry — before any worker frees up —
  // so it stops occupying a queue slot that admissible work could use.
  QueryRequest fresh = SmallQuery(3, /*wl_seed=*/7);
  fresh.no_cache = true;
  Answer a2;
  ASSERT_TRUE(svc.Submit(fresh, a2.Done()).ok());

  const QueryResponse reaped = a1.future.get();  // typed, without execution
  EXPECT_EQ(reaped.status.code(), StatusCode::kDeadlineExceeded)
      << reaped.status.ToString();
  EXPECT_EQ(reaped.shed_reason, static_cast<std::uint8_t>(ShedReason::kExpired));
  EXPECT_EQ(svc.Stats().queue_depth, 1u);  // only `fresh` still queued

  gate.Release();
  svc.Stop();
  EXPECT_TRUE(a0.future.get().status.ok());
  EXPECT_TRUE(a2.future.get().status.ok());
  const ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.queries_shed, 1u);
  EXPECT_EQ(s.shed_by_reason[static_cast<std::size_t>(ShedReason::kExpired)], 1u);
  ExpectInvariant(s);
}

TEST(OverloadAdmission, CostBudgetShedsBurstsButNeverAnIdleService) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 64;
  so.cost_budget = 5.0;  // one small query costs ~4 (1 + flows/1e4 + paths)
  so.brownout_enabled = false;
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest q = SmallQuery();
  q.no_cache = true;

  // Nothing in flight: admitted even though its cost is most of the budget.
  Answer a0;
  ASSERT_TRUE(svc.Submit(q, a0.Done()).ok());
  gate.AwaitWorkerBlocked();

  // With ~4 committed, another ~4 would blow the budget of 5: shed typed.
  ShedReason why = ShedReason::kNone;
  Answer a1;
  const Status st = svc.Submit(q, a1.Done(), &why);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(why, ShedReason::kCostBudget);

  // kCritical bypasses the cost gate: overload control protects the top
  // class, it does not meter it.
  QueryRequest crit = SmallQuery(3, /*wl_seed=*/9);
  crit.no_cache = true;
  crit.priority = static_cast<std::uint8_t>(Priority::kCritical);
  Answer a2;
  ASSERT_TRUE(svc.Submit(crit, a2.Done(), &why).ok());
  EXPECT_EQ(why, ShedReason::kNone);

  gate.Release();
  svc.Stop();
  EXPECT_TRUE(a0.future.get().status.ok());
  EXPECT_TRUE(a2.future.get().status.ok());
  const ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.queries_rejected, 1u);
  EXPECT_EQ(s.shed_by_reason[static_cast<std::size_t>(ShedReason::kCostBudget)], 1u);
  EXPECT_NEAR(s.in_flight_cost, 0.0, 1e-9);  // fully released after the drain
  ExpectInvariant(s);
}

TEST(OverloadAdmission, SojournGateShedsBeforeTheQueueFills) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 64;  // far from full: the gate is about delay, not depth
  so.shed_sojourn_seconds = 0.05;
  so.brownout_enabled = false;
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest q = SmallQuery();
  q.no_cache = true;
  Answer a0, a1;
  ASSERT_TRUE(svc.Submit(q, a0.Done()).ok());
  gate.AwaitWorkerBlocked();
  ASSERT_TRUE(svc.Submit(q, a1.Done()).ok());  // queued; starts the sojourn clock
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  ShedReason why = ShedReason::kNone;
  Answer a2;
  const Status st = svc.Submit(q, a2.Done(), &why);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(why, ShedReason::kSojourn);

  gate.Release();
  svc.Stop();
  EXPECT_TRUE(a0.future.get().status.ok());
  EXPECT_TRUE(a1.future.get().status.ok());
  const ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.shed_by_reason[static_cast<std::size_t>(ShedReason::kSojourn)], 1u);
  ExpectInvariant(s);
}

// --------------------------------------------------------------- brownout --

TEST(OverloadBrownout, AttributedNeverSilentAndLevelZeroBitwiseIdentical) {
  ServiceOptions so = SmallServiceOptions();
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());

  QueryRequest req = SmallQuery(/*num_paths=*/40);
  req.no_cache = true;

  const QueryResponse full_a = svc.ExecuteInline(req);
  const QueryResponse full_b = svc.ExecuteInline(req);
  ASSERT_TRUE(full_a.status.ok()) << full_a.status.ToString();
  ExpectBitwiseEqual(full_a, full_b);  // the pre-PR determinism contract
  EXPECT_EQ(full_a.degradation.brownout_level, 0);

  // Level 1: reduced path sample. Still answers, but *loudly* degraded.
  QueryRequest b1 = req;
  b1.brownout = 1;
  const QueryResponse r1 = svc.ExecuteInline(b1);
  EXPECT_EQ(r1.status.code(), StatusCode::kDegraded) << r1.status.ToString();
  EXPECT_EQ(r1.degradation.brownout_level, 1);
  EXPECT_EQ(r1.degradation.paths_brownout, 20);  // 40 -> max(16, 20)
  EXPECT_TRUE(r1.degradation.Degraded());
  EXPECT_NE(r1.degradation.ToString().find("brownout"), std::string::npos);

  // Level 2: flowSim substitute; every path is reduced quality.
  QueryRequest b2 = req;
  b2.brownout = 2;
  const QueryResponse r2 = svc.ExecuteInline(b2);
  EXPECT_EQ(r2.status.code(), StatusCode::kDegraded) << r2.status.ToString();
  EXPECT_EQ(r2.degradation.brownout_level, 2);
  EXPECT_EQ(r2.degradation.paths_brownout, 40);

  // Bitwise: the brownout code path must not perturb full-quality answers.
  const QueryResponse full_c = svc.ExecuteInline(req);
  ExpectBitwiseEqual(full_a, full_c);
}

TEST(OverloadBrownout, BrownedOutAnswersNeverPoisonCaches) {
  ServiceOptions so = SmallServiceOptions();
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());

  // A cacheable (no_cache=false) browned-out query: kDegraded, so neither
  // the query cache may keep none of it.
  QueryRequest b2 = SmallQuery(/*num_paths=*/6);
  b2.brownout = 2;
  const QueryResponse browned = svc.ExecuteInline(b2);
  EXPECT_EQ(browned.status.code(), StatusCode::kDegraded);
  ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.query_cache[2], 0u) << "query cache inserts after brownout";

  // The same query at full quality recomputes with the model — it cannot
  // be served the browned-out bytes.
  QueryRequest full = SmallQuery(/*num_paths=*/6);
  const QueryResponse clean = svc.ExecuteInline(full);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_FALSE(clean.query_cache_hit);

  // And a repeat IS a cache hit, bitwise identical (the normal contract).
  const QueryResponse hit = svc.ExecuteInline(full);
  EXPECT_TRUE(hit.query_cache_hit);
  ExpectBitwiseEqual(clean, hit);
}

TEST(OverloadBrownout, ControllerEngagesUnderSojournAndRecovers) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 8;
  so.brownout1_sojourn_seconds = 0.05;
  so.brownout2_sojourn_seconds = 60.0;  // keep this test at level 1
  so.brownout_hold_seconds = 0.1;
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest blocker = SmallQuery();
  blocker.no_cache = true;
  Answer a0;
  ASSERT_TRUE(svc.Submit(blocker, a0.Done()).ok());
  gate.AwaitWorkerBlocked();

  QueryRequest waiting = SmallQuery(/*num_paths=*/40, /*wl_seed=*/11);
  waiting.no_cache = true;
  Answer a1;
  ASSERT_TRUE(svc.Submit(waiting, a1.Done()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // > brownout1
  gate.Release();

  // The query that waited past the sojourn threshold is served browned out
  // — and says so.
  const QueryResponse r1 = a1.future.get();
  EXPECT_EQ(r1.status.code(), StatusCode::kDegraded) << r1.status.ToString();
  EXPECT_EQ(r1.degradation.brownout_level, 1);
  EXPECT_GT(svc.Stats().brownout_queries, 0u);

  // After the pressure stops and the hold expires, quality recovers.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  QueryRequest calm = SmallQuery(/*num_paths=*/40, /*wl_seed=*/13);
  calm.no_cache = true;
  const QueryResponse r2 = svc.Query(calm);
  EXPECT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r2.degradation.brownout_level, 0);
  EXPECT_EQ(svc.Stats().brownout_level, 0u);
  svc.Stop();
}

TEST(OverloadBrownout, CriticalQueriesAreNeverBrownedOut) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 8;
  so.brownout1_sojourn_seconds = 0.05;
  so.brownout_hold_seconds = 5.0;
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest blocker = SmallQuery();
  blocker.no_cache = true;
  Answer a0;
  ASSERT_TRUE(svc.Submit(blocker, a0.Done()).ok());
  gate.AwaitWorkerBlocked();

  QueryRequest crit = SmallQuery(3, /*wl_seed=*/17);
  crit.no_cache = true;
  crit.priority = static_cast<std::uint8_t>(Priority::kCritical);
  Answer a1;
  ASSERT_TRUE(svc.Submit(crit, a1.Done()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // brownout engages
  gate.Release();

  const QueryResponse r = a1.future.get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.degradation.brownout_level, 0);
  svc.Stop();
}

// ------------------------------------------------- router deadline budget --

// A scripted shard: answers pings ready and records the deadline budget of
// every shard sub-request it receives, answering each slot with a plainly
// valid estimate.
class RecordingShard {
 public:
  explicit RecordingShard(const std::string& path) {
    ServerHooks hooks;
    hooks.ping = [] {
      PingResponse p;
      p.ready = true;
      p.model_version = 1;
      return p;
    };
    hooks.stats = [] { return ServerStatsWire{}; };
    hooks.shard_query = [this](const ShardQueryRequest& req) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        deadlines_.push_back(req.query.deadline_seconds);
        priorities_.push_back(req.query.priority);
      }
      ShardQueryResponse resp;
      resp.model_version = 1;
      resp.estimates.reserve(req.slots.size());
      for (std::uint32_t slot : req.slots) {
        PathEstimate pe;
        for (auto& bucket : pe.pct) bucket.fill(1.25);
        pe.counts.fill(2.0);
        resp.estimates.push_back(SlotEstimateWire{slot, pe});
      }
      return resp;
    };
    server_ = std::make_unique<SocketServer>(std::move(hooks));
    start_status_ = server_->Start(path);
  }

  const Status& start_status() const { return start_status_; }

  std::vector<double> deadlines() {
    std::lock_guard<std::mutex> lock(mu_);
    return deadlines_;
  }
  std::vector<std::uint8_t> priorities() {
    std::lock_guard<std::mutex> lock(mu_);
    return priorities_;
  }

 private:
  Status start_status_;
  std::unique_ptr<SocketServer> server_;
  std::mutex mu_;
  std::vector<double> deadlines_;
  std::vector<std::uint8_t> priorities_;
};

RouterOptions OneShardRouter(const std::string& path) {
  RouterOptions ro;
  ro.shards = {path};
  ro.replicas = 1;
  ro.connect_timeout_seconds = 1.0;
  ro.shard_timeout_seconds = 20.0;
  ro.retry_backoff_ms = 5.0;
  ro.health_interval_seconds = 0.05;
  ro.fallback_threads = 2;
  return ro;
}

TEST(OverloadRouterBudget, RemainingDeadlinePropagatesIntoSubRequests) {
  const std::string path = TempPath("overload_shard.sock");
  RecordingShard shard(path);
  ASSERT_TRUE(shard.start_status().ok()) << shard.start_status().ToString();
  Router router(OneShardRouter(path));
  ASSERT_TRUE(router.Start().ok());
  // Wait for the health probe to mark the shard usable.
  for (int i = 0; i < 100 && !router.Ping().ready; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(router.Ping().ready);

  QueryRequest req = SmallQuery(/*num_paths=*/4);
  req.deadline_seconds = 5.0;
  req.priority = static_cast<std::uint8_t>(Priority::kInteractive);
  const QueryResponse resp = router.Query(req);
  EXPECT_TRUE(IsAnsweredCode(resp.status.code())) << resp.status.ToString();

  const std::vector<double> seen = shard.deadlines();
  ASSERT_FALSE(seen.empty());
  for (double d : seen) {
    // The sub-request budget is what is LEFT: positive, and strictly less
    // than the client's deadline (scatter time already elapsed).
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 5.0);
  }
  for (std::uint8_t p : shard.priorities()) {
    EXPECT_EQ(p, static_cast<std::uint8_t>(Priority::kInteractive));
  }
  router.Stop();
}

TEST(OverloadRouterBudget, ShedsTypedWhenBudgetCannotCoverDispatch) {
  const std::string path = TempPath("overload_shard2.sock");
  RecordingShard shard(path);
  ASSERT_TRUE(shard.start_status().ok()) << shard.start_status().ToString();
  Router router(OneShardRouter(path));
  ASSERT_TRUE(router.Start().ok());
  for (int i = 0; i < 100 && !router.Ping().ready; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  QueryRequest req = SmallQuery(/*num_paths=*/4);
  req.deadline_seconds = 1e-7;  // gone before placement finishes
  const QueryResponse resp = router.Query(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded)
      << resp.status.ToString();
  EXPECT_EQ(resp.shed_reason, static_cast<std::uint8_t>(ShedReason::kRouterBudget));
  EXPECT_TRUE(shard.deadlines().empty()) << "shed queries must not reach shards";

  const ServerStatsWire s = router.Stats();
  EXPECT_EQ(s.queries_shed, 1u);
  EXPECT_EQ(s.shed_by_reason[static_cast<std::size_t>(ShedReason::kRouterBudget)], 1u);
  router.Stop();
}

}  // namespace
}  // namespace m3::serve
