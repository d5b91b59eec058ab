// Overload-control tests (DESIGN.md §13): queue-full admission for every
// class, per-class dequeue order, eager expiry reaping, the stats
// invariant, the wire's priority/deadline/shed fields, and the router's
// deadline-budget propagation into shard sub-requests.
//
// Suite names deliberately start with "Overload" so check.sh's sanitizer
// tier regexes (Service|SocketServer|... and the chaos set) do not pull
// these in; the `overload` tier drives the live daemon instead. The
// exceptions: the ASan tier runs OverloadWire with the other decoder
// suites, and the TSan tier runs OverloadAdmission, whose queue entries
// share admission with requests borrowed across threads.
#include <gtest/gtest.h>
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
#include "wait_for.h"
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

// Blocks the (single) worker thread inside the pre-execute hook until
// Release(), so tests can build queue pressure deterministically. Records
// the priority of every request in the order the worker takes them.
class WorkerGate {
 public:
  void Install(EstimationService& svc) {
    svc.set_pre_execute_hook([this](const QueryRequest& req) {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      order_.push_back(req.priority);
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
  std::vector<std::uint8_t> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
  std::vector<std::uint8_t> order_;
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

TEST(OverloadWire, RoundTripCarriesPriorityAndShedReason) {
  QueryRequest req = SmallQuery();
  req.priority = static_cast<std::uint8_t>(Priority::kInteractive);
  req.deadline_seconds = 2.5;
  const StatusOr<QueryRequest> got = DecodeQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->priority, static_cast<std::uint8_t>(Priority::kInteractive));
  EXPECT_EQ(got->deadline_seconds, 2.5);

  QueryResponse resp;
  resp.status = Status::ResourceExhausted("shed");
  resp.shed_reason = static_cast<std::uint8_t>(ShedReason::kQueueFull);
  const StatusOr<QueryResponse> rt = DecodeQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->shed_reason, static_cast<std::uint8_t>(ShedReason::kQueueFull));

  ServerStatsWire st;
  st.queries_shed = 5;
  st.shed_by_reason[static_cast<std::size_t>(ShedReason::kExpired)] = 3;
  const StatusOr<ServerStatsWire> gs = DecodeStats(EncodeStats(st));
  ASSERT_TRUE(gs.ok()) << gs.status().ToString();
  EXPECT_EQ(gs->queries_shed, 5u);
  EXPECT_EQ(gs->shed_by_reason[static_cast<std::size_t>(ShedReason::kExpired)], 3u);
}

TEST(OverloadWire, HostilePriorityAndShedReasonAreRejected) {
  QueryRequest req = SmallQuery();
  req.priority = 17;  // encoder writes it raw; the decoder must refuse
  const StatusOr<QueryRequest> got = DecodeQueryRequest(EncodeQueryRequest(req));
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);

  // none, queue_full, expired, router_budget: 4 and up are not reasons.
  for (const std::uint8_t bad : {std::uint8_t{4}, std::uint8_t{255}}) {
    QueryResponse resp;
    resp.shed_reason = bad;
    EXPECT_EQ(DecodeQueryResponse(EncodeQueryResponse(resp)).status().code(),
              StatusCode::kInvalidArgument)
        << "shed_reason " << int{bad};
  }
}

// -------------------------------------------------------------- admission --

TEST(OverloadAdmission, SubmitOnAStoppedServiceCountsAsRejected) {
  EstimationService svc(SmallServiceOptions());  // never started
  bool called = false;
  const Status st = svc.Submit(SmallQuery(), [&called](QueryResponse) { called = true; });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_FALSE(called);
  const ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.queries_received, 1u);
  EXPECT_EQ(s.queries_rejected, 1u);
  ExpectInvariant(s);
}

// A full queue turns away every class, critical included, and displaces
// nothing; among queued work the worker takes the highest class first, so
// a queued critical entry never starves behind earlier background work.
TEST(OverloadAdmission, LowerClassShedFirstAndCriticalNeverStarves) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 2;
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest normal = SmallQuery();
  normal.no_cache = true;
  QueryRequest bg = SmallQuery(3, /*wl_seed=*/5);
  bg.priority = static_cast<std::uint8_t>(Priority::kBackground);
  bg.no_cache = true;
  QueryRequest crit = SmallQuery(3, /*wl_seed=*/7);
  crit.priority = static_cast<std::uint8_t>(Priority::kCritical);
  crit.no_cache = true;

  // q0 occupies the worker; a background entry, then a critical one, fill
  // the queue.
  Answer a0, a1, a2;
  ASSERT_TRUE(svc.Submit(normal, a0.Done()).ok());
  gate.AwaitWorkerBlocked();
  ASSERT_TRUE(svc.Submit(bg, a1.Done()).ok());
  ASSERT_TRUE(svc.Submit(crit, a2.Done()).ok());

  // Full queue: even a critical arrival is turned away, and nothing queued
  // is displaced to make room for it.
  ShedReason why = ShedReason::kNone;
  Answer a3;
  const Status st = svc.Submit(crit, a3.Done(), &why);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(st.ToString().find("queue full"), std::string::npos) << st.ToString();
  EXPECT_EQ(why, ShedReason::kQueueFull);
  EXPECT_EQ(svc.Stats().queue_depth, 2u);
  EXPECT_EQ(a1.future.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

  gate.Release();
  svc.Stop();  // drains: the queued critical entry runs before the earlier background one
  EXPECT_TRUE(a0.future.get().status.ok());
  EXPECT_TRUE(a1.future.get().status.ok());
  EXPECT_TRUE(a2.future.get().status.ok());
  const std::vector<std::uint8_t> want = {static_cast<std::uint8_t>(Priority::kNormal),
                                          static_cast<std::uint8_t>(Priority::kCritical),
                                          static_cast<std::uint8_t>(Priority::kBackground)};
  EXPECT_EQ(gate.order(), want);

  const ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.queries_rejected, 1u);
  EXPECT_EQ(s.queries_shed, 0u);
  EXPECT_EQ(s.shed_by_reason[static_cast<std::size_t>(ShedReason::kQueueFull)], 1u);
  ExpectInvariant(s);
}

TEST(OverloadAdmission, ExpiredQueuedEntriesAreReapedEagerly) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 4;
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

// A cached query needs no compute, so Query answers it before admission:
// with every worker busy and the queue full it is still a hit, counted
// received + ok, while the next uncached arrival is turned away.
TEST(OverloadAdmission, HitIsAnsweredWhenTheQueueIsFull) {
  ServiceOptions so = SmallServiceOptions();
  so.queue_capacity = 1;
  EstimationService svc(so);
  ASSERT_TRUE(svc.ReloadModel(TinyCheckpoint()).ok());
  const QueryRequest cached = SmallQuery();
  const QueryResponse first = svc.ExecuteInline(cached);  // warms the cache
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  WorkerGate gate;
  gate.Install(svc);
  ASSERT_TRUE(svc.Start().ok());

  QueryRequest blocker = SmallQuery(3, /*wl_seed=*/5);
  blocker.no_cache = true;
  QueryRequest filler = SmallQuery(3, /*wl_seed=*/7);
  filler.no_cache = true;
  Answer a0, a1, a2;
  ASSERT_TRUE(svc.Submit(blocker, a0.Done()).ok());
  gate.AwaitWorkerBlocked();
  ASSERT_TRUE(svc.Submit(filler, a1.Done()).ok());
  EXPECT_EQ(svc.Submit(filler, a2.Done()).code(), StatusCode::kResourceExhausted);

  const QueryResponse hit = svc.Query(cached);
  EXPECT_EQ(svc.Stats().queue_depth, 1u);
  gate.Release();
  svc.Stop();
  EXPECT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_TRUE(hit.query_cache_hit);
  EXPECT_EQ(hit.shed_reason, static_cast<std::uint8_t>(ShedReason::kNone));
  EXPECT_EQ(hit.combined_pct, first.combined_pct);
  EXPECT_TRUE(a0.future.get().status.ok());
  EXPECT_TRUE(a1.future.get().status.ok());
  const ServerStatsWire s = svc.Stats();
  EXPECT_EQ(s.queries_received, 5u);  // inline, blocker, filler, rejected, hit
  EXPECT_EQ(s.queries_ok, 4u);
  EXPECT_EQ(s.queries_rejected, 1u);
  ExpectInvariant(s);
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
  ASSERT_TRUE(WaitFor([&] { return router.Ping().ready; }, std::chrono::seconds(10)));

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
  ASSERT_TRUE(WaitFor([&] { return router.Ping().ready; }, std::chrono::seconds(10)));

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
