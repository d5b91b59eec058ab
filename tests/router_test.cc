// Sharded-fleet tests: the consistent-hash ring (serve/shardmap.h), the
// shard wire messages under the usual hostile
// treatment, shard-side slot execution determinism (serve/exec.h), and the
// scatter-gather router end-to-end against a live in-process fleet —
// including the acceptance property that a fault-free scattered answer is
// bitwise identical to a single daemon's, and that shard loss degrades
// answers instead of failing them.
//
// Suite names here (HashRing / ShardWire / ShardExec / RouterChaos) are deliberately outside the TSan tier's suite regex in
// tools/check.sh: RouterChaos spins real sockets and whole services, which
// belongs in the plain and chaos tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/exec.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/shardmap.h"
#include "serve/wire.h"
#include "temp_path.h"
#include "topo/fat_tree.h"
#include "wait_for.h"
#include "wire_samples.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/traffic_matrix.h"

namespace m3::serve {
namespace {

// ------------------------------------------------------------- hash ring --

Hash128 KeyOf(int i) {
  Hasher h;
  h.Str("router-test-key").I32(i);
  return h.Finish();
}

TEST(HashRing, OwnerIsDeterministicAcrossInstances) {
  const std::vector<std::string> shards = {"tcp:a:1", "tcp:b:1", "tcp:c:1"};
  const HashRing r1(shards, 64);
  const HashRing r2(shards, 64);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(r1.Owner(KeyOf(i)), r2.Owner(KeyOf(i))) << "key " << i;
  }
}

TEST(HashRing, KeysSpreadAcrossAllShards) {
  const HashRing ring({"tcp:a:1", "tcp:b:1", "tcp:c:1"}, 64);
  std::array<int, 3> counts{};
  constexpr int kKeys = 3000;
  for (int i = 0; i < kKeys; ++i) {
    const int owner = ring.Owner(KeyOf(i));
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 3);
    ++counts[static_cast<std::size_t>(owner)];
  }
  // With 64 vnodes the split is near-uniform; 15% per shard is a loose
  // floor that only a broken ring would miss.
  for (int c : counts) EXPECT_GT(c, kKeys * 15 / 100);
}

TEST(HashRing, PreferenceIsDistinctOwnerFirstAndCapped) {
  const HashRing ring({"s0", "s1", "s2", "s3"}, 32);
  for (int i = 0; i < 200; ++i) {
    const Hash128 key = KeyOf(i);
    const std::vector<int> all = ring.Preference(key);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0], ring.Owner(key));
    std::vector<int> sorted = all;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));  // each shard once
    const std::vector<int> two = ring.Preference(key, 2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], all[0]);
    EXPECT_EQ(two[1], all[1]);
  }
}

TEST(HashRing, RemovingOneShardMovesOnlyItsKeys) {
  const std::vector<std::string> full = {"s0", "s1", "s2"};
  const std::vector<std::string> less = {"s0", "s1"};  // s2 removed
  const HashRing before(full, 64);
  const HashRing after(less, 64);
  int moved = 0, kept = 0;
  for (int i = 0; i < 1000; ++i) {
    const Hash128 key = KeyOf(i);
    const std::string owner_before = full[static_cast<std::size_t>(before.Owner(key))];
    const std::string owner_after = less[static_cast<std::size_t>(after.Owner(key))];
    if (owner_before == "s2") {
      ++moved;  // orphaned keys must land somewhere
    } else {
      // The consistency property: keys not owned by the removed shard
      // keep their owner (no fleet-wide reshuffle on a shard bounce).
      EXPECT_EQ(owner_after, owner_before) << "key " << i;
      ++kept;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_GT(kept, 0);
}

TEST(HashRing, EmptyRingOwnsNothing) {
  const HashRing ring({}, 64);
  EXPECT_EQ(ring.num_shards(), 0u);
  EXPECT_EQ(ring.Owner(KeyOf(1)), -1);
  EXPECT_TRUE(ring.Preference(KeyOf(1)).empty());
}

// ------------------------------------------------------------ shard wire --

QueryRequest SampleShardQuery() {
  QueryRequest req;
  req.oversub = 4.0;
  req.topo.pods = 2;
  req.topo.racks_per_pod = 2;
  req.topo.hosts_per_rack = 4;
  req.topo.fabric_per_pod = 2;
  req.topo.spines_per_plane = 2;
  req.num_paths = 5;
  req.seed = 42;
  req.strict = true;
  for (int i = 0; i < 2; ++i) {
    WireFlow f;
    f.id = i;
    f.src_host = i;
    f.dst_host = 5 + i;
    f.size = 777 * (i + 1);
    req.flows.push_back(f);
  }
  return req;
}

TEST(ShardWire, QueryRequestTopoRoundTripsAndChangesTheCacheKey) {
  const QueryRequest req = SampleShardQuery();
  const StatusOr<QueryRequest> got = DecodeQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->topo == req.topo);
  EXPECT_FALSE(got->topo.IsDefault());

  QueryRequest other = req;
  other.topo.pods = 4;
  const Hash128 digest = HashBytes("m", 1);
  EXPECT_NE(QueryCacheKey(req, digest), QueryCacheKey(other, digest));
}

TEST(ShardWire, ShardQueryRequestRoundTrip) {
  ShardQueryRequest req;
  req.query = SampleShardQuery();
  req.slots = {0, 3, 4};
  const StatusOr<ShardQueryRequest> got =
      DecodeShardQueryRequest(EncodeShardQueryRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->slots, req.slots);
  EXPECT_EQ(got->query.num_paths, req.query.num_paths);
  EXPECT_EQ(got->query.seed, req.query.seed);
  EXPECT_TRUE(got->query.topo == req.query.topo);
  ASSERT_EQ(got->query.flows.size(), req.query.flows.size());
  EXPECT_EQ(got->query.flows[1].size, req.query.flows[1].size);
  // The embedded query round-trips its cache key (a shard rebuilds the
  // router's placement keys from exactly these bytes).
  const Hash128 digest = HashBytes("m", 1);
  EXPECT_EQ(QueryCacheKey(req.query, digest), QueryCacheKey(got->query, digest));
}

// An embedded query over a mebibyte (40k flows of 29 bytes) decodes: only
// the payload bounds it, as it bounds a plain QueryRequest, not the string
// cap.
TEST(ShardWire, EmbeddedQueryOverOneMebibyteRoundTrips) {
  ShardQueryRequest req;
  req.query = SampleShardQuery();
  req.query.flows.clear();
  for (int i = 0; i < 40000; ++i) {
    WireFlow f;
    f.id = i;
    f.src_host = i % 16;
    f.dst_host = (i + 5) % 16;
    f.size = 1000 + i;
    f.arrival = 7 * i;
    f.priority = static_cast<std::uint8_t>(i % 3);
    req.query.flows.push_back(f);
  }
  req.slots = {1, 2};
  const std::string bytes = EncodeShardQueryRequest(req);
  ASSERT_GT(bytes.size(), std::size_t{1} << 20);
  const StatusOr<ShardQueryRequest> got = DecodeShardQueryRequest(bytes);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->slots, req.slots);
  ASSERT_EQ(got->query.flows.size(), req.query.flows.size());
  EXPECT_EQ(EncodeShardQueryRequest(*got), bytes);
  const Hash128 digest = HashBytes("m", 1);
  EXPECT_EQ(QueryCacheKey(got->query, digest), QueryCacheKey(req.query, digest));
}

ShardQueryResponse SampleShardResponse() {
  ShardQueryResponse resp;
  resp.status = Status::Degraded("1 slot degraded");
  resp.degradation.paths_ok = 2;
  resp.degradation.paths_degraded = 1;
  resp.degradation.first_error = "slot 3: injected";
  resp.model_version = 7;
  resp.model_crc = 0xabcd1234;
  for (std::uint32_t s : {0u, 3u}) {
    SlotEstimateWire se;
    se.slot = s;
    se.estimate.counts[1] = 4.0 + s;
    se.estimate.pct[1][50] = 1.5 + s;
    se.estimate.pct[3][99] = 9.0;
    resp.estimates.push_back(se);
  }
  return resp;
}

TEST(ShardWire, ShardQueryResponseRoundTrip) {
  const ShardQueryResponse resp = SampleShardResponse();
  const StatusOr<ShardQueryResponse> got =
      DecodeShardQueryResponse(EncodeShardQueryResponse(resp));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->status.code(), StatusCode::kDegraded);
  EXPECT_EQ(got->degradation.paths_ok, 2);
  EXPECT_EQ(got->degradation.paths_degraded, 1);
  EXPECT_EQ(got->degradation.first_error, resp.degradation.first_error);
  EXPECT_EQ(got->model_version, 7u);
  EXPECT_EQ(got->model_crc, 0xabcd1234u);
  ASSERT_EQ(got->estimates.size(), 2u);
  EXPECT_EQ(got->estimates[1].slot, 3u);
  EXPECT_EQ(got->estimates[1].estimate.counts[1], 7.0);
  EXPECT_EQ(got->estimates[1].estimate.pct[1][50], 4.5);
  EXPECT_EQ(got->estimates[1].estimate.pct[3][99], 9.0);
}

TEST(ShardWire, QueryResponseShardAttributionRoundTrips) {
  QueryResponse resp;
  resp.status = Status::Ok();
  ShardReportWire row;
  row.shard = "unix:/tmp/s1.sock";
  row.slots_assigned = 10;
  row.slots_ok = 8;
  row.slots_fallback = 1;
  row.slots_dropped = 1;
  row.retries = 2;
  resp.shards.push_back(row);
  const StatusOr<QueryResponse> got = DecodeQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->shards.size(), 1u);
  EXPECT_EQ(got->shards[0].shard, row.shard);
  EXPECT_EQ(got->shards[0].slots_assigned, 10u);
  EXPECT_EQ(got->shards[0].slots_ok, 8u);
  EXPECT_EQ(got->shards[0].slots_fallback, 1u);
  EXPECT_EQ(got->shards[0].slots_dropped, 1u);
  EXPECT_EQ(got->shards[0].retries, 2u);
}

TEST(ShardWire, RouterStatsAndPingFieldsRoundTrip) {
  // Three shard rows with every field of the list distinct.
  const ServerStatsWire s = DistinctStats(3);
  const StatusOr<ServerStatsWire> gs = DecodeStats(EncodeStats(s));
  ASSERT_TRUE(gs.ok()) << gs.status().ToString();
  ASSERT_EQ(gs->shards.size(), 3u);
  EXPECT_TRUE(gs->shards == s.shards);

  PingResponse p;
  p.ready = true;
  p.router_mode = true;
  p.shards_healthy = 2;
  p.shards_total = 3;
  p.model_version = 5;
  p.model_crc = 0xfeedu;
  const StatusOr<PingResponse> gp = DecodePingResponse(EncodePingResponse(p));
  ASSERT_TRUE(gp.ok());
  EXPECT_TRUE(gp->ready);
  EXPECT_TRUE(gp->router_mode);
  EXPECT_EQ(gp->shards_healthy, 2u);
  EXPECT_EQ(gp->shards_total, 3u);
  EXPECT_EQ(gp->model_version, 5u);
  EXPECT_EQ(gp->model_crc, 0xfeedu);
}

// ----------------------------------------------------------------- fixture --

M3ModelConfig TinyModel() {
  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  return mcfg;
}

// Per-process path: ctest runs each test in its own process, and a shared
// name races the save's tmp+rename under a parallel run.
std::string SaveTinyModel(const char* tag, std::uint64_t init_seed) {
  const std::string p = TempPath(std::string("router_tiny_model_") + tag + ".ckpt");
  M3ModelConfig mcfg = TinyModel();
  mcfg.init_seed = init_seed;
  M3Model model(mcfg);
  model.Save(p);
  return p;
}

std::string TinyCheckpoint() {
  static const std::string path = SaveTinyModel("a", TinyModel().init_seed);
  return path;
}

// Same dimensions, different weights (and so a different model CRC).
std::string OtherTinyCheckpoint() {
  static const std::string path = SaveTinyModel("b", TinyModel().init_seed + 1);
  return path;
}

QueryRequest FleetQuery(int num_paths = 6, std::uint64_t wl_seed = 3, int num_flows = 300) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = num_flows;
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

void ExpectBitwiseEqual(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.bucket_pct, b.bucket_pct);
  EXPECT_EQ(a.total_counts, b.total_counts);
  EXPECT_EQ(a.combined_pct, b.combined_pct);
}

// -------------------------------------------------- shard-side execution --

TEST(ShardExec, SlotEstimatesAreIdenticalAcrossGroupings) {
  ModelRegistry reg(TinyModel());
  ASSERT_TRUE(reg.Reload(TinyCheckpoint()).ok());
  const std::shared_ptr<const ModelSnapshot> snap = reg.Current();
  ASSERT_NE(snap, nullptr);
  TopoMemo topos;
  ExecContext ctx;
  ctx.topos = &topos;

  ShardQueryRequest whole;
  whole.query = FleetQuery(6);
  whole.query.no_cache = true;
  for (std::uint32_t s = 0; s < 6; ++s) whole.slots.push_back(s);
  const ShardQueryResponse all = ExecuteShardOnSnapshot(whole, *snap, ctx);
  ASSERT_TRUE(all.status.ok()) << all.status.ToString();
  ASSERT_EQ(all.estimates.size(), 6u);

  // Scatter the same slots across three disjoint "shards": the union of
  // the partial replies must cover every slot with bitwise-identical
  // estimates — the property the router's positional merge relies on.
  std::map<std::uint32_t, PathEstimate> merged;
  for (int part = 0; part < 3; ++part) {
    ShardQueryRequest sub;
    sub.query = whole.query;
    for (std::uint32_t s = 0; s < 6; ++s) {
      if (static_cast<int>(s) % 3 == part) sub.slots.push_back(s);
    }
    const ShardQueryResponse got = ExecuteShardOnSnapshot(sub, *snap, ctx);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ASSERT_EQ(got.estimates.size(), sub.slots.size());
    for (const SlotEstimateWire& se : got.estimates) {
      EXPECT_TRUE(merged.emplace(se.slot, se.estimate).second)
          << "slot " << se.slot << " estimated twice";
    }
  }
  ASSERT_EQ(merged.size(), 6u);
  for (const SlotEstimateWire& se : all.estimates) {
    const PathEstimate& m = merged.at(se.slot);
    EXPECT_EQ(se.estimate.pct, m.pct) << "slot " << se.slot;
    EXPECT_EQ(se.estimate.counts, m.counts) << "slot " << se.slot;
  }
}

TEST(ShardExec, OutOfRangeSlotsAreRejected) {
  ModelRegistry reg(TinyModel());
  ASSERT_TRUE(reg.Reload(TinyCheckpoint()).ok());
  TopoMemo topos;
  ExecContext ctx;
  ctx.topos = &topos;
  ShardQueryRequest req;
  req.query = FleetQuery(4);
  req.slots = {0, 99};  // 99 >= num_paths
  const ShardQueryResponse resp = ExecuteShardOnSnapshot(req, *reg.Current(), ctx);
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument)
      << resp.status.ToString();
}

// --------------------------------------------------- live fleet (chaos) ----

struct TestShard {
  std::unique_ptr<EstimationService> service;
  std::unique_ptr<SocketServer> server;
  std::string path;

  void Start(const std::string& socket_path, const std::string& checkpoint = TinyCheckpoint()) {
    path = socket_path;
    ServiceOptions so;
    so.model_config = TinyModel();
    so.num_workers = 2;
    so.threads_per_query = 1;
    service = std::make_unique<EstimationService>(so);
    ASSERT_TRUE(service->ReloadModel(checkpoint).ok());
    ASSERT_TRUE(service->Start().ok());
    server = std::make_unique<SocketServer>(*service);
    ASSERT_TRUE(server->Start(socket_path).ok());
  }

  void Kill() {  // connection-refused from the router's point of view
    if (server) server->Stop();
  }

  ~TestShard() {
    if (server) server->Stop();
    if (service) service->Stop();
  }
};

RouterOptions FastRouterOptions(const std::vector<std::string>& shards) {
  RouterOptions ro;
  ro.shards = shards;
  ro.replicas = 2;
  ro.connect_timeout_seconds = 1.0;
  ro.shard_timeout_seconds = 20.0;
  ro.health_interval_seconds = 0.1;
  ro.fallback_threads = 2;
  return ro;
}

std::vector<std::string> FleetPaths(const char* tag, int n) {
  std::vector<std::string> paths;
  for (int i = 0; i < n; ++i) {
    paths.push_back(TempPath(tag + std::to_string(i) + ".sock"));
  }
  return paths;
}

TEST(RouterChaos, FaultFreeScatterIsBitwiseIdenticalToSingleDaemon) {
  const std::vector<std::string> paths = FleetPaths("rc_id", 3);
  TestShard shards[3];
  for (int i = 0; i < 3; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());

  const QueryRequest req = FleetQuery(6);
  const QueryResponse routed = router.Query(req);
  ASSERT_TRUE(routed.status.ok()) << routed.status.ToString();

  // Reference: the same query on one standalone service.
  ServiceOptions so;
  so.model_config = TinyModel();
  EstimationService single(so);
  ASSERT_TRUE(single.ReloadModel(TinyCheckpoint()).ok());
  const QueryResponse direct = single.ExecuteInline(req);
  ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();

  ExpectBitwiseEqual(routed, direct);
  EXPECT_EQ(routed.degradation.paths_ok, 6);
  EXPECT_EQ(routed.degradation.paths_degraded, 0);
  EXPECT_EQ(routed.degradation.paths_dropped, 0);

  // Attribution covers every slot exactly once across the fleet.
  ASSERT_EQ(routed.shards.size(), 3u);
  std::uint32_t assigned = 0, ok = 0;
  for (const ShardReportWire& row : routed.shards) {
    assigned += row.slots_assigned;
    ok += row.slots_ok;
    EXPECT_EQ(row.slots_fallback, 0u);
    EXPECT_EQ(row.slots_dropped, 0u);
  }
  EXPECT_EQ(assigned, 6u);
  EXPECT_EQ(ok, 6u);
}

// A query whose flows take over a mebibyte on the wire (40k flows) is
// scattered and answered as one daemon answers it: the shards accept the
// embedded query at any size the frame allows.
TEST(RouterChaos, QueryOverOneMebibyteOfFlowsMatchesOneDaemon) {
  const std::vector<std::string> paths = FleetPaths("rc_big", 2);
  TestShard shards[2];
  for (int i = 0; i < 2; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());

  const QueryRequest req = FleetQuery(4, 5, 40000);
  ASSERT_GT(EncodeQueryRequest(req).size(), std::size_t{1} << 20);
  const QueryResponse routed = router.Query(req);
  ASSERT_TRUE(routed.status.ok()) << routed.status.ToString();

  ServiceOptions so;
  so.model_config = TinyModel();
  EstimationService single(so);
  ASSERT_TRUE(single.ReloadModel(TinyCheckpoint()).ok());
  const QueryResponse direct = single.ExecuteInline(req);
  ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();

  ExpectBitwiseEqual(routed, direct);
  EXPECT_EQ(routed.degradation.paths_ok, 4);
  EXPECT_EQ(routed.degradation.paths_degraded, 0);
}

TEST(RouterChaos, ShardLossReroutesToReplicasWithoutDegradation) {
  const std::vector<std::string> paths = FleetPaths("rc_loss", 3);
  TestShard shards[3];
  for (int i = 0; i < 3; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  const QueryRequest req = FleetQuery(6);
  const QueryResponse before = router.Query(req);
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();

  shards[1].Kill();
  // Immediately after the kill (prober may not have noticed): the dispatch
  // fails, the slots reroute to their next ring replica, and the answer is
  // still full-quality — identical to the pre-kill answer.
  const QueryResponse after = router.Query(req);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  ExpectBitwiseEqual(before, after);
  EXPECT_EQ(after.degradation.paths_degraded, 0);
  EXPECT_EQ(after.degradation.paths_dropped, 0);
  std::uint32_t ok = 0;
  for (const ShardReportWire& row : after.shards) ok += row.slots_ok;
  EXPECT_EQ(ok, 6u);
}

TEST(RouterChaos, WholeFleetDownDegradesEveryPathNeverFails) {
  const std::vector<std::string> paths = FleetPaths("rc_down", 3);
  {
    TestShard shards[3];
    for (int i = 0; i < 3; ++i) shards[i].Start(paths[i]);
    // Shards die before the router ever probes them.
  }

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());  // a dead fleet is not a startup error
  const PingResponse ping = router.Ping();
  EXPECT_TRUE(ping.router_mode);
  EXPECT_EQ(ping.shards_healthy, 0u);
  EXPECT_EQ(ping.shards_total, 3u);

  const QueryRequest req = FleetQuery(5);
  const QueryResponse resp = router.Query(req);
  // Degraded, never failed: every slot served by the router-side flowSim
  // fallback, attributed to its owning shard.
  EXPECT_EQ(resp.status.code(), StatusCode::kDegraded) << resp.status.ToString();
  EXPECT_EQ(resp.degradation.paths_degraded, 5);
  EXPECT_EQ(resp.degradation.paths_dropped, 0);
  EXPECT_FALSE(resp.combined_pct.empty());
  std::uint32_t fallback = 0;
  for (const ShardReportWire& row : resp.shards) fallback += row.slots_fallback;
  EXPECT_EQ(fallback, 5u);

  // Strict mode refuses fallbacks: slots drop and the answer reweights.
  QueryRequest strict = req;
  strict.strict = true;
  const QueryResponse sresp = router.Query(strict);
  EXPECT_EQ(sresp.degradation.paths_degraded, 0);
  EXPECT_EQ(sresp.degradation.paths_dropped, 5);
}

TEST(RouterChaos, FleetRecoveryReclosesBreakersAndRestoresFullQuality) {
  const std::vector<std::string> paths = FleetPaths("rc_rec", 3);
  TestShard shards[3];
  for (int i = 0; i < 3; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  const QueryRequest req = FleetQuery(6);
  const QueryResponse before = router.Query(req);
  ASSERT_TRUE(before.status.ok());

  // Take the whole fleet down and let the prober mark every shard down.
  for (TestShard& s : shards) s.Kill();
  const auto opened = [&router] {
    const ServerStatsWire s = router.Stats();
    std::size_t n = 0;
    for (const ShardHealthWire& sh : s.shards) n += sh.healthy ? 0 : 1;
    return n == s.shards.size();
  };
  ASSERT_TRUE(WaitFor(opened, std::chrono::milliseconds(2000)));
  EXPECT_EQ(router.Query(req).status.code(), StatusCode::kDegraded);

  // Bring the fleet back on the same addresses: the health prober's
  // successful pings mark the shards healthy again and answers return to
  // full quality.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(shards[i].server->Start(paths[i]).ok());
  }
  const auto healthy = [&router] { return router.Ping().shards_healthy == 3u; };
  ASSERT_TRUE(WaitFor(healthy, std::chrono::milliseconds(4000)));

  const QueryResponse after = router.Query(req);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  ExpectBitwiseEqual(before, after);
  const ServerStatsWire stats = router.Stats();
  for (const ShardHealthWire& sh : stats.shards) {
    EXPECT_TRUE(sh.healthy) << sh.address;
  }
}

TEST(RouterChaos, RouterStartRequiresShards) {
  Router router(RouterOptions{});
  EXPECT_EQ(router.Start().code(), StatusCode::kInvalidArgument);
}

// Shard dispatches the router has made so far, summed over the fleet.
std::uint64_t Dispatches(const Router& router) {
  std::uint64_t n = 0;
  for (const ShardHealthWire& sh : router.Stats().shards) n += sh.dispatches;
  return n;
}

TEST(RouterChaos, RouterCacheServesRepeats) {
  const std::vector<std::string> paths = FleetPaths("rc_warm", 2);
  TestShard shards[2];
  for (int i = 0; i < 2; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  const QueryRequest req = FleetQuery(5);
  const QueryResponse first = router.Query(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.query_cache_hit);
  EXPECT_EQ(first.degradation.paths_ok, 5);

  // Identical repeat: answered from the router cache, no scatter,
  // bitwise identical to the scattered answer.
  const std::uint64_t dispatched = Dispatches(router);
  const QueryResponse repeat = router.Query(req);
  ASSERT_TRUE(repeat.status.ok());
  ExpectBitwiseEqual(first, repeat);
  EXPECT_TRUE(repeat.query_cache_hit);
  EXPECT_EQ(Dispatches(router), dispatched);
  // A cached answer carries the live fleet's model identity.
  EXPECT_NE(first.model_crc, 0u);
  EXPECT_EQ(repeat.model_version, first.model_version);
  EXPECT_EQ(repeat.model_crc, first.model_crc);
}

TEST(RouterChaos, NoCacheRequestBypassesRouterCache) {
  const std::vector<std::string> paths = FleetPaths("rc_nocache", 2);
  TestShard shards[2];
  for (int i = 0; i < 2; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  QueryRequest req = FleetQuery(4);
  ASSERT_TRUE(router.Query(req).status.ok());
  req.no_cache = true;
  const std::uint64_t dispatched = Dispatches(router);
  const QueryResponse again = router.Query(req);
  ASSERT_TRUE(again.status.ok());
  EXPECT_FALSE(again.query_cache_hit);
  EXPECT_GT(Dispatches(router), dispatched);
}

TEST(RouterChaos, MixedModelFleetNeverCachesTheMergedAnswer) {
  const std::vector<std::string> paths = FleetPaths("rc_mixed", 2);
  TestShard shards[2];
  shards[0].Start(paths[0], TinyCheckpoint());
  shards[1].Start(paths[1], OtherTinyCheckpoint());
  ASSERT_NE(shards[0].service->Ping().model_crc, shards[1].service->Ping().model_crc);

  RouterOptions ro = FastRouterOptions(paths);
  ro.replicas = 1;  // each slot stays on its ring owner
  Router router(ro);
  ASSERT_TRUE(router.Start().ok());
  const QueryRequest req = FleetQuery(12);
  const QueryResponse first = router.Query(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  // The merged answer really mixes both checkpoints.
  ASSERT_EQ(first.shards.size(), 2u);
  ASSERT_GT(first.shards[0].slots_ok, 0u);
  ASSERT_GT(first.shards[1].slots_ok, 0u);

  for (int rep = 0; rep < 2; ++rep) {
    const std::uint64_t dispatched = Dispatches(router);
    const QueryResponse again = router.Query(req);
    ASSERT_TRUE(again.status.ok());
    EXPECT_FALSE(again.query_cache_hit);
    EXPECT_GT(Dispatches(router), dispatched);
    ExpectBitwiseEqual(first, again);
  }
}

TEST(RouterChaos, FleetModelReloadRecomputesRepeats) {
  const std::vector<std::string> paths = FleetPaths("rc_reload", 2);
  TestShard shards[2];
  for (int i = 0; i < 2; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  const QueryRequest req = FleetQuery(6);
  const QueryResponse old_answer = router.Query(req);
  ASSERT_TRUE(old_answer.status.ok()) << old_answer.status.ToString();
  ASSERT_TRUE(router.Query(req).query_cache_hit);

  for (TestShard& s : shards) ASSERT_TRUE(s.service->ReloadModel(OtherTinyCheckpoint()).ok());
  const std::uint32_t new_crc = shards[0].service->Ping().model_crc;
  ASSERT_NE(new_crc, old_answer.model_crc);
  // The prober learns the new model within a few health intervals.
  WaitFor([&] { return router.Ping().model_crc == new_crc; }, std::chrono::milliseconds(2000));
  ASSERT_EQ(router.Ping().model_crc, new_crc);

  const std::uint64_t dispatched = Dispatches(router);
  const QueryResponse recomputed = router.Query(req);
  ASSERT_TRUE(recomputed.status.ok()) << recomputed.status.ToString();
  EXPECT_FALSE(recomputed.query_cache_hit);
  EXPECT_GT(Dispatches(router), dispatched);
  EXPECT_EQ(recomputed.model_crc, new_crc);
  EXPECT_NE(recomputed.combined_pct, old_answer.combined_pct);

  // The recomputed answer is what the cache serves from now on.
  const QueryResponse repeat = router.Query(req);
  EXPECT_TRUE(repeat.query_cache_hit);
  EXPECT_EQ(repeat.model_crc, new_crc);
  ExpectBitwiseEqual(recomputed, repeat);
}

// A scripted shard that answers pings ready and then either refuses every
// shard query with kUnavailable or answers each slot with a plainly valid
// estimate.
class ScriptedShard {
 public:
  ScriptedShard(const std::string& path, bool refuse) {
    ServerHooks hooks;
    hooks.ping = [] {
      PingResponse p;
      p.ready = true;
      p.model_version = 1;
      return p;
    };
    hooks.stats = [] { return ServerStatsWire{}; };
    hooks.shard_query = [refuse](const ShardQueryRequest& req) {
      ShardQueryResponse resp;
      resp.model_version = 1;
      if (refuse) {
        resp.status = Status::Unavailable("no model loaded");
        return resp;
      }
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

 private:
  Status start_status_;
  std::unique_ptr<SocketServer> server_;
};

// A shard that answers its pings but refuses its queries stays healthy; each
// refused slot moves at once to its ring replica. Strict mode ends the query
// with the refusal instead.
TEST(RouterChaos, RefusingShardSlotsLandOnTheReplica) {
  const std::vector<std::string> paths = FleetPaths("rc_refuse", 2);
  ScriptedShard refusing(paths[0], /*refuse=*/true);
  ScriptedShard serving(paths[1], /*refuse=*/false);
  ASSERT_TRUE(refusing.start_status().ok()) << refusing.start_status().ToString();
  ASSERT_TRUE(serving.start_status().ok()) << serving.start_status().ToString();

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_EQ(router.Ping().shards_healthy, 2u);

  constexpr int kSlots = 24;
  const QueryResponse resp = router.Query(FleetQuery(kSlots));
  ASSERT_EQ(resp.shards.size(), 2u);
  const std::uint32_t refused = resp.shards[0].slots_assigned;
  ASSERT_GT(refused, 0u) << "the ring gave the refusing shard no slot";
  EXPECT_EQ(resp.status.code(), StatusCode::kOk) << resp.status.ToString();
  EXPECT_EQ(resp.degradation.paths_degraded, 0);
  EXPECT_EQ(resp.degradation.paths_dropped, 0);
  EXPECT_EQ(resp.shards[0].slots_ok, 0u);
  EXPECT_EQ(resp.shards[1].slots_ok, static_cast<std::uint32_t>(kSlots));
  EXPECT_EQ(resp.shards[0].retries, 0u);
  EXPECT_EQ(resp.shards[1].retries, refused);
  const ServerStatsWire st = router.Stats();
  EXPECT_EQ(st.shards[1].retries, refused);
  EXPECT_EQ(st.shards[0].failures, 0u);  // it answered: no transport failure
  EXPECT_TRUE(st.shards[0].healthy);

  QueryRequest strict = FleetQuery(kSlots);
  strict.strict = true;
  const QueryResponse sresp = router.Query(strict);
  EXPECT_EQ(sresp.status.code(), StatusCode::kUnavailable) << sresp.status.ToString();
  EXPECT_NE(sresp.status.message().find("shard " + resp.shards[0].shard), std::string::npos)
      << sresp.status.ToString();
  EXPECT_NE(sresp.status.message().find("no model loaded"), std::string::npos)
      << sresp.status.ToString();
}

// A request the shards' validator rejects is the client's fault: the query
// ends with that status, is never cached, and marks no shard down however
// often it is sent.
TEST(RouterChaos, InvalidFlowEndsTheQueryWithoutChargingBreakers) {
  const std::vector<std::string> paths = FleetPaths("rc_invalid", 3);
  TestShard shards[3];
  for (int i = 0; i < 3; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  QueryRequest bad = FleetQuery(6);
  bad.flows[5].dst_host = bad.flows[5].src_host;
  constexpr int kSends = 5;
  for (int i = 0; i < kSends; ++i) {
    const std::uint64_t dispatched = Dispatches(router);
    const QueryResponse resp = router.Query(bad);
    EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument) << resp.status.ToString();
    EXPECT_NE(resp.status.message().find("flows[5].dst"), std::string::npos)
        << resp.status.ToString();
    EXPECT_EQ(resp.degradation.errors_validation, 1);
    EXPECT_EQ(resp.degradation.paths_degraded, 0);
    EXPECT_TRUE(resp.combined_pct.empty());
    EXPECT_FALSE(resp.query_cache_hit);
    EXPECT_GT(Dispatches(router), dispatched) << "an invalid answer was cached";
  }
  const ServerStatsWire st = router.Stats();
  EXPECT_EQ(st.queries_failed, static_cast<std::uint64_t>(kSends));
  for (const ShardHealthWire& sh : st.shards) {
    EXPECT_TRUE(sh.healthy) << sh.address;
    EXPECT_EQ(sh.failures, 0u) << sh.address;
    EXPECT_EQ(sh.retries, 0u) << sh.address;
    EXPECT_EQ(sh.slots_fallback, 0u) << sh.address;
  }

  // The fleet still serves full quality.
  const QueryResponse good = router.Query(FleetQuery(6));
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(good.degradation.paths_ok, 6);
}

// An out-of-range slot count is rejected before placement: nothing is
// sized for it and no shard sees it.
TEST(RouterChaos, OutOfRangeNumPathsIsRejectedBeforePlacement) {
  const std::vector<std::string> paths = FleetPaths("rc_npaths", 2);
  TestShard shards[2];
  for (int i = 0; i < 2; ++i) shards[i].Start(paths[i]);

  Router router(FastRouterOptions(paths));
  ASSERT_TRUE(router.Start().ok());
  for (const std::int32_t num_paths : {0, -1, 10'000'001}) {
    QueryRequest req = FleetQuery(6);
    req.num_paths = num_paths;
    const QueryResponse resp = router.Query(req);
    EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument) << num_paths;
    EXPECT_NE(resp.status.message().find("options.num_paths"), std::string::npos)
        << resp.status.ToString();
    EXPECT_EQ(resp.degradation.errors_validation, 1);
    EXPECT_TRUE(resp.shards.empty());
  }
  EXPECT_EQ(Dispatches(router), 0u);
}

// A query with no flows has no slots; the fleet answers it exactly as one
// daemon does (the validator rejects it).
TEST(RouterChaos, EmptyFlowListIsAnsweredAsOneDaemonAnswersIt) {
  QueryRequest req = FleetQuery(6);
  req.flows.clear();
  ServiceOptions so;
  so.model_config = TinyModel();
  EstimationService single(so);
  ASSERT_TRUE(single.ReloadModel(TinyCheckpoint()).ok());
  const QueryResponse direct = single.ExecuteInline(req);
  ASSERT_EQ(direct.status.code(), StatusCode::kInvalidArgument) << direct.status.ToString();

  for (const int n : {1, 3}) {
    const std::vector<std::string> paths = FleetPaths(n == 1 ? "rc_empty1_" : "rc_empty3_", n);
    std::vector<TestShard> shards(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) shards[static_cast<std::size_t>(i)].Start(paths[i]);
    Router router(FastRouterOptions(paths));
    ASSERT_TRUE(router.Start().ok());
    for (int rep = 0; rep < 2; ++rep) {
      const QueryResponse routed = router.Query(req);
      EXPECT_EQ(routed.status, direct.status) << n << " shards";
      EXPECT_EQ(routed.degradation.errors_validation, direct.degradation.errors_validation);
      EXPECT_EQ(routed.degradation.first_error, direct.degradation.first_error);
      EXPECT_EQ(routed.model_version, direct.model_version);
      EXPECT_EQ(routed.model_crc, direct.model_crc);
      EXPECT_FALSE(routed.query_cache_hit);
      ExpectBitwiseEqual(routed, direct);
    }
  }
}

}  // namespace
}  // namespace m3::serve
