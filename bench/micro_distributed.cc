// Distributed-serving microbenchmark: shard scaling and loss tolerance.
//
// Forks N m3d-style shard daemons (EstimationService + SocketServer on a
// unix socket each), scatter-gathers cold queries through an in-process
// Router, and records:
//
//   scaling: cold-query throughput/latency at 1, 2, ... N shards over the
//            scaled "large" fat tree (same shape knobs as table5:
//            M3_LARGE_PODS / M3_LARGE_RACKS / M3_LARGE_HOSTS; workload
//            scaled by M3_SCALE)
//   chaos:   p99 and degradation counts with one shard SIGKILLed a third
//            of the way into the load — every query must still be
//            answered (ok or degraded, never failed)
//   codec:   steady-loop encode and decode times of the scatter's
//            messages at paper scale: the 20k-flow reference
//            QueryRequest, a 50-slot ShardQueryRequest embedding it, and
//            a 50-estimate ShardQueryResponse (no fork, no sockets), and
//            the median microseconds of that request's QueryCacheKey
//
// Emits JSON on stdout; the checked-in snapshot lives in
// BENCH_distributed.json.
//
//   ./micro_distributed [queries_per_point] [flows_per_query] [paths] [shards]
//   ./micro_distributed codec          (the codec phase alone)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"
#include "util/hash.h"
#include "util/socket.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3::serve {
namespace {

using bench::EnvInt;
using bench::NearestRankMs;
using bench::WallTimer;

volatile sig_atomic_t g_shard_stop = 0;
void OnShardSignal(int) { g_shard_stop = 1; }

M3ModelConfig BenchModel() {
  // Full-size dims (weights are random — this bench measures serving cost,
  // not accuracy): per-slot inference has to dominate the query's shared
  // prep, as it does in production, or the scaling numbers mean nothing.
  return M3ModelConfig();
}

/// Child body: one shard daemon. Never returns to the caller's main.
[[noreturn]] void RunShard(const std::string& ckpt, const std::string& sock) {
  signal(SIGTERM, OnShardSignal);
  signal(SIGINT, SIG_IGN);  // ^C on the bench must not race the parent's teardown
  ServiceOptions so;
  so.model_config = BenchModel();
  so.num_workers = 2;
  so.threads_per_query = 1;
  EstimationService service(so);
  if (!service.ReloadModel(ckpt).ok()) _exit(1);
  if (!service.Start().ok()) _exit(1);
  SocketServer server(service);
  if (!server.Start(sock).ok()) _exit(1);
  while (!g_shard_stop) usleep(20 * 1000);
  server.Stop();
  service.Stop();
  _exit(0);
}

/// The table5-shaped "large" topology, scaled down by default so the bench
/// completes in minutes (M3_LARGE_PODS=8 M3_LARGE_RACKS=24 M3_LARGE_HOSTS=16
/// reproduces the paper's 384-rack fabric shape).
FatTreeConfig LargeTopo() {
  FatTreeConfig cfg = FatTreeConfig::Large(2.0);
  cfg.pods = EnvInt("M3_LARGE_PODS", 2);
  cfg.racks_per_pod = EnvInt("M3_LARGE_RACKS", 8);
  cfg.hosts_per_rack = EnvInt("M3_LARGE_HOSTS", 4);
  return cfg;
}

QueryRequest MakeQuery(const FatTree& ft, int flows_per_query, int paths,
                       std::uint64_t wl_seed) {
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = flows_per_query;
  wspec.seed = wl_seed;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  QueryRequest req;
  req.oversub = 2.0;
  const FatTreeConfig& tc = ft.config();
  req.topo.pods = tc.pods;
  req.topo.racks_per_pod = tc.racks_per_pod;
  req.topo.hosts_per_rack = tc.hosts_per_rack;
  req.topo.fabric_per_pod = tc.fabric_per_pod;
  req.topo.spines_per_plane = tc.spines_per_plane;
  req.num_paths = paths;
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

RouterOptions FleetOptions(const std::vector<std::string>& socks, std::size_t n) {
  RouterOptions ro;
  ro.shards.assign(socks.begin(), socks.begin() + static_cast<std::ptrdiff_t>(n));
  ro.replicas = 2;
  ro.health_interval_seconds = 0.2;
  ro.fallback_threads = 0;  // all cores: placement hashing must not bottleneck
  return ro;
}

// Mean milliseconds per call of `f` over a steady loop: one warm-up call,
// then the median of five batches of at least 50 ms each.
template <class F>
double MsPerCall(F&& f) {
  f();
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    int calls = 0;
    const WallTimer timer;
    double s = 0.0;
    do {
      f();
      ++calls;
      s = timer.Seconds();
    } while (s < 0.05);
    batches.push_back(s * 1000.0 / calls);
  }
  std::sort(batches.begin(), batches.end());
  return batches[2];
}

struct CodecRow {
  const char* name;
  std::size_t bytes = 0;
  double encode_ms = 0.0, decode_ms = 0.0;
};

struct Codec {
  std::vector<CodecRow> rows;
  std::size_t key_flows = 0;
  double query_key_us = 0.0;  // QueryCacheKey of the reference request
};

template <class M, class Enc, class Dec>
CodecRow TimeCodec(const char* name, const M& msg, Enc encode, Dec decode) {
  CodecRow row{name};
  const std::string bytes = encode(msg);
  row.bytes = bytes.size();
  if (!decode(bytes).ok()) {
    std::fprintf(stderr, "micro_distributed: %s does not round-trip\n", name);
    std::exit(7);
  }
  volatile std::size_t sink = 0;
  row.encode_ms = MsPerCall([&] { sink = sink + encode(msg).size(); });
  row.decode_ms = MsPerCall([&] { sink = sink + (decode(bytes).ok() ? 1 : 0); });
  return row;
}

// The scatter's messages at paper scale: the reference query (Small(2.0)
// fat tree, 20k flows, 100 paths), one shard's 50 of its slots, and that
// shard's 50 estimates; then the reference query's cache key.
Codec RunCodec() {
  const FatTree ft(FatTreeConfig::Small(2.0));
  ShardQueryRequest sq;
  sq.query = MakeQuery(ft, 20000, 100, 1);
  ShardQueryResponse sr;
  for (std::uint32_t s = 0; s < 50; ++s) {
    sq.slots.push_back(2 * s);
    SlotEstimateWire e;
    e.slot = 2 * s;
    for (std::size_t b = 0; b < e.estimate.pct.size(); ++b) {
      for (std::size_t p = 0; p < e.estimate.pct[b].size(); ++p) {
        e.estimate.pct[b][p] = 1.0 + 0.01 * static_cast<double>(p * (b + 1) + s);
      }
      e.estimate.counts[b] = static_cast<double>(10 * b + s);
    }
    sr.estimates.push_back(e);
  }
  Codec codec;
  codec.rows = {
      TimeCodec("query_request", sq.query, EncodeQueryRequest, DecodeQueryRequest),
      TimeCodec("shard_query_request", sq, EncodeShardQueryRequest, DecodeShardQueryRequest),
      TimeCodec("shard_query_response", sr, EncodeShardQueryResponse,
                DecodeShardQueryResponse)};
  const Hash128 digest = HashBytes("bench-model", 11);
  volatile std::uint64_t sink = 0;
  codec.key_flows = sq.query.flows.size();
  codec.query_key_us =
      1000.0 * MsPerCall([&] { sink = sink + QueryCacheKey(sq.query, digest).lo; });
  return codec;
}

void PrintCodec(const Codec& codec) {
  std::printf("  \"codec\": {\n");
  for (const CodecRow& r : codec.rows) {
    std::printf("    \"%s\": {\"bytes\": %zu, \"encode_ms\": %.4f, \"decode_ms\": %.4f},\n",
                r.name, r.bytes, r.encode_ms, r.decode_ms);
  }
  std::printf("    \"query_key\": {\"flows\": %zu, \"median_us\": %.2f}\n", codec.key_flows,
              codec.query_key_us);
  std::printf("  }");
}

struct Point {
  int shards = 0;
  double qps = 0.0, p50_ms = 0.0, p99_ms = 0.0;
  int ok = 0, degraded = 0, failed = 0;
};

Point RunLoad(Router& router, const std::vector<QueryRequest>& queries) {
  Point pt;
  std::vector<double> lat;
  lat.reserve(queries.size());
  const WallTimer timer;
  for (const QueryRequest& q : queries) {
    const WallTimer query_timer;
    const QueryResponse resp = router.Query(q);
    lat.push_back(query_timer.Seconds());
    if (resp.status.ok()) {
      pt.ok++;
    } else if (IsAnsweredCode(resp.status.code())) {
      pt.degraded++;
    } else {
      pt.failed++;
    }
  }
  const double wall = timer.Seconds();
  pt.qps = static_cast<double>(queries.size()) / wall;
  pt.p50_ms = NearestRankMs(lat, 50);
  pt.p99_ms = NearestRankMs(lat, 99);
  return pt;
}

}  // namespace
}  // namespace m3::serve

int main(int argc, char** argv) {
  using namespace m3;
  using namespace m3::serve;

  if (argc == 2 && std::string(argv[1]) == "codec") {
    const Codec codec = RunCodec();
    std::printf("{\n  \"bench\": \"distributed\",\n  \"cores\": %u,\n",
                std::thread::hardware_concurrency());
    PrintCodec(codec);
    std::printf("\n}\n");
    return 0;
  }
  // Before the fleet is forked: the children must not inherit its buffers.
  const Codec codec = RunCodec();

  const int queries = argc > 1 ? std::atoi(argv[1]) : 10;
  const int flows_per_query = argc > 2 ? std::atoi(argv[2]) : 1200 * bench::Scale();
  const int paths = argc > 3 ? std::atoi(argv[3]) : 24;
  const int num_shards = argc > 4 ? std::atoi(argv[4]) : 4;
  if (queries < 1 || flows_per_query < 1 || paths < 2 || num_shards < 2 ||
      num_shards > 64) {
    std::fprintf(stderr,
                 "usage: micro_distributed [queries>=1] [flows>=1] [paths>=2] "
                 "[shards in 2..64]\n");
    return 2;
  }

  const std::string tag = "/tmp/m3_distributed_bench." + std::to_string(getpid());
  const std::string ckpt = tag + ".ckpt";
  {
    M3Model model(BenchModel());
    model.Save(ckpt);
  }

  // Fork the whole fleet before any parent threads exist (routers come
  // later): forking a multithreaded process can strand locked mutexes in
  // the child.
  std::vector<std::string> socks;
  std::vector<pid_t> pids;
  std::fflush(stdout);
  for (int i = 0; i < num_shards; ++i) {
    const std::string sock = tag + ".shard" + std::to_string(i) + ".sock";
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 7;
    }
    if (pid == 0) RunShard(ckpt, sock);  // never returns
    socks.push_back(sock);
    pids.push_back(pid);
  }
  const auto cleanup = [&](bool kill_all) {
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (pids[i] > 0) kill(pids[i], kill_all ? SIGKILL : SIGTERM);
    }
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (pids[i] > 0) waitpid(pids[i], nullptr, 0);
    }
    for (const std::string& s : socks) unlink(s.c_str());
    unlink(ckpt.c_str());
  };

  // Wait until every shard accepts connections.
  for (const std::string& s : socks) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = s;
    const WallTimer timer;
    for (;;) {
      if (ConnectEndpoint(ep, 0.2).ok()) break;
      if (timer.Seconds() > 15.0) {
        std::fprintf(stderr, "micro_distributed: shard at %s never came up\n", s.c_str());
        cleanup(true);
        return 7;
      }
      usleep(50 * 1000);
    }
  }

  const FatTree ft(LargeTopo());
  std::printf("# topology: %d racks, %d hosts; %d flows x %d paths per query\n",
              ft.num_racks(), ft.num_hosts(), flows_per_query, paths);
  std::fflush(stdout);

  // Scaling points: 1, 2, 4, ... up to the fleet size (always including it).
  std::vector<int> points;
  for (int n = 1; n < num_shards; n *= 2) points.push_back(n);
  points.push_back(num_shards);

  // Distinct workload seeds everywhere: every query is a cold compute (no
  // shard-side cache hits flattering the bigger fleets).
  std::uint64_t seed = 7000;
  std::vector<Point> scaling;
  for (int n : points) {
    std::vector<QueryRequest> qs;
    for (int i = 0; i < queries; ++i) {
      qs.push_back(MakeQuery(ft, flows_per_query, paths, seed++));
    }
    Router router(FleetOptions(socks, static_cast<std::size_t>(n)));
    if (Status st = router.Start(); !st.ok()) {
      std::fprintf(stderr, "micro_distributed: %s\n", st.ToString().c_str());
      cleanup(true);
      return 7;
    }
    Point pt = RunLoad(router, qs);
    pt.shards = n;
    router.Stop();
    scaling.push_back(pt);
    std::printf("# %d shard(s): %.2f qps, p99 %.1f ms (%d ok, %d degraded, %d failed)\n",
                pt.shards, pt.qps, pt.p99_ms, pt.ok, pt.degraded, pt.failed);
    std::fflush(stdout);
  }

  // Chaos point: full fleet, SIGKILL one shard a third of the way in. The
  // router must keep answering every query (rerouted or flowSim fallback).
  std::vector<QueryRequest> chaos_qs;
  const int chaos_queries = std::max(queries * 2, 6);
  for (int i = 0; i < chaos_queries; ++i) {
    chaos_qs.push_back(MakeQuery(ft, flows_per_query, paths, seed++));
  }
  Point chaos;
  {
    Router router(FleetOptions(socks, socks.size()));
    if (Status st = router.Start(); !st.ok()) {
      std::fprintf(stderr, "micro_distributed: %s\n", st.ToString().c_str());
      cleanup(true);
      return 7;
    }
    std::vector<double> lat;
    const int kill_at = chaos_queries / 3;
    const WallTimer timer;
    for (int i = 0; i < chaos_queries; ++i) {
      if (i == kill_at) {
        kill(pids.back(), SIGKILL);
        waitpid(pids.back(), nullptr, 0);
        pids.back() = -1;
      }
      const WallTimer query_timer;
      const QueryResponse resp = router.Query(chaos_qs[static_cast<std::size_t>(i)]);
      lat.push_back(query_timer.Seconds());
      if (resp.status.ok()) {
        chaos.ok++;
      } else if (IsAnsweredCode(resp.status.code())) {
        chaos.degraded++;
      } else {
        chaos.failed++;
      }
    }
    chaos.shards = num_shards;
    chaos.qps = static_cast<double>(chaos_queries) / timer.Seconds();
    chaos.p50_ms = NearestRankMs(lat, 50);
    chaos.p99_ms = NearestRankMs(lat, 99);
    router.Stop();
  }
  std::printf("# chaos (%d shards, 1 SIGKILLed): p99 %.1f ms (%d ok, %d degraded, %d failed)\n",
              chaos.shards, chaos.p99_ms, chaos.ok, chaos.degraded, chaos.failed);

  cleanup(false);

  std::printf("{\n");
  std::printf("  \"bench\": \"distributed\",\n");
  // cores matters for reading the scaling points: shards on one box share
  // the CPU, so the speedup ceiling is min(shards, cores) — on a 1-core
  // host the 1->N points isolate pure scatter-gather overhead instead.
  std::printf("  \"config\": {\"queries_per_point\": %d, \"flows_per_query\": %d, "
              "\"paths\": %d, \"shards\": %d, \"racks\": %d, \"hosts\": %d, "
              "\"cores\": %u},\n",
              queries, flows_per_query, paths, num_shards, ft.num_racks(), ft.num_hosts(),
              std::thread::hardware_concurrency());
  std::printf("  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const Point& p = scaling[i];
    std::printf("    {\"shards\": %d, \"qps\": %.2f, \"p50_ms\": %.2f, \"p99_ms\": %.2f, "
                "\"ok\": %d, \"degraded\": %d, \"failed\": %d}%s\n",
                p.shards, p.qps, p.p50_ms, p.p99_ms, p.ok, p.degraded, p.failed,
                i + 1 < scaling.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"chaos_one_shard_killed\": {\"shards\": %d, \"qps\": %.2f, "
              "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"ok\": %d, \"degraded\": %d, "
              "\"failed\": %d}",
              chaos.shards, chaos.qps, chaos.p50_ms, chaos.p99_ms, chaos.ok,
              chaos.degraded, chaos.failed);
  std::printf(",\n");
  PrintCodec(codec);
  std::printf("\n}\n");

  // The contract this bench tracks: shard loss degrades, never fails.
  return chaos.failed == 0 ? 0 : 1;
}
