// Serving-throughput microbenchmark: cold (compute) vs warm (content-
// addressed cache hit) queries through the in-process EstimationService,
// and the warm-restart point — a fresh service on the same --cache-dir recovering its working set from
// disk (serve/persist.h) instead of recomputing it.
//
// Emits JSON on stdout; the checked-in snapshot lives in
// BENCH_serve_throughput.json. The service contract this tracks: a warm
// query-cache hit must be at least ~5x faster than a cold m3_query-style
// compute (in practice it is orders of magnitude faster), and a recovered
// warm set must serve at warm speed, not cold.
//
//   ./micro_serve_throughput [num_queries] [flows_per_query] [paths]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "serve/service.h"
#include "topo/fat_tree.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3::serve {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PercentileMs(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1,
                       p / 100.0 * static_cast<double>(v.size())));
  return v[idx] * 1000.0;
}

M3ModelConfig BenchModel() {
  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  return mcfg;
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

struct Phase {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

template <typename Fn>
Phase TimeQueries(int n, const Fn& run_one) {
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(n));
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    const auto q0 = Clock::now();
    run_one(i);
    lat.push_back(SecondsSince(q0));
  }
  const double wall = SecondsSince(t0);
  Phase ph;
  ph.qps = static_cast<double>(n) / wall;
  ph.p50_ms = PercentileMs(lat, 50);
  ph.p99_ms = PercentileMs(lat, 99);
  return ph;
}

}  // namespace
}  // namespace m3::serve

int main(int argc, char** argv) {
  using namespace m3;
  using namespace m3::serve;

  const int num_queries = argc > 1 ? std::atoi(argv[1]) : 12;
  const int flows_per_query = argc > 2 ? std::atoi(argv[2]) : 400;
  const int paths = argc > 3 ? std::atoi(argv[3]) : 4;
  if (num_queries < 1 || flows_per_query < 1 || paths < 1) {
    std::fprintf(stderr, "usage: micro_serve_throughput [queries>=1] [flows>=1] [paths>=1]\n");
    return 2;
  }

  const std::string ckpt = "/tmp/m3_serve_bench_model.ckpt";
  {
    M3Model model(BenchModel());
    model.Save(ckpt);
  }

  const std::string cache_dir = "/tmp/m3_serve_bench_cache";
  std::filesystem::remove_all(cache_dir);

  ServiceOptions so;
  so.model_config = BenchModel();
  so.threads_per_query = 0;  // single caller: give each query the full pool
  so.cache_dir = cache_dir;  // durable spill for the warm-restart phase
  so.cache_flush_interval_seconds = 60.0;  // flushed explicitly below
  auto service_ptr = std::make_unique<EstimationService>(so);
  EstimationService& service = *service_ptr;
  if (Status st = service.ReloadModel(ckpt); !st.ok()) {
    std::fprintf(stderr, "micro_serve_throughput: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = service.Start(); !st.ok()) {  // starts the persister
    std::fprintf(stderr, "micro_serve_throughput: %s\n", st.ToString().c_str());
    return 1;
  }

  const FatTree ft(FatTreeConfig::Small(2.0));
  std::vector<QueryRequest> queries;
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(MakeQuery(ft, flows_per_query, paths,
                                1000 + static_cast<std::uint64_t>(i)));
  }

  int failures = 0;
  const auto run = [&](int i) {
    const QueryResponse resp = service.ExecuteInline(queries[static_cast<std::size_t>(i)]);
    if (!resp.status.ok()) ++failures;
  };

  // Cold: every query is a first sight — full compute, caches filling.
  const Phase cold = TimeQueries(num_queries, run);
  // Warm: identical queries — whole-query cache hits.
  const Phase warm = TimeQueries(num_queries, run);
  const ServerStatsWire s = service.Stats();

  // Warm restart: spill the working set, tear the service down, and bring
  // up a fresh one on the same cache directory. Its first pass over the
  // same queries is served from the recovered caches.
  if (Status st = service.FlushPersistNow(); !st.ok()) {
    std::fprintf(stderr, "micro_serve_throughput: flush: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::uint64_t entries_flushed = service.Stats().persist_entries_flushed;
  service.Stop();
  service_ptr.reset();  // releases the cache-dir lock

  EstimationService restarted(so);
  if (Status st = restarted.ReloadModel(ckpt); !st.ok()) {
    std::fprintf(stderr, "micro_serve_throughput: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = restarted.Start(); !st.ok()) {
    std::fprintf(stderr, "micro_serve_throughput: %s\n", st.ToString().c_str());
    return 1;
  }
  restarted.WaitForPersistRecovery();
  const Phase warm_restart = TimeQueries(num_queries, [&](int i) {
    const QueryResponse resp =
        restarted.ExecuteInline(queries[static_cast<std::size_t>(i)]);
    if (!resp.status.ok()) ++failures;
  });
  const ServerStatsWire rs = restarted.Stats();
  restarted.Stop();

  if (failures > 0) {
    std::fprintf(stderr, "micro_serve_throughput: %d queries failed\n", failures);
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"serve_throughput\",\n");
  std::printf("  \"config\": {\"queries\": %d, \"flows_per_query\": %d, \"paths\": %d},\n",
              num_queries, flows_per_query, paths);
  std::printf("  \"cold\":       {\"qps\": %.2f, \"p50_ms\": %.2f, \"p99_ms\": %.2f},\n",
              cold.qps, cold.p50_ms, cold.p99_ms);
  std::printf("  \"warm\":       {\"qps\": %.2f, \"p50_ms\": %.2f, \"p99_ms\": %.2f},\n",
              warm.qps, warm.p50_ms, warm.p99_ms);
  std::printf("  \"warm_restart\": {\"qps\": %.2f, \"p50_ms\": %.2f, \"p99_ms\": %.2f},\n",
              warm_restart.qps, warm_restart.p50_ms, warm_restart.p99_ms);
  std::printf("  \"warm_over_cold\": %.1f,\n", warm.qps / cold.qps);
  std::printf("  \"warm_restart_over_cold\": %.1f,\n", warm_restart.qps / cold.qps);
  std::printf("  \"persist\": {\"entries_flushed\": %llu, \"entries_loaded\": %llu, "
              "\"records_corrupt\": %llu},\n",
              static_cast<unsigned long long>(entries_flushed),
              static_cast<unsigned long long>(rs.persist_entries_loaded),
              static_cast<unsigned long long>(rs.persist_records_corrupt));
  std::printf("  \"query_cache\": {\"hits\": %llu, \"misses\": %llu, \"entries\": %llu}\n",
              static_cast<unsigned long long>(s.query_cache[0]),
              static_cast<unsigned long long>(s.query_cache[1]),
              static_cast<unsigned long long>(s.query_cache[4]));
  std::printf("}\n");
  return 0;
}
