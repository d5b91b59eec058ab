// Serving-throughput microbenchmark: cold (compute) vs warm (content-
// addressed cache hit) queries through the in-process EstimationService.
//
// One untimed warm-up query (a seed of its own) first pays the lazy pool
// and workspace setup. Cold queries then run on the calling thread
// (ExecuteInline) and fill the query cache; warm queries resend them
// through Query(), which answers a hit on the calling thread. Each phase's
// qps is 1 / its median latency, so one slow query does not set it.
//
// Emits JSON on stdout; the checked-in snapshot lives in
// BENCH_serve_throughput.json. The service contract this tracks: a warm
// query-cache hit must be at least ~5x faster than a cold m3_query-style
// compute (in practice it is orders of magnitude faster).
//
//   ./micro_serve_throughput [num_queries] [flows_per_query] [paths]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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
  for (int i = 0; i < n; ++i) {
    const auto q0 = Clock::now();
    run_one(i);
    lat.push_back(SecondsSince(q0));
  }
  Phase ph;
  ph.p50_ms = PercentileMs(lat, 50);
  ph.p99_ms = PercentileMs(lat, 99);
  ph.qps = 1000.0 / ph.p50_ms;
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

  ServiceOptions so;
  so.model_config = BenchModel();
  so.threads_per_query = 0;  // single caller: give each query the full pool
  EstimationService service(so);
  if (Status st = service.ReloadModel(ckpt); !st.ok()) {
    std::fprintf(stderr, "micro_serve_throughput: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = service.Start(); !st.ok()) {
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
  const auto check = [&failures](const QueryResponse& resp) {
    if (!resp.status.ok()) ++failures;
  };
  check(service.ExecuteInline(MakeQuery(ft, flows_per_query, paths, 999)));

  // Cold: every query is a first sight — full compute, caches filling.
  const Phase cold = TimeQueries(num_queries, [&](int i) {
    check(service.ExecuteInline(queries[static_cast<std::size_t>(i)]));
  });
  // Warm: identical queries — whole-query cache hits.
  const Phase warm = TimeQueries(num_queries, [&](int i) {
    check(service.Query(queries[static_cast<std::size_t>(i)]));
  });
  const ServerStatsWire s = service.Stats();
  service.Stop();

  if (failures > 0) {
    std::fprintf(stderr, "micro_serve_throughput: %d queries failed\n", failures);
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"serve_throughput\",\n");
  std::printf("  \"config\": {\"queries\": %d, \"flows_per_query\": %d, \"paths\": %d},\n",
              num_queries, flows_per_query, paths);
  std::printf("  \"cold\":       {\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f},\n",
              cold.qps, cold.p50_ms, cold.p99_ms);
  std::printf("  \"warm\":       {\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f},\n",
              warm.qps, warm.p50_ms, warm.p99_ms);
  std::printf("  \"warm_over_cold\": %.1f,\n", warm.qps / cold.qps);
  std::printf("  \"query_cache\": {\"hits\": %llu, \"misses\": %llu, \"entries\": %llu}\n",
              static_cast<unsigned long long>(s.query_cache[0]),
              static_cast<unsigned long long>(s.query_cache[1]),
              static_cast<unsigned long long>(s.query_cache[4]));
  std::printf("}\n");
  return 0;
}
