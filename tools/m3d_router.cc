// m3d-router: the scatter-gather front-end of a sharded m3d fleet.
//
// Speaks the same client-facing protocol as m3d (query / stats / ping),
// but instead of computing, it answers exact repeats from its query cache,
// consistent-hashes every other query's sample slots to backend shards by
// (query key, slot), scatters ShardQueryRequests, and merges the partial
// estimates into one answer. See serve/router.h for the
// placement and degradation-ladder design, DESIGN.md §12 for the
// architecture.
//
// A router answers every query it can parse: shard failures degrade the
// answer (retry on the next ring replica -> router-side flowSim fallback
// -> reweighted drop, all attributed per-shard in the response), they
// never fail it.
//
// Exit codes: 0 clean shutdown, 2 usage, 3 bad shard spec, 9 cannot
// bind/serve.
#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/router.h"
#include "serve/server.h"
#include "tools/cli.h"

using namespace m3;
using namespace m3::serve;
using m3::cli::ExitCodeFor;

namespace {

constexpr const char* kUsage =
    "Usage: m3d_router --shard SPEC [--shard SPEC ...] [options]\n"
    "\n"
    "  --shard SPEC         backend m3d endpoint: tcp:HOST:PORT, unix:/path,\n"
    "                       or a bare socket path (repeat per shard; required)\n"
    "  --listen SPEC        endpoint to serve clients on (/tmp/m3d-router.sock)\n"
    "  --replicas N         ring replicas tried per slot, >= 1       (2)\n"
    "  --vnodes N           ring points per shard, >= 1              (64)\n"
    "  --shard-timeout S    per-sub-request answer bound, seconds    (30)\n"
    "  --connect-timeout S  per-shard connect bound, seconds         (2)\n"
    "  --health-interval S  liveness probe period, seconds           (0.5)\n"
    "  --fallback-threads N flowSim fallback threads, 0 = all        (0)\n"
    "  --pool N             idle connections kept per shard          (4)\n"
    "  --query-cache N      whole-query cache entries, consulted\n"
    "                       before anything else, >= 0               (256)\n"
    "  --help               show this message\n"
    "\n"
    "Slots are placed by hashing (query key, slot), so one query spreads\n"
    "over the fleet; the router never decomposes a query, and the shards\n"
    "validate it. An exact repeat is answered from the query cache while\n"
    "the fleet serves the model it was computed with. A fault-free\n"
    "scattered answer is bitwise identical to a single m3d's.\n"
    "\n"
    "A shard is skipped while its last probe failed. A slot whose shard\n"
    "fails or refuses goes at once to its next ring replica; a slot no\n"
    "replica serves gets a router-side flowSim estimate, then is dropped.\n";

constexpr cli::Tool kTool{"m3d_router", kUsage};

std::atomic<int> g_signal{0};
void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  std::string listen_spec = "/tmp/m3d-router.sock";
  RouterOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (key.rfind("--", 0) != 0) kTool.UsageError("unexpected argument '" + key + "'");
    const auto v = [&] { return kTool.Value(argc, argv, i++); };
    if (key == "--shard") opts.shards.emplace_back(v());
    else if (key == "--listen") listen_spec = v();
    else if (key == "--replicas") opts.replicas = kTool.ParseInt<int>(key, v(), 1, 64);
    else if (key == "--vnodes") opts.vnodes = kTool.ParseInt<int>(key, v(), 1, 4096);
    else if (key == "--shard-timeout") opts.shard_timeout_seconds = kTool.ParseSeconds(key, v(), 0.0);
    else if (key == "--connect-timeout") opts.connect_timeout_seconds = kTool.ParseSeconds(key, v(), 0.0);
    else if (key == "--health-interval") opts.health_interval_seconds = kTool.ParseSeconds(key, v(), 0.01);
    else if (key == "--fallback-threads") opts.fallback_threads = kTool.ParseInt<unsigned>(key, v(), 0, 1024);
    else if (key == "--pool") opts.pool_per_shard = kTool.ParseInt<std::size_t>(key, v(), 0, 1024);
    else if (key == "--query-cache") opts.query_cache_entries = kTool.ParseInt<std::size_t>(key, v(), 0, 1 << 24);
    else kTool.UsageError("unknown flag '" + key + "'");
  }
  if (opts.shards.empty()) kTool.UsageError("at least one --shard is required");

  StatusOr<Endpoint> listen_ep = ParseEndpoint(listen_spec);
  if (!listen_ep.ok()) {
    std::fprintf(stderr, "m3d_router: bad --listen: %s\n",
                 listen_ep.status().ToString().c_str());
    return 2;
  }

  Router router(opts);
  if (Status st = router.Start(); !st.ok()) {
    std::fprintf(stderr, "m3d_router: %s\n", st.ToString().c_str());
    return ExitCodeFor(st.code());
  }

  // Client-facing hooks: query/stats/ping route to the Router; reload and
  // shard_query stay empty — a router neither owns a model nor serves as a
  // shard, and the SocketServer answers those with a clean kUnavailable.
  ServerHooks hooks;
  hooks.query = [&router](const QueryRequest& req) { return router.Query(req); };
  hooks.stats = [&router] { return router.Stats(); };
  hooks.ping = [&router] { return router.Ping(); };
  SocketServer server(std::move(hooks));
  if (Status st = server.Start(*listen_ep); !st.ok()) {
    std::fprintf(stderr, "m3d_router: %s\n", st.ToString().c_str());
    router.Stop();
    return ExitCodeFor(st.code());
  }

  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  const ServerStatsWire boot = router.Stats();
  std::uint32_t healthy = 0;
  for (const ShardHealthWire& s : boot.shards) healthy += s.healthy ? 1 : 0;
  std::printf("m3d_router: serving on %s — %zu shard(s), %u healthy at boot; "
              "%d replica(s), %d vnodes\n",
              listen_ep->ToString().c_str(), router.num_shards(), healthy,
              opts.replicas, opts.vnodes);
  for (const ShardHealthWire& s : boot.shards) {
    std::printf("m3d_router:   shard %s — %s\n", s.address.c_str(),
                s.healthy ? "healthy" : "unreachable");
  }
  std::fflush(stdout);

  while (g_signal.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("m3d_router: received %s, shutting down...\n",
              g_signal.load(std::memory_order_relaxed) == SIGINT ? "SIGINT"
                                                                 : "SIGTERM");
  server.Stop();
  router.Stop();
  std::printf("m3d_router: final counters:\n%s", FormatStatsText(router.Stats()).c_str());
  return 0;
}
