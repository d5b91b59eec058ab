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
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/router.h"
#include "serve/server.h"

using namespace m3;
using namespace m3::serve;

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

[[noreturn]] void UsageError(const std::string& msg) {
  std::fprintf(stderr, "m3d_router: %s\n\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

long ParseInt(const std::string& key, const char* arg, long min, long max) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || v < min || v > max) {
    UsageError("invalid " + key + " '" + arg + "' (expected integer in [" +
               std::to_string(min) + ", " + std::to_string(max) + "])");
  }
  return v;
}

double ParseSeconds(const std::string& key, const char* arg, double min = 0.0) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || errno == ERANGE || !(v >= min) || v > 86400) {
    UsageError("invalid " + key + " '" + arg + "' (expected seconds in [" +
               std::to_string(min) + ", 86400])");
  }
  return v;
}

std::atomic<int> g_signal{0};
void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 3;
    case StatusCode::kNotFound: return 4;
    case StatusCode::kDataLoss: return 5;
    case StatusCode::kDeadlineExceeded: return 6;
    case StatusCode::kInternal: return 7;
    case StatusCode::kDegraded: return 8;
    case StatusCode::kUnavailable: return 9;
    case StatusCode::kResourceExhausted: return 10;
  }
  return 7;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_spec = "/tmp/m3d-router.sock";
  RouterOptions opts;

  for (int i = 1; i < argc;) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (key.rfind("--", 0) != 0) UsageError("unexpected argument '" + key + "'");
    if (i + 1 >= argc) UsageError("missing value for " + key);
    const char* v = argv[i + 1];
    if (key == "--shard") opts.shards.emplace_back(v);
    else if (key == "--listen") listen_spec = v;
    else if (key == "--replicas") opts.replicas = static_cast<int>(ParseInt(key, v, 1, 64));
    else if (key == "--vnodes") opts.vnodes = static_cast<int>(ParseInt(key, v, 1, 4096));
    else if (key == "--shard-timeout") opts.shard_timeout_seconds = ParseSeconds(key, v);
    else if (key == "--connect-timeout") opts.connect_timeout_seconds = ParseSeconds(key, v);
    else if (key == "--health-interval") opts.health_interval_seconds = ParseSeconds(key, v, 0.01);
    else if (key == "--fallback-threads") opts.fallback_threads = static_cast<unsigned>(ParseInt(key, v, 0, 1024));
    else if (key == "--pool") opts.pool_per_shard = static_cast<std::size_t>(ParseInt(key, v, 0, 1024));
    else if (key == "--query-cache") opts.query_cache_entries = static_cast<std::size_t>(ParseInt(key, v, 0, 1 << 24));
    else UsageError("unknown flag '" + key + "'");
    i += 2;
  }
  if (opts.shards.empty()) UsageError("at least one --shard is required");

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
