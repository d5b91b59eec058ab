// m3d: the long-running m3 estimation daemon.
//
// Loads a model checkpoint into the ModelRegistry, starts the scheduler
// workers and the query cache, and serves the serve/wire.h protocol on a
// Unix-domain socket until SIGINT/SIGTERM. Clients (tools/m3_client, or
// anything speaking the framed protocol) submit query / stats / hot-reload
// requests; see DESIGN.md §9.
//
// Exit codes: 0 clean shutdown, 2 usage, 4 model not found, 5 model
// corrupt, 9 cannot bind/serve.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "serve/server.h"
#include "serve/service.h"

using namespace m3;
using namespace m3::serve;

namespace {

constexpr const char* kUsage =
    "Usage: m3d [options]\n"
    "\n"
    "  --socket PATH       Unix-domain socket to serve on   (/tmp/m3d.sock)\n"
    "  --listen-tcp SPEC   also serve TCP on PORT or HOST:PORT (off)\n"
    "                      (a bare PORT binds all interfaces; this is how a\n"
    "                      daemon joins an m3d-router shard fleet)\n"
    "  --model PATH        checkpoint to serve              (models/m3_default.ckpt)\n"
    "  --workers N         supervised worker subprocesses   (2; 0 = in-process)\n"
    "  --queue N           request queue capacity, >= 1     (64)\n"
    "  --query-cache N     whole-query cache entries, >= 0  (256)\n"
    "  --threads-per-query N   pool threads per query, >= 0 (1; 0 = full pool)\n"
    "  --watchdog SECS     watchdog for deadline-less queries, > 0 (120)\n"
    "  --grace SECS        kill grace past a query deadline, > 0   (2)\n"
    "  --cost-budget C     in-flight admission cost budget, > 0\n"
    "                      (0 = default: (queue + workers) * 128)\n"
    "  --shed-sojourn SECS shed non-critical arrivals once queued work has\n"
    "                      waited this long (CoDel-style; 0 = off)\n"
    "  --brownout MODE     on|off: reduce quality (fewer paths, then\n"
    "                      flowSim) under sustained pressure (on)\n"
    "  --cache-dir PATH    durable cache directory: the query cache is spilled\n"
    "                      here and recovered warm on restart (off). Created\n"
    "                      if missing; locked against sharing by a second\n"
    "                      daemon.\n"
    "  --cache-flush-interval SECS   background cache flush cadence (2)\n"
    "  --help              show this message\n"
    "\n"
    "With --workers N > 0 queries execute in forked worker subprocesses: a\n"
    "crash or hang takes down one worker (respawned with backoff), never the\n"
    "daemon. --workers 0 executes queries in-process.\n"
    "\n"
    "Hot reload: m3_client --reload <checkpoint> swaps the model without\n"
    "dropping in-flight queries; a corrupt checkpoint keeps the old model.\n";

[[noreturn]] void UsageError(const std::string& msg) {
  std::fprintf(stderr, "m3d: %s\n\n%s", msg.c_str(), kUsage);
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

double ParseSeconds(const std::string& key, const char* arg) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || errno == ERANGE || !(v > 0) || v > 86400) {
    UsageError("invalid " + key + " '" + arg + "' (expected seconds in (0, 86400])");
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
  std::string socket_path = "/tmp/m3d.sock";
  std::string listen_tcp;
  std::string model_path = "models/m3_default.ckpt";
  ServiceOptions opts;
  opts.worker_processes = 2;  // daemon default: crash-isolated workers

  for (int i = 1; i < argc;) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (key.rfind("--", 0) != 0) UsageError("unexpected argument '" + key + "'");
    if (i + 1 >= argc) UsageError("missing value for " + key);
    const char* v = argv[i + 1];
    if (key == "--socket") socket_path = v;
    else if (key == "--listen-tcp") listen_tcp = v;
    else if (key == "--model") model_path = v;
    else if (key == "--workers") opts.worker_processes = static_cast<int>(ParseInt(key, v, 0, 256));
    else if (key == "--queue") opts.queue_capacity = static_cast<std::size_t>(ParseInt(key, v, 1, 1 << 20));
    else if (key == "--query-cache") opts.query_cache_entries = static_cast<std::size_t>(ParseInt(key, v, 0, 1 << 24));
    else if (key == "--threads-per-query") opts.threads_per_query = static_cast<unsigned>(ParseInt(key, v, 0, 1024));
    else if (key == "--watchdog") opts.supervisor.default_watchdog_seconds = ParseSeconds(key, v);
    else if (key == "--grace") opts.supervisor.grace_seconds = ParseSeconds(key, v);
    else if (key == "--cost-budget") {
      char* end = nullptr;
      errno = 0;
      const double b = std::strtod(v, &end);
      if (end == v || *end != '\0' || errno == ERANGE || b < 0) {
        UsageError("invalid --cost-budget '" + std::string(v) + "' (expected >= 0)");
      }
      opts.cost_budget = b;
    } else if (key == "--shed-sojourn") {
      opts.shed_sojourn_seconds = std::strcmp(v, "0") == 0 ? 0.0 : ParseSeconds(key, v);
    } else if (key == "--brownout") {
      if (std::strcmp(v, "on") == 0) opts.brownout_enabled = true;
      else if (std::strcmp(v, "off") == 0) opts.brownout_enabled = false;
      else UsageError("invalid --brownout '" + std::string(v) + "' (expected on|off)");
    }
    else if (key == "--cache-dir") opts.cache_dir = v;
    else if (key == "--cache-flush-interval") opts.cache_flush_interval_seconds = ParseSeconds(key, v);
    else UsageError("unknown flag '" + key + "'");
    i += 2;
  }
  // One scheduler thread per worker subprocess keeps the pool saturated
  // without queueing inside the supervisor's lease wait.
  opts.num_workers = std::max(1, opts.worker_processes);

  // --listen-tcp accepts a bare port (bind all interfaces) or HOST:PORT.
  Endpoint tcp_ep;
  if (!listen_tcp.empty()) {
    tcp_ep.kind = Endpoint::Kind::kTcp;
    const std::size_t colon = listen_tcp.rfind(':');
    const std::string port_str =
        colon == std::string::npos ? listen_tcp : listen_tcp.substr(colon + 1);
    if (colon != std::string::npos) tcp_ep.host = listen_tcp.substr(0, colon);
    tcp_ep.port = static_cast<std::uint16_t>(
        ParseInt("--listen-tcp", port_str.c_str(), 1, 65535));
  }

  EstimationService service(opts);
  if (Status st = service.ReloadModel(model_path); !st.ok()) {
    std::fprintf(stderr, "m3d: %s\n", st.ToString().c_str());
    if (st.code() == StatusCode::kNotFound) {
      std::fprintf(stderr, "m3d: run tools/train_m3 first to produce %s\n",
                   model_path.c_str());
    }
    return ExitCodeFor(st.code());
  }
  const ServerStatsWire boot = service.Stats();
  if (Status st = service.Start(); !st.ok()) {
    std::fprintf(stderr, "m3d: %s\n", st.ToString().c_str());
    return ExitCodeFor(st.code());
  }

  SocketServer server(service);
  if (Status st = server.Start(socket_path); !st.ok()) {
    std::fprintf(stderr, "m3d: %s\n", st.ToString().c_str());
    service.Stop();
    return ExitCodeFor(st.code());
  }
  if (!listen_tcp.empty()) {
    if (Status st = server.Start(tcp_ep); !st.ok()) {
      std::fprintf(stderr, "m3d: %s\n", st.ToString().c_str());
      server.Stop();
      service.Stop();
      return ExitCodeFor(st.code());
    }
  }

  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  if (opts.worker_processes > 0) {
    std::printf("m3d: serving %s (model v%llu crc %08x) on %s — %d worker processes "
                "(supervised), queue %zu, query cache %zu\n",
                model_path.c_str(), static_cast<unsigned long long>(boot.model_version),
                boot.model_crc, socket_path.c_str(), opts.worker_processes,
                opts.queue_capacity, opts.query_cache_entries);
  } else {
    std::printf("m3d: serving %s (model v%llu crc %08x) on %s — in-process, %d scheduler "
                "threads, queue %zu, query cache %zu\n",
                model_path.c_str(), static_cast<unsigned long long>(boot.model_version),
                boot.model_crc, socket_path.c_str(), opts.num_workers, opts.queue_capacity,
                opts.query_cache_entries);
  }
  if (!listen_tcp.empty()) {
    std::printf("m3d: also listening on %s\n", tcp_ep.ToString().c_str());
  }
  if (!opts.cache_dir.empty()) {
    std::printf("m3d: durable caches in %s (flush every %.3gs), recovering in background\n",
                opts.cache_dir.c_str(), opts.cache_flush_interval_seconds);
  }
  std::fflush(stdout);

  while (g_signal.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("m3d: received %s, draining and shutting down...\n",
              g_signal.load(std::memory_order_relaxed) == SIGINT ? "SIGINT" : "SIGTERM");
  server.Stop();
  service.Stop();
  std::printf("m3d: final counters:\n%s", FormatStatsText(service.Stats()).c_str());
  return 0;
}
