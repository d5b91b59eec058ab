// m3_client: query the m3d daemon over its Unix-domain socket.
//
// Three modes:
//   query (default)  — build a scenario (same flags as m3_query), send it,
//                      print the slowdown table plus serving metadata
//                      (model version, cache hit, daemon-side wall time)
//   --stats          — print the daemon's counters and cache statistics
//   --reload PATH    — hot-swap the serving checkpoint; on failure the old
//                      model keeps serving and the error is printed
//   --ping           — liveness/readiness probe: exit 0 once the daemon is
//                      serving (model loaded; in worker mode, >= 1 worker
//                      alive), 9 when up but not ready, 4 when unreachable
//
// Retries: transient failures (kUnavailable, kResourceExhausted) are
// retried up to --retries times with exponential backoff + jitter,
// reconnecting when the transport broke; a --deadline bounds the total
// retry budget. Connects and reads are timeout-guarded, so a wedged daemon
// surfaces as kDeadlineExceeded instead of a hang.
//
// Load generation: --concurrency N --repeat M sends the query N*M times
// over N parallel connections and reports throughput, p50/p99 latency,
// retry/reconnect counts, and the failed-query count (non-zero failures ->
// non-zero exit).
//
// Exit codes (tools/cli.h); 10 = RESOURCE_EXHAUSTED means the daemon's
// admission control rejected the query: back off and retry.
//   0 OK   2 usage   3 INVALID_ARGUMENT   4 NOT_FOUND   5 DATA_LOSS
//   6 DEADLINE_EXCEEDED   7 INTERNAL   8 DEGRADED   9 UNAVAILABLE
//   10 RESOURCE_EXHAUSTED
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.h"
#include "tools/cli.h"
#include "topo/fat_tree.h"
#include "util/socket.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/trace_io.h"

using namespace m3;
using namespace m3::serve;
using m3::cli::ExitCodeFor;

namespace {

constexpr const char* kUsage =
    "Usage: m3_client [options]\n"
    "\n"
    "Connection:\n"
    "  --socket SPEC            m3d / m3d-router endpoint   (/tmp/m3d.sock)\n"
    "                           (unix:/path, tcp:host:port, or a bare path)\n"
    "\n"
    "Admin:\n"
    "  --stats                  print daemon counters and exit\n"
    "  --reload PATH            hot-swap the serving checkpoint and exit\n"
    "  --ping                   readiness probe: 0 ready, 9 not ready, 4 down\n"
    "\n"
    "Scenario (generated client-side, same semantics as m3_query):\n"
    "  --tm A|B|C               traffic matrix                     (B)\n"
    "  --workload NAME          WebServer|CacheFollower|Hadoop     (WebServer)\n"
    "  --oversub F              fat-tree oversubscription, > 0     (2)\n"
    "  --load F                 target max link load, (0, 1]      (0.5)\n"
    "  --sigma F                burstiness sigma, >= 0             (1.5)\n"
    "  --flows N                foreground flows, >= 1             (20000)\n"
    "  --trace FILE             load flows from an m3-trace file\n"
    "  --cc NAME                DCTCP|TIMELY|DCQCN|HPCC            (DCTCP)\n"
    "  --window BYTES           initial window, > 0                (15000)\n"
    "  --buffer BYTES           per-port buffer, > 0               (300000)\n"
    "  --pfc 0|1                enable PFC                         (0)\n"
    "\n"
    "Estimation:\n"
    "  --paths N                sampled paths, >= 1                (100)\n"
    "  --seed N                 path sampling seed                 (1)\n"
    "  --percentile P           reported percentile, [1, 100]      (99)\n"
    "  --strict                 fail on the first path fault\n"
    "  --deadline SECONDS       daemon-side wall-clock budget\n"
    "  --priority CLASS         background|normal|interactive|critical or 0-3\n"
    "                           (normal; the daemon runs higher classes first)\n"
    "  --no-cache               bypass the daemon's result cache\n"
    "\n"
    "Resilience:\n"
    "  --retries N              retries of transient failures, >= 0  (4)\n"
    "                           (UNAVAILABLE / RESOURCE_EXHAUSTED; exponential\n"
    "                           backoff with jitter, bounded by --deadline)\n"
    "  --connect-timeout SECS   give up connecting after this long    (5)\n"
    "\n"
    "Load generation:\n"
    "  --concurrency N          parallel connections, >= 1         (1)\n"
    "  --repeat N               queries per connection, >= 1       (1)\n"
    "  --json                   print the load-gen summary (or, with --stats,\n"
    "                           the server stats) as one JSON line\n"
    "                           (answered/degraded/shed/rejected/failed\n"
    "                           counts, latency percentiles — for harnesses\n"
    "                           and check.sh; answered + shed + failed = total)\n"
    "  --help                   show this message\n";

constexpr cli::Tool kTool{"m3_client", kUsage};

struct Args {
  std::string socket_path = "/tmp/m3d.sock";
  bool stats = false;
  bool ping = false;
  std::string reload;
  std::string tm = "B";
  std::string workload = "WebServer";
  double oversub = 2.0;
  double load = 0.5;
  double sigma = 1.5;
  int flows = 20000;
  std::string trace;
  std::string cc = "DCTCP";
  Bytes window = 15 * kKB;
  Bytes buffer = 300 * kKB;
  bool pfc = false;
  int paths = 100;
  long seed = 1;
  double percentile = 99.0;
  bool strict = false;
  double deadline = 0.0;
  int priority = static_cast<int>(Priority::kNormal);
  bool no_cache = false;
  int retries = 4;
  double connect_timeout = 5.0;
  int concurrency = 1;
  int repeat = 1;
  bool json = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (key == "--strict") { a.strict = true; continue; }
    if (key == "--no-cache") { a.no_cache = true; continue; }
    if (key == "--stats") { a.stats = true; continue; }
    if (key == "--ping") { a.ping = true; continue; }
    if (key == "--json") { a.json = true; continue; }
    if (key.rfind("--", 0) != 0) kTool.UsageError("unexpected argument '" + key + "'");
    const auto v = [&] { return kTool.Value(argc, argv, i++); };
    if (key == "--socket") a.socket_path = v();
    else if (key == "--reload") a.reload = v();
    else if (key == "--tm") a.tm = v();
    else if (key == "--workload") a.workload = v();
    else if (key == "--oversub") a.oversub = kTool.ParseDouble(key, v(), 0.0625, 64.0);
    else if (key == "--load") a.load = kTool.ParseDouble(key, v(), 1e-6, 1.0);
    else if (key == "--sigma") a.sigma = kTool.ParseDouble(key, v(), 0.0, 100.0);
    else if (key == "--flows") a.flows = kTool.ParseInt<int>(key, v(), 1, 100'000'000);
    else if (key == "--trace") a.trace = v();
    else if (key == "--cc") a.cc = v();
    else if (key == "--window") a.window = kTool.ParseInt(key, v(), 1, 1'000'000'000);
    else if (key == "--buffer") a.buffer = kTool.ParseInt(key, v(), 1, 1'000'000'000);
    else if (key == "--pfc") a.pfc = kTool.ParseInt(key, v(), 0, 1) != 0;
    else if (key == "--paths") a.paths = kTool.ParseInt<int>(key, v(), 1, 10'000'000);
    else if (key == "--seed") a.seed = kTool.ParseInt(key, v(), 0, 1'000'000'000);
    else if (key == "--percentile") a.percentile = kTool.ParseDouble(key, v(), 1.0, 100.0);
    else if (key == "--deadline") a.deadline = kTool.ParseDouble(key, v(), 0.0, 1e9);
    else if (key == "--priority") {
      const std::string pv = v();
      if (pv == "background" || pv == "0") a.priority = 0;
      else if (pv == "normal" || pv == "1") a.priority = 1;
      else if (pv == "interactive" || pv == "2") a.priority = 2;
      else if (pv == "critical" || pv == "3") a.priority = 3;
      else kTool.UsageError("invalid --priority '" + pv +
                            "' (expected background|normal|interactive|critical or 0-3)");
    }
    else if (key == "--retries") a.retries = kTool.ParseInt<int>(key, v(), 0, 100);
    else if (key == "--connect-timeout") a.connect_timeout = kTool.ParseSeconds(key, v(), 0.0);
    else if (key == "--concurrency") a.concurrency = kTool.ParseInt<int>(key, v(), 1, 4096);
    else if (key == "--repeat") a.repeat = kTool.ParseInt<int>(key, v(), 1, 1'000'000);
    else kTool.UsageError("unknown flag '" + key + "'");
  }
  return a;
}

StatusOr<UnixFd> Connect(const Args& a) {
  StatusOr<Endpoint> ep = ParseEndpoint(a.socket_path);
  if (!ep.ok()) return ep.status().Annotate("parsing --socket");
  StatusOr<UnixFd> fd = ConnectEndpoint(*ep, a.connect_timeout);
  if (!fd.ok()) {
    if (fd.status().code() == StatusCode::kNotFound) {
      return fd.status().Annotate("is m3d running? start it with: m3d --socket " +
                                  a.socket_path);
    }
    return fd;
  }
  // A wedged daemon must surface as kDeadlineExceeded, never a hung read.
  // With a query deadline the daemon itself answers by deadline + grace, so
  // a generous margin on top never fires spuriously; deadline-less queries
  // get a cap past the daemon's default 120s watchdog.
  const double read_timeout = a.deadline > 0 ? a.deadline + 30.0 : 180.0;
  if (Status st = SetRecvTimeout(*fd, read_timeout); !st.ok()) return st;
  return fd;
}

/// One request/response exchange of the given frame types.
StatusOr<std::string> RoundTrip(UnixFd& fd, MsgType req_type,
                                const std::string& payload, MsgType resp_type) {
  if (Status st = SendFrame(fd, static_cast<std::uint32_t>(req_type), payload); !st.ok()) {
    return st;
  }
  StatusOr<Frame> frame = RecvFrame(fd);
  if (!frame.ok()) {
    if (frame.status().code() == StatusCode::kNotFound) {
      return Status::Unavailable("daemon closed the connection");
    }
    return frame.status();
  }
  if (frame->type != static_cast<std::uint32_t>(resp_type)) {
    return Status::InvalidArgument("unexpected frame type " +
                                   std::to_string(frame->type) + " from daemon");
  }
  return std::move(frame->payload);
}

StatusOr<QueryResponse> DoQuery(UnixFd& fd, const std::string& payload) {
  StatusOr<std::string> resp =
      RoundTrip(fd, MsgType::kQueryRequest, payload, MsgType::kQueryResponse);
  if (!resp.ok()) return resp.status();
  return DecodeQueryResponse(*resp);
}

/// Transient failures worth retrying: admission-control rejection
/// (RESOURCE_EXHAUSTED) and momentary unavailability (daemon or worker
/// pool restarting, connection dropped mid-exchange).
bool Retryable(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kResourceExhausted;
}

/// One query under the retry policy: up to `--retries` re-attempts of
/// transient failures, exponential backoff (base 50ms, doubled per attempt)
/// with U(0.5, 1.5) jitter, the whole budget bounded by --deadline when one
/// is set. `fd` is reconnected when the transport broke and left open for
/// the next call. `retries` counts re-attempts (load-gen reports the sum).
StatusOr<QueryResponse> QueryWithRetry(const Args& a, const std::string& payload,
                                       StatusOr<UnixFd>& fd, std::mt19937& rng,
                                       std::uint64_t& retries) {
  const auto start = std::chrono::steady_clock::now();
  for (int attempt = 0;; ++attempt) {
    if (!fd.ok()) fd = Connect(a);
    StatusOr<QueryResponse> resp = fd.ok() ? DoQuery(*fd, payload) : fd.status();
    if (!resp.ok()) fd = resp.status();  // transport broke: reconnect next time
    const Status st = resp.ok() ? resp->status : resp.status();
    if (!Retryable(st.code()) || attempt >= a.retries) return resp;
    const double jitter =
        0.5 + std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const double delay =
        0.05 * static_cast<double>(1 << std::min(attempt, 10)) * jitter;
    if (a.deadline > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed + delay > a.deadline) return resp;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    ++retries;
  }
}

struct WorkerResult {
  std::vector<double> latencies_ms;
  // Answered queries by class (ok + degraded + deadline == latencies size).
  long ok = 0;
  long degraded = 0;
  long deadline = 0;
  // Typed sheds (response carried a ShedReason): queue-full, expired, or
  // router-budget. Broken out so overload control is visible instead of
  // being folded into `failed`. rejected/expired are subsets of shed.
  long shed = 0;
  long rejected = 0;  // queue-full at admission
  long expired = 0;   // deadline expired while queued (never executed)
  int failed = 0;
  std::uint64_t retries = 0;
  // Summed DegradationReport path classes over answered queries.
  long long paths_degraded = 0;
  long long paths_dropped = 0;
  Status first_failure;
};

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);

  if (a.ping) {
    StatusOr<UnixFd> fd = Connect(a);
    if (!fd.ok()) {
      std::fprintf(stderr, "m3_client: %s\n", fd.status().ToString().c_str());
      return ExitCodeFor(fd.status().code());
    }
    StatusOr<std::string> payload = RoundTrip(*fd, MsgType::kPingRequest,
                                              EncodePingRequest(),
                                              MsgType::kPingResponse);
    StatusOr<PingResponse> resp =
        payload.ok() ? DecodePingResponse(*payload) : payload.status();
    if (!resp.ok()) {
      std::fprintf(stderr, "m3_client: %s\n", resp.status().ToString().c_str());
      return ExitCodeFor(resp.status().code());
    }
    if (resp->router_mode) {
      std::printf("m3d-router: %s — %u/%u shards healthy, fleet model v%llu\n",
                  resp->ready ? "ready" : "not ready", resp->shards_healthy,
                  resp->shards_total,
                  static_cast<unsigned long long>(resp->model_version));
    } else if (resp->worker_mode) {
      std::printf("m3d: %s — model v%llu, %u worker processes alive\n",
                  resp->ready ? "ready" : "not ready",
                  static_cast<unsigned long long>(resp->model_version),
                  resp->workers_alive);
    } else {
      std::printf("m3d: %s — model v%llu, in-process execution\n",
                  resp->ready ? "ready" : "not ready",
                  static_cast<unsigned long long>(resp->model_version));
    }
    return resp->ready ? 0 : 9;
  }

  if (a.stats) {
    StatusOr<UnixFd> fd = Connect(a);
    if (!fd.ok()) {
      std::fprintf(stderr, "m3_client: %s\n", fd.status().ToString().c_str());
      return ExitCodeFor(fd.status().code());
    }
    StatusOr<std::string> payload = RoundTrip(*fd, MsgType::kStatsRequest,
                                              EncodeStatsRequest(),
                                              MsgType::kStatsResponse);
    StatusOr<ServerStatsWire> stats =
        payload.ok() ? DecodeStats(*payload) : payload.status();
    if (!stats.ok()) {
      std::fprintf(stderr, "m3_client: %s\n", stats.status().ToString().c_str());
      return ExitCodeFor(stats.status().code());
    }
    const std::string out = a.json ? FormatStatsJson(*stats) + "\n" : FormatStatsText(*stats);
    std::fputs(out.c_str(), stdout);
    return 0;
  }

  if (!a.reload.empty()) {
    StatusOr<UnixFd> fd = Connect(a);
    if (!fd.ok()) {
      std::fprintf(stderr, "m3_client: %s\n", fd.status().ToString().c_str());
      return ExitCodeFor(fd.status().code());
    }
    ReloadRequest req;
    req.checkpoint_path = a.reload;
    StatusOr<std::string> payload = RoundTrip(*fd, MsgType::kReloadRequest,
                                              EncodeReloadRequest(req),
                                              MsgType::kReloadResponse);
    StatusOr<ReloadResponse> resp =
        payload.ok() ? DecodeReloadResponse(*payload) : payload.status();
    if (!resp.ok()) {
      std::fprintf(stderr, "m3_client: %s\n", resp.status().ToString().c_str());
      return ExitCodeFor(resp.status().code());
    }
    if (!resp->status.ok()) {
      std::fprintf(stderr, "m3_client: reload failed: %s\n",
                   resp->status.ToString().c_str());
      std::fprintf(stderr, "m3_client: daemon keeps serving v%llu (crc %08x)\n",
                   static_cast<unsigned long long>(resp->model_version),
                   resp->model_crc);
      return ExitCodeFor(resp->status.code());
    }
    std::printf("reloaded: now serving v%llu (crc %08x)\n",
                static_cast<unsigned long long>(resp->model_version), resp->model_crc);
    return 0;
  }

  // Build the scenario client-side; the wire carries host indices.
  const FatTree ft(FatTreeConfig::Small(a.oversub));
  std::vector<Flow> flows;
  if (!a.trace.empty()) {
    StatusOr<std::vector<Flow>> loaded = LoadTraceOr(a.trace, ft);
    if (!loaded.ok()) {
      std::fprintf(stderr, "m3_client: %s\n", loaded.status().ToString().c_str());
      return ExitCodeFor(loaded.status().code());
    }
    flows = std::move(loaded).value();
  } else {
    const auto tm = TrafficMatrix::ByName(a.tm, ft.num_racks(), ft.config().racks_per_pod);
    const auto sizes = MakeProductionDist(a.workload);
    WorkloadSpec wspec;
    wspec.num_flows = a.flows;
    wspec.max_load = a.load;
    wspec.burstiness_sigma = a.sigma;
    flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  }

  QueryRequest req;
  req.oversub = a.oversub;
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
  req.cfg.cc = CcFromName(a.cc);
  req.cfg.init_window = a.window;
  req.cfg.buffer = a.buffer;
  req.cfg.pfc = a.pfc;
  req.num_paths = a.paths;
  req.seed = static_cast<std::uint64_t>(a.seed);
  req.strict = a.strict;
  req.deadline_seconds = a.deadline;
  req.priority = static_cast<std::uint8_t>(a.priority);
  req.no_cache = a.no_cache;
  const std::string payload = EncodeQueryRequest(req);

  if (a.concurrency > 1 || a.repeat > 1) {
    // Load-generator mode: N connections x M sequential queries each.
    std::vector<WorkerResult> results(static_cast<std::size_t>(a.concurrency));
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < a.concurrency; ++t) {
      threads.emplace_back([&, t] {
        WorkerResult& r = results[static_cast<std::size_t>(t)];
        std::mt19937 rng(std::random_device{}() ^
                         (static_cast<unsigned>(t) * 2654435761u));
        // Even a failed first connect is not fatal: QueryWithRetry
        // reconnects per attempt, riding out a daemon restart.
        StatusOr<UnixFd> fd = Connect(a);
        for (int q = 0; q < a.repeat; ++q) {
          const auto q0 = std::chrono::steady_clock::now();
          StatusOr<QueryResponse> resp = QueryWithRetry(a, payload, fd, rng, r.retries);
          const auto q1 = std::chrono::steady_clock::now();
          const Status st = resp.ok() ? resp->status : resp.status();
          const StatusCode code = st.code();
          // A response carrying a ShedReason is a typed shed — overload
          // control answered instead of computing. Not a failure, not an
          // answer: its own family (answered + shed + failed = total).
          const std::uint8_t shed_reason =
              resp.ok() ? resp->shed_reason
                        : static_cast<std::uint8_t>(ShedReason::kNone);
          if (shed_reason != static_cast<std::uint8_t>(ShedReason::kNone)) {
            ++r.shed;
            if (shed_reason == static_cast<std::uint8_t>(ShedReason::kQueueFull)) {
              ++r.rejected;
            }
            if (shed_reason == static_cast<std::uint8_t>(ShedReason::kExpired)) {
              ++r.expired;
            }
            continue;
          }
          const bool answered = code == StatusCode::kOk ||
                                code == StatusCode::kDegraded ||
                                code == StatusCode::kDeadlineExceeded;
          if (!answered) {
            ++r.failed;
            if (r.first_failure.ok()) r.first_failure = st;
            continue;
          }
          if (code == StatusCode::kOk) ++r.ok;
          else if (code == StatusCode::kDegraded) ++r.degraded;
          else ++r.deadline;
          r.paths_degraded += resp->degradation.paths_degraded;
          r.paths_dropped += resp->degradation.paths_dropped;
          r.latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(q1 - q0).count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    std::vector<double> lat;
    long ok = 0, degraded = 0, deadline = 0;
    long shed = 0, rejected = 0, expired = 0;
    long long paths_degraded = 0, paths_dropped = 0;
    int failed = 0;
    std::uint64_t total_retries = 0;
    Status first_failure;
    for (const WorkerResult& r : results) {
      lat.insert(lat.end(), r.latencies_ms.begin(), r.latencies_ms.end());
      ok += r.ok;
      degraded += r.degraded;
      deadline += r.deadline;
      shed += r.shed;
      rejected += r.rejected;
      expired += r.expired;
      paths_degraded += r.paths_degraded;
      paths_dropped += r.paths_dropped;
      failed += r.failed;
      total_retries += r.retries;
      if (first_failure.ok() && !r.first_failure.ok()) first_failure = r.first_failure;
    }
    std::sort(lat.begin(), lat.end());
    const auto pct = [&lat](double p) {
      if (lat.empty()) return 0.0;
      const std::size_t idx = static_cast<std::size_t>(
          std::min<double>(static_cast<double>(lat.size()) - 1,
                           p / 100.0 * static_cast<double>(lat.size())));
      return lat[idx];
    };
    const long total = static_cast<long>(a.concurrency) * a.repeat;
    if (a.json) {
      // One line, stable keys: the contract for check.sh and the chaos
      // harness (answered = ok + degraded + deadline; answered + shed +
      // failed = total; rejected/expired are subsets of shed; latency
      // percentiles cover *answered* queries only — admitted goodput).
      std::printf("{\"total\": %ld, \"answered\": %zu, \"ok\": %ld, "
                  "\"degraded\": %ld, \"deadline\": %ld, \"shed\": %ld, "
                  "\"rejected\": %ld, \"expired\": %ld, \"failed\": %d, "
                  "\"retries\": %llu, \"paths_degraded\": %lld, "
                  "\"paths_dropped\": %lld, \"wall_s\": %.3f, "
                  "\"throughput_qps\": %.2f, \"p50_ms\": %.3f, "
                  "\"p99_ms\": %.3f, \"max_ms\": %.3f}\n",
                  total, lat.size(), ok, degraded, deadline, shed,
                  rejected, expired, failed,
                  static_cast<unsigned long long>(total_retries),
                  paths_degraded, paths_dropped, wall,
                  lat.empty() ? 0.0 : static_cast<double>(lat.size()) / wall,
                  pct(50), pct(99), lat.empty() ? 0.0 : lat.back());
    } else {
      std::printf("load: %d conns x %d queries = %ld total, %ld ok, %ld degraded, "
                  "%ld deadline, %ld shed, %d failed\n",
                  a.concurrency, a.repeat, total, ok, degraded, deadline, shed,
                  failed);
      if (shed > 0) {
        std::printf("shed: %ld rejected (queue full), %ld expired in queue, "
                    "%ld router budget\n",
                    rejected, expired, shed - rejected - expired);
      }
      std::printf("wall: %.2fs  throughput: %.1f q/s\n", wall,
                  lat.empty() ? 0.0 : static_cast<double>(lat.size()) / wall);
      std::printf("latency: p50 %.2fms  p99 %.2fms  max %.2fms\n", pct(50), pct(99),
                  lat.empty() ? 0.0 : lat.back());
      std::printf("retries: %llu transient failures retried with backoff\n",
                  static_cast<unsigned long long>(total_retries));
      if (paths_degraded > 0 || paths_dropped > 0) {
        std::printf("degradation: %lld paths fell back to flowSim, %lld dropped "
                    "across answered queries\n",
                    paths_degraded, paths_dropped);
      }
    }
    if (failed > 0) {
      std::fprintf(stderr, "m3_client: %d queries failed; first: %s\n", failed,
                   first_failure.ToString().c_str());
      return ExitCodeFor(first_failure.code());
    }
    return 0;
  }

  StatusOr<UnixFd> fd = Connect(a);
  std::mt19937 rng(std::random_device{}());
  std::uint64_t retries = 0;
  StatusOr<QueryResponse> got = QueryWithRetry(a, payload, fd, rng, retries);
  if (!got.ok()) {
    std::fprintf(stderr, "m3_client: %s\n", got.status().ToString().c_str());
    return ExitCodeFor(got.status().code());
  }
  const QueryResponse& est = *got;
  if (est.shed_reason != static_cast<std::uint8_t>(ShedReason::kNone)) {
    static const char* kShedNames[kNumShedReasons] = {"none", "queue-full",
                                                      "expired-in-queue", "router-budget"};
    std::fprintf(stderr, "m3_client: shed by overload control (%s): %s\n",
                 kShedNames[est.shed_reason % kNumShedReasons],
                 est.status.ToString().c_str());
    return ExitCodeFor(est.status.code());
  }
  if (!est.status.ok() && est.status.code() != StatusCode::kDegraded &&
      est.status.code() != StatusCode::kDeadlineExceeded) {
    std::fprintf(stderr, "m3_client: %s\n", est.status.ToString().c_str());
    return ExitCodeFor(est.status.code());
  }

  if (retries > 0) {
    std::printf("(%llu transient failure%s retried with backoff)\n",
                static_cast<unsigned long long>(retries), retries == 1 ? "" : "s");
  }
  std::printf("scenario: tm=%s workload=%s oversub=%.0f:1 load=%.0f%% sigma=%.1f "
              "flows=%zu cc=%s\n",
              a.tm.c_str(), a.workload.c_str(), a.oversub, 100 * a.load, a.sigma,
              flows.size(), a.cc.c_str());
  std::printf("served by model v%llu (crc %08x)%s, computed in %.1fs over %d paths\n\n",
              static_cast<unsigned long long>(est.model_version), est.model_crc,
              est.query_cache_hit ? " [cache hit]" : "", est.wall_seconds, a.paths);

  const int pidx = std::min(99, std::max(0, static_cast<int>(a.percentile) - 1));
  const char* labels[4] = {"(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)"};
  std::printf("%-14s %10s %12s\n", "flow class", "#flows", "slowdown");
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const auto& pct = est.bucket_pct[static_cast<std::size_t>(b)];
    if (pct.empty()) continue;
    std::printf("%-14s %10.0f %12.2f\n", labels[b],
                est.total_counts[static_cast<std::size_t>(b)],
                pct[static_cast<std::size_t>(pidx)]);
  }
  if (!est.combined_pct.empty()) {
    std::printf("%-14s %10s %12.2f   (p%.0f)\n", "network-wide", "-",
                est.combined_pct[static_cast<std::size_t>(pidx)], a.percentile);
  }
  if (!est.status.ok()) {
    std::printf("\nstatus: %s\n", est.status.ToString().c_str());
  }
  if (est.degradation.Degraded() || est.degradation.paths_retried > 0) {
    std::printf("degradation: %s\n", est.degradation.ToString().c_str());
  }
  if (!est.shards.empty()) {
    // Routed answer: per-shard attribution assembled by m3d-router.
    std::printf("shards:\n");
    for (const ShardReportWire& sh : est.shards) {
      std::printf("  %s — %u assigned, %u ok, %u fallback, %u dropped, %u retries\n",
                  sh.shard.c_str(), sh.slots_assigned, sh.slots_ok,
                  sh.slots_fallback, sh.slots_dropped, sh.retries);
    }
  }
  return ExitCodeFor(est.status.code());
}
