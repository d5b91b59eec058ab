#include "workloads.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "serve/server.h"
#include "util/socket.h"

extern char** environ;

namespace perfbench {

using namespace m3;
using namespace m3::serve;

namespace {

// Set-ups per run; the reported setup_s is their median.
constexpr int kSetupReps = 5;
// Served answers per run checked bitwise against a direct 1-thread RunM3.
constexpr int kReferenceChecks = 3;
// Work per second of --seconds, calibrated on a 4-core host so a run
// measures about that long. Counts are fixed by the arguments, so the same
// seed and length always send the same queries.
constexpr double kPaperColdPerSecond = 10.0;
constexpr double kSweepPerSecond = 17.0;
constexpr double kFleetFirstPerSecond = 2.5;
constexpr int kPaperHitRounds = 4;
constexpr int kFleetRepeats = 2;
constexpr int kPaperBlock = 8;  // cold queries generated and held at a time

int Scaled(const Config& c, double per_second, int toy) {
  return c.toy ? toy : std::max(toy, static_cast<int>(c.seconds * per_second + 0.5));
}

bool IsReference(int i, int n) {
  for (int k = 0; k < kReferenceChecks; ++k) {
    if (i == (k * (n - 1)) / std::max(1, kReferenceChecks - 1)) return true;
  }
  return false;
}

void CheckReferences(const std::vector<std::pair<QueryRequest, QueryResponse>>& served,
                     const std::string& ckpt, Counts* counts) {
  M3Model model;
  model.Load(ckpt);
  for (const auto& [req, resp] : served) {
    const NetworkEstimate ref = ReferenceRunM3(req, model);
    if (!ref.status.ok() || !SameAnswer(resp, ref)) {
      std::printf("# ANSWER MISMATCH vs 1-thread RunM3 (%s)\n", ref.status.ToString().c_str());
      counts->correct = false;
      counts->ok--;
      counts->failed++;
    }
  }
  std::printf("# reference checks: %zu served answers vs direct 1-thread RunM3\n", served.size());
}

void SetEndToEnd(RunResult* r, const std::vector<double>& first_ms,
                 const std::vector<double>& hit_ms, double window_s, double cpu_s,
                 double peak_rss, const std::vector<double>& setups) {
  const double answered = static_cast<double>(r->counts.ok);
  Metrics& m = r->metrics;
  m.Set("latency_p50_ms", Median(first_ms), "ms");
  m.Set("latency_p90_ms", Percentile(first_ms, 90), "ms");
  m.Set("hit_p50_ms", Median(hit_ms), "ms");
  m.Set("throughput_qps", window_s > 0 ? answered / window_s : 0.0, "1/s");
  m.Set("cpu_ms_per_query",
        first_ms.empty() ? 0.0 : cpu_s * 1000.0 / static_cast<double>(first_ms.size()), "ms");
  m.Set("peak_rss_mb", peak_rss, "MiB");
  m.Set("setup_s", Median(setups), "s");
  std::printf("# %zu first-sight, %zu repeat samples; timed window %.3f s\n", first_ms.size(),
              hit_ms.size(), window_s);
}

volatile sig_atomic_t g_shard_stop = 0;
void OnShardSignal(int) { g_shard_stop = 1; }

StatusOr<PingResponse> PingOnce(const UnixFd& fd) {
  M3_RETURN_IF_ERROR(SendFrame(fd, static_cast<std::uint32_t>(MsgType::kPingRequest),
                               EncodePingRequest()));
  StatusOr<Frame> frame = RecvFrame(fd);
  if (!frame.ok()) return frame.status();
  return DecodePingResponse(frame->payload);
}

bool ShardReady(const std::string& sock) {
  StatusOr<Endpoint> ep = ParseEndpoint(sock);
  if (!ep.ok()) return false;
  StatusOr<UnixFd> fd = ConnectEndpoint(*ep, 0.2);
  if (!fd.ok()) return false;
  StatusOr<PingResponse> p = PingOnce(*fd);
  return p.ok() && p->ready;
}

pid_t SpawnShard(const Config& c, const std::string& sock, const std::string& ckpt) {
  // Everything the child needs is built before fork: after it only
  // async-signal-safe calls run until exec.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "M3_NUM_THREADS=", 15) != 0) env.emplace_back(*e);
  }
  env.push_back("M3_NUM_THREADS=" + std::to_string(std::max(1u, c.nproc / 2)));
  const std::vector<std::string> args = {c.self_exe, "--shard", sock, "--model", ckpt};
  std::vector<char*> envp, argv;
  for (std::string& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);
  for (const std::string& s : args) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
    if (getppid() != parent) _exit(1);
    execve(c.self_exe.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  return pid;
}

}  // namespace

std::unique_ptr<EstimationService> StartService(const ServiceOptions& so, const std::string& ckpt,
                                                double* setup_s) {
  const auto t0 = Clock::now();
  auto svc = std::make_unique<EstimationService>(so);
  if (Status st = svc->ReloadModel(ckpt); !st.ok()) {
    std::fprintf(stderr, "perfbench: reload: %s\n", st.ToString().c_str());
    return nullptr;
  }
  if (Status st = svc->Start(); !st.ok()) {
    std::fprintf(stderr, "perfbench: start: %s\n", st.ToString().c_str());
    return nullptr;
  }
  while (!svc->Ping().ready) {
    if (Seconds(t0, Clock::now()) > 30.0) return nullptr;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *setup_s = Seconds(t0, Clock::now());
  if (so.worker_processes > 0) {
    // Untimed: every worker alive before any query is sent.
    while (svc->Ping().workers_alive < static_cast<std::uint32_t>(so.worker_processes)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return svc;
}

ServiceOptions InProcessOptions() {
  ServiceOptions so;
  so.num_workers = 1;
  so.threads_per_query = 0;  // the full pool, M3_NUM_THREADS = nproc wide
  so.worker_processes = 0;
  return so;
}

ServiceOptions WorkerModeOptions(const Config& c) {
  ServiceOptions so;
  so.worker_processes = static_cast<int>(c.nproc);
  so.num_workers = static_cast<int>(c.nproc);
  so.threads_per_query = 1;
  return so;
}

std::vector<std::string> ShardSockets(const Config& c) {
  return {c.work_dir + "/shard0.sock", c.work_dir + "/shard1.sock"};
}

bool StartFleet(const Config& c, const std::string& ckpt, Fleet* f, double* setup_s) {
  const auto t0 = Clock::now();
  f->socks = ShardSockets(c);
  for (const std::string& s : f->socks) f->pids.push_back(SpawnShard(c, s, ckpt));
  for (std::size_t i = 0; i < f->socks.size(); ++i) {
    while (!ShardReady(f->socks[i])) {
      int status = 0;
      if (f->pids[i] <= 0 || waitpid(f->pids[i], &status, WNOHANG) != 0 ||
          Seconds(t0, Clock::now()) > 30.0) {
        std::fprintf(stderr, "perfbench: shard %s never became ready\n", f->socks[i].c_str());
        if (f->pids[i] > 0 && waitpid(f->pids[i], &status, WNOHANG) != 0) f->pids[i] = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  RouterOptions ro;
  ro.shards = f->socks;
  ro.fallback_threads = 1;  // fleet compute threads stay within the cores
  f->router = std::make_unique<Router>(ro);
  if (Status st = f->router->Start(); !st.ok()) {
    std::fprintf(stderr, "perfbench: router: %s\n", st.ToString().c_str());
    return false;
  }
  while (!f->router->Ping().ready) {
    if (Seconds(t0, Clock::now()) > 30.0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *setup_s = Seconds(t0, Clock::now());
  return true;
}

void StopFleet(Fleet* f) {
  if (f->router) f->router->Stop();
  f->router.reset();
  for (pid_t pid : f->pids) {
    if (pid > 0) kill(pid, SIGTERM);
  }
  for (pid_t pid : f->pids) {
    if (pid <= 0) continue;
    int status = 0;
    const auto t0 = Clock::now();
    while (waitpid(pid, &status, WNOHANG) == 0) {
      if (Seconds(t0, Clock::now()) > 10.0) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  f->pids.clear();
}

int ShardMain(const std::string& sock, const std::string& ckpt) {
  signal(SIGTERM, OnShardSignal);
  signal(SIGINT, SIG_IGN);
  ServiceOptions so = InProcessOptions();  // pool width from M3_NUM_THREADS
  EstimationService service(so);
  if (!service.ReloadModel(ckpt).ok() || !service.Start().ok()) return 1;
  SocketServer server(service);
  if (!server.Start(sock).ok()) return 1;
  while (!g_shard_stop) usleep(10 * 1000);
  server.Stop();
  service.Stop();
  return 0;
}

double PingRttMs(const std::string& sock, int n) {
  StatusOr<Endpoint> ep = ParseEndpoint(sock);
  if (!ep.ok()) return 0.0;
  StatusOr<UnixFd> fd = ConnectEndpoint(*ep, 1.0);
  if (!fd.ok()) return 0.0;
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    if (!PingOnce(*fd).ok()) return 0.0;
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

QueryRequest SweepPlan::At(int k) const {
  const std::size_t g = grid.size();
  QueryRequest req = bases[static_cast<std::size_t>(k) / g];
  req.cfg = grid[static_cast<std::size_t>(k) % g];
  return req;
}

SweepPlan MakeSweepPlan(const Config& c, const FatTree& ft) {
  // Table 4: every CC type x five values of its own parameter x three
  // buffer sizes. init_window stays at its default; the warm-up query uses
  // another value so it never matches a timed query.
  SweepPlan p;
  const Bytes buffers[] = {200 * kKB, 300 * kKB, 500 * kKB};
  for (int cc = 0; cc < kNumCcTypes; ++cc) {
    for (int v = 0; v < 5; ++v) {
      for (Bytes buffer : buffers) {
        NetConfig cfg;
        cfg.cc = static_cast<CcType>(cc);
        cfg.buffer = buffer;
        switch (cfg.cc) {
          case CcType::kDctcp: {
            const int k[] = {5, 8, 10, 15, 20};
            cfg.dctcp_k = k[v] * kKB;
            break;
          }
          case CcType::kTimely: {
            const int lo[] = {40, 45, 50, 55, 60}, hi[] = {100, 110, 120, 135, 150};
            cfg.timely_tlow = lo[v] * kUs;
            cfg.timely_thigh = hi[v] * kUs;
            break;
          }
          case CcType::kDcqcn: {
            const int lo[] = {20, 25, 30, 40, 50}, hi[] = {50, 60, 70, 85, 100};
            cfg.dcqcn_kmin = lo[v] * kKB;
            cfg.dcqcn_kmax = hi[v] * kKB;
            break;
          }
          case CcType::kHpcc: {
            const double eta[] = {0.70, 0.75, 0.80, 0.90, 0.95};
            cfg.hpcc_eta = eta[v];
            break;
          }
        }
        p.grid.push_back(cfg);
      }
    }
  }
  p.count = Scaled(c, kSweepPerSecond, 8);
  const int workloads = (p.count + static_cast<int>(p.grid.size()) - 1) /
                        static_cast<int>(p.grid.size());
  for (int w = 0; w < workloads; ++w) {
    p.bases.push_back(MakeQuery(ft, c.num_flows, c.num_paths,
                                WorkloadSeed(c.seed, 1000 + static_cast<std::uint64_t>(w))));
  }
  return p;
}

RunResult RunPaperQuery(const Config& c, const std::string& ckpt) {
  RunResult r;
  const FatTree ft(FatTreeConfig::Small(2.0));
  std::vector<double> setups;
  std::unique_ptr<EstimationService> svc;
  for (int k = 0; k < kSetupReps; ++k) {
    if (svc) svc->Stop();
    svc.reset();
    double s = 0.0;
    svc = StartService(InProcessOptions(), ckpt, &s);
    if (!svc) {
      r.counts.Record(false);
      return r;
    }
    setups.push_back(s);
  }
  std::printf("# threads: 1 process; pool %u wide (M3_NUM_THREADS); 1 scheduler worker, "
              "threads_per_query 0 (full pool); 1 closed-loop client\n",
              c.nproc);

  const QueryResponse warm =
      svc->Query(MakeQuery(ft, c.num_flows, c.num_paths, WorkloadSeed(c.seed, kWarmupIndex)));
  if (!warm.status.ok()) std::printf("# warm-up failed: %s\n", warm.status.ToString().c_str());

  const int cold = Scaled(c, kPaperColdPerSecond, 4);
  std::vector<double> cold_ms, hit_ms;
  std::vector<std::pair<QueryRequest, QueryResponse>> refs;
  double window = 0.0, cpu = 0.0;
  for (int b0 = 0; b0 < cold; b0 += kPaperBlock) {
    const int n = std::min(kPaperBlock, cold - b0);
    std::vector<QueryRequest> reqs;
    for (int i = 0; i < n; ++i) {
      reqs.push_back(MakeQuery(ft, c.num_flows, c.num_paths,
                               WorkloadSeed(c.seed, static_cast<std::uint64_t>(b0 + i))));
    }
    std::vector<QueryResponse> answers(static_cast<std::size_t>(n));
    const auto w0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = Clock::now();
      answers[static_cast<std::size_t>(i)] = svc->Query(reqs[static_cast<std::size_t>(i)]);
      cold_ms.push_back(MsSince(t0));
      cpu += ProcessCpuSeconds() - cpu0;
      const QueryResponse& a = answers[static_cast<std::size_t>(i)];
      r.counts.Record(a.status.ok() && !a.query_cache_hit);
    }
    for (int round = 0; round < kPaperHitRounds; ++round) {
      for (int i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        const QueryResponse h = svc->Query(reqs[static_cast<std::size_t>(i)]);
        hit_ms.push_back(MsSince(t0));
        r.counts.Record(h.status.ok() && h.query_cache_hit &&
                        SameAnswer(h, answers[static_cast<std::size_t>(i)]));
      }
    }
    window += Seconds(w0, Clock::now());
    for (int i = 0; i < n; ++i) {
      if (IsReference(b0 + i, cold)) {
        refs.emplace_back(std::move(reqs[static_cast<std::size_t>(i)]),
                          std::move(answers[static_cast<std::size_t>(i)]));
      }
    }
  }
  const double rss = PeakRssMb();
  svc->Stop();
  svc.reset();
  SetEndToEnd(&r, cold_ms, hit_ms, window, cpu, rss, setups);
  CheckReferences(refs, ckpt, &r.counts);
  return r;
}

RunResult RunConfigSweep(const Config& c, const std::string& ckpt) {
  RunResult r;
  const FatTree ft(FatTreeConfig::Small(2.0));
  const SweepPlan plan = MakeSweepPlan(c, ft);
  const ServiceOptions so = WorkerModeOptions(c);
  std::vector<double> setups;
  std::unique_ptr<EstimationService> svc;
  double children_cpu0 = 0.0;
  for (int k = 0; k < kSetupReps; ++k) {
    if (svc) svc->Stop();
    svc.reset();
    children_cpu0 = ChildrenCpuSeconds();  // the kept service's workers start here
    double s = 0.0;
    svc = StartService(so, ckpt, &s);
    if (!svc) {
      r.counts.Record(false);
      return r;
    }
    setups.push_back(s);
  }
  const int clients = static_cast<int>(c.nproc);
  std::printf("# threads: bench process: %d closed-loop clients, %d scheduler threads; "
              "%d worker processes x 1 thread (threads_per_query 1)\n",
              clients, so.num_workers, so.worker_processes);
  std::printf("# sweep: %d queries = %zu reference workloads x %zu NetConfigs (configs "
              "fastest)\n",
              plan.count, plan.bases.size(), plan.grid.size());

  // Warm-up: one query per worker, on a workload and config outside the
  // timed set.
  {
    QueryRequest w = MakeQuery(ft, c.num_flows, c.num_paths, WorkloadSeed(c.seed, kWarmupIndex));
    std::vector<std::thread> th;
    for (int i = 0; i < clients; ++i) {
      th.emplace_back([&, i] {
        QueryRequest q = w;
        q.cfg.init_window = (20 + i) * kKB;
        const QueryResponse resp = svc->Query(q);
        if (!resp.status.ok()) std::printf("# warm-up failed: %s\n", resp.status.ToString().c_str());
      });
    }
    for (auto& t : th) t.join();
  }

  // Answers kept for the repeat pass and the reference checks. The repeats
  // are the last queries sent, which the query cache (256 entries) still
  // holds.
  std::vector<int> keep_hits;
  for (int k = std::max(0, plan.count - 16); k < plan.count; ++k) keep_hits.push_back(k);
  std::map<int, QueryResponse> kept;
  std::mutex mu;
  std::vector<double> first_ms;
  std::atomic<int> next{0};
  const double cpu0 = ProcessCpuSeconds();
  const auto w0 = Clock::now();
  {
    std::vector<std::thread> th;
    for (int t = 0; t < clients; ++t) {
      th.emplace_back([&] {
        for (;;) {
          const int k = next.fetch_add(1);
          if (k >= plan.count) break;
          const QueryRequest req = plan.At(k);
          const auto t0 = Clock::now();
          QueryResponse resp = svc->Query(req);
          const double ms = MsSince(t0);
          std::lock_guard<std::mutex> lock(mu);
          first_ms.push_back(ms);
          r.counts.Record(resp.status.ok() && !resp.query_cache_hit);
          if (std::find(keep_hits.begin(), keep_hits.end(), k) != keep_hits.end() ||
              IsReference(k, plan.count)) {
            kept[k] = std::move(resp);
          }
        }
      });
    }
    for (auto& t : th) t.join();
  }
  double window = Seconds(w0, Clock::now());
  const double self_cpu = ProcessCpuSeconds() - cpu0;

  // Repeats: daemon-level query-cache hits, never reaching a worker.
  std::vector<double> hit_ms;
  const auto h0 = Clock::now();
  for (int round = 0; round < 2; ++round) {
    for (int k : keep_hits) {
      const QueryRequest req = plan.At(k);
      const auto t0 = Clock::now();
      const QueryResponse h = svc->Query(req);
      hit_ms.push_back(MsSince(t0));
      r.counts.Record(h.status.ok() && h.query_cache_hit && SameAnswer(h, kept[k]));
    }
  }
  window += Seconds(h0, Clock::now());
  const double rss = PeakRssMb();
  svc->Stop();  // reaps the workers, so their CPU is now countable
  svc.reset();
  const double worker_cpu = ChildrenCpuSeconds() - children_cpu0;
  SetEndToEnd(&r, first_ms, hit_ms, window, self_cpu + worker_cpu, rss, setups);

  std::vector<std::pair<QueryRequest, QueryResponse>> refs;
  for (auto& [k, resp] : kept) {
    if (IsReference(k, plan.count)) refs.emplace_back(plan.At(k), std::move(resp));
  }
  CheckReferences(refs, ckpt, &r.counts);
  return r;
}

RunResult RunFleetRepeat(const Config& c, const std::string& ckpt) {
  RunResult r;
  const FatTree ft(FatTreeConfig::Small(2.0));
  std::vector<double> setups;
  Fleet fleet;
  double children_cpu0 = 0.0;
  for (int k = 0; k < kSetupReps; ++k) {
    StopFleet(&fleet);
    fleet = Fleet{};
    children_cpu0 = ChildrenCpuSeconds();
    double s = 0.0;
    if (!StartFleet(c, ckpt, &fleet, &s)) {
      StopFleet(&fleet);
      r.counts.Record(false);
      return r;
    }
    setups.push_back(s);
  }
  std::printf("# threads: bench process: 1 closed-loop client + Router (fallback_threads 1); "
              "2 shard processes, pool %u wide each, threads_per_query 0\n",
              std::max(1u, c.nproc / 2));

  const QueryResponse warm = fleet.router->Query(
      MakeQuery(ft, c.num_flows, c.num_paths, WorkloadSeed(c.seed, kWarmupIndex)));
  if (!warm.status.ok()) std::printf("# warm-up failed: %s\n", warm.status.ToString().c_str());

  const int first = Scaled(c, kFleetFirstPerSecond, 2);
  std::vector<double> first_ms, hit_ms;
  std::vector<std::pair<QueryRequest, QueryResponse>> refs;
  double window = 0.0, router_cpu = 0.0;
  int full_cache_repeats = 0;
  for (int i = 0; i < first; ++i) {
    QueryRequest req = MakeQuery(ft, c.num_flows, c.num_paths,
                                 WorkloadSeed(c.seed, static_cast<std::uint64_t>(i)));
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    QueryResponse a = fleet.router->Query(req);
    first_ms.push_back(MsSince(t0));
    router_cpu += ProcessCpuSeconds() - cpu0;
    window += Seconds(t0, Clock::now());
    r.counts.Record(a.status.ok());
    for (int rep = 0; rep < kFleetRepeats; ++rep) {
      const auto h0 = Clock::now();
      const QueryResponse h = fleet.router->Query(req);
      hit_ms.push_back(MsSince(h0));
      window += Seconds(h0, Clock::now());
      r.counts.Record(h.status.ok() && SameAnswer(h, a));
      if (h.degradation.paths_cached == c.num_paths) ++full_cache_repeats;
    }
    if (IsReference(i, first)) refs.emplace_back(std::move(req), std::move(a));
  }
  std::printf("# repeats served wholly from the router path cache: %d of %d\n",
              full_cache_repeats, first * kFleetRepeats);
  const double rss = PeakRssMb();
  StopFleet(&fleet);
  const double shard_cpu = ChildrenCpuSeconds() - children_cpu0;
  SetEndToEnd(&r, first_ms, hit_ms, window, router_cpu + shard_cpu, rss, setups);
  CheckReferences(refs, ckpt, &r.counts);
  return r;
}

}  // namespace perfbench
