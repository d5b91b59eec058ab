// The traced run: drives a few of the workload's operations through its own
// way in with spans around every call, then replays the same queries stage
// by stage through each layer's public functions at one thread. Spans stay
// in memory and are written once at the end.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "core/dataset.h"
#include "core/net_config.h"
#include "core/validate.h"
#include "pathdecomp/sampling.h"
#include "serve/exec.h"
#include "serve/shardmap.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace m3;
using namespace m3::serve;

namespace {

constexpr int kTraceOps = 3;   // first-sight operations traced per run
constexpr int kPingSamples = 20;

// FLOPs of one M3Model::Predict with an n-hop background sequence, computed
// from the model dimensions (2 per multiply-add; norms, softmax and other
// elementwise work left out).
double ForwardFlops(const M3ModelConfig& m, int n) {
  const double F = m.feat_dim, d = m.d_model, ff = m.ff_dim, H = m.mlp_hidden;
  double macs = n * F * d;  // input projection
  macs += m.num_layers * (4.0 * n * d * d + 2.0 * n * n * d + 2.0 * n * d * ff);
  macs += (F + d + m.spec_dim) * H + H * m.out_dim;  // MLP head
  return 2.0 * macs;
}

std::array<double, kNumOutputBuckets> FgBucketCounts(const PathScenario& sc) {
  std::array<double, kNumOutputBuckets> counts{};
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    if (sc.is_fg[i]) counts[static_cast<std::size_t>(OutputBucketOf(sc.flows[i].size))] += 1.0;
  }
  return counts;
}

// Matches a request seen by the service's pre-execute hook to the client
// call that sent it (the hook sees a copy of the request).
std::uint64_t Fingerprint(const QueryRequest& q) {
  Hasher h;
  h.Str(q.cfg.ToString()).U64(q.flows.size()).U64(q.seed);
  if (!q.flows.empty()) {
    h.I64(q.flows.front().arrival).I64(q.flows.back().arrival).I32(q.flows.front().src_host);
  }
  return h.Finish().lo;
}

class HookTimes {
 public:
  void Mark(const QueryRequest& q) {
    const auto now = Clock::now();
    const std::uint64_t fp = Fingerprint(q);
    std::lock_guard<std::mutex> lock(mu_);
    t_[fp] = now;
  }
  Clock::time_point Take(const QueryRequest& q) {
    const std::uint64_t fp = Fingerprint(q);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = t_.find(fp);
    if (it == t_.end()) return Clock::now();
    const Clock::time_point t = it->second;
    t_.erase(it);
    return t;
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, Clock::time_point> t_;
};

// What the live pass through the way in measured.
struct Live {
  std::vector<QueryResponse> answers;  // first-sight answers, by op
  std::vector<double> first_ms, queue_ms, exec_ms;
  double shed = 0, query_lookups = 0, query_hits = 0;
  double router_lookups = 0, router_hits = 0, dispatches = 0, ops = 0;
  double ping_ms = 0, child_rss_mb = 0;
};

QueryResponse SendTraced(EstimationService& svc, const QueryRequest& req, int qid, bool first,
                         Tracer& tr, HookTimes& hooks, Live* live, std::mutex& mu) {
  std::promise<QueryResponse> done;
  std::future<QueryResponse> fut = done.get_future();
  Clock::time_point done_t{};
  const int root = tr.Begin("client.query", -1, qid);
  const auto t0 = Clock::now();
  const Status st = svc.Submit(req, [&](QueryResponse resp) {
    done_t = Clock::now();
    done.set_value(std::move(resp));
  });
  QueryResponse resp;
  if (st.ok()) {
    resp = fut.get();
  } else {
    resp.status = st;
  }
  const auto t1 = Clock::now();
  tr.End(root);
  if (!st.ok()) return resp;
  const auto hook_t = hooks.Take(req);
  tr.Add("service.queue", root, qid, t0, hook_t);
  tr.Add("service.exec", root, qid, hook_t, done_t);
  if (first) {
    std::lock_guard<std::mutex> lock(mu);
    live->first_ms.push_back(Seconds(t0, t1) * 1000.0);
    live->queue_ms.push_back(Seconds(t0, hook_t) * 1000.0);
    live->exec_ms.push_back(Seconds(hook_t, done_t) * 1000.0);
  }
  return resp;
}

void LiveService(const Config& c, const std::string& ckpt, const ServiceOptions& so,
                 const std::vector<QueryRequest>& firsts, int clients, int repeats, Tracer& tr,
                 int qid0, Live* live, Counts* counts) {
  HookTimes hooks;
  double setup = 0.0;
  std::unique_ptr<EstimationService> svc = StartService(so, ckpt, &setup);
  if (!svc) {
    counts->Record(false);
    return;
  }
  svc->set_pre_execute_hook([&hooks](const QueryRequest& q) { hooks.Mark(q); });
  const FatTree ft(FatTreeConfig::Small(2.0));
  const QueryRequest warm =
      MakeQuery(ft, c.num_flows, c.num_paths, WorkloadSeed(c.seed, kWarmupIndex));
  {
    std::vector<std::thread> th;
    for (int i = 0; i < clients; ++i) {
      th.emplace_back([&, i] {
        QueryRequest q = warm;
        q.cfg.init_window = (20 + i) * kKB;
        svc->Query(q);
      });
    }
    for (auto& t : th) t.join();
  }
  const ServerStatsWire s0 = svc->Stats();
  std::mutex mu;
  live->answers.resize(firsts.size());
  std::atomic<int> next{0};
  {
    std::vector<std::thread> th;
    for (int t = 0; t < clients; ++t) {
      th.emplace_back([&] {
        for (int k = next.fetch_add(1); k < static_cast<int>(firsts.size());
             k = next.fetch_add(1)) {
          QueryResponse resp = SendTraced(*svc, firsts[static_cast<std::size_t>(k)], qid0 + k,
                                          true, tr, hooks, live, mu);
          std::lock_guard<std::mutex> lock(mu);
          counts->Record(resp.status.ok() && !resp.query_cache_hit);
          live->answers[static_cast<std::size_t>(k)] = std::move(resp);
        }
      });
    }
    for (auto& t : th) t.join();
  }
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t k = 0; k < firsts.size(); ++k) {
      const QueryResponse h =
          SendTraced(*svc, firsts[k], qid0 + static_cast<int>(k), false, tr, hooks, live, mu);
      counts->Record(h.status.ok() && h.query_cache_hit && SameAnswer(h, live->answers[k]));
    }
  }
  const ServerStatsWire s1 = svc->Stats();
  live->query_hits = static_cast<double>(s1.query_cache[0] - s0.query_cache[0]);
  live->query_lookups =
      live->query_hits + static_cast<double>(s1.query_cache[1] - s0.query_cache[1]);
  live->shed = static_cast<double>((s1.queries_shed - s0.queries_shed) +
                                   (s1.queries_rejected - s0.queries_rejected));
  svc->Stop();
  svc.reset();
  if (so.worker_processes > 0) live->child_rss_mb = ChildrenPeakRssMb();
}

void LiveFleet(const Config& c, const std::string& ckpt, const std::vector<QueryRequest>& firsts,
               int repeats, Tracer& tr, int qid0, Live* live, Counts* counts) {
  Fleet f;
  double setup = 0.0;
  if (!StartFleet(c, ckpt, &f, &setup)) {
    StopFleet(&f);
    counts->Record(false);
    return;
  }
  const FatTree ft(FatTreeConfig::Small(2.0));
  f.router->Query(MakeQuery(ft, c.num_flows, c.num_paths, WorkloadSeed(c.seed, kWarmupIndex)));
  const ServerStatsWire s0 = f.router->Stats();
  live->answers.resize(firsts.size());
  for (std::size_t k = 0; k < firsts.size(); ++k) {
    const int qid = qid0 + static_cast<int>(k);
    const int root = tr.Begin("client.query", -1, qid);
    const auto t0 = Clock::now();
    live->answers[k] = f.router->Query(firsts[k]);
    live->first_ms.push_back(MsSince(t0));
    tr.End(root);
    counts->Record(live->answers[k].status.ok());
    for (int r = 0; r < repeats; ++r) {
      const int rid = tr.Begin("client.query", -1, qid);
      const QueryResponse h = f.router->Query(firsts[k]);
      tr.End(rid);
      counts->Record(h.status.ok() && SameAnswer(h, live->answers[k]));
    }
  }
  const ServerStatsWire s1 = f.router->Stats();
  live->router_hits = static_cast<double>(s1.path_cache[0] - s0.path_cache[0]);
  live->router_lookups =
      live->router_hits + static_cast<double>(s1.path_cache[1] - s0.path_cache[1]);
  for (std::size_t i = 0; i < s1.shards.size() && i < s0.shards.size(); ++i) {
    live->dispatches += static_cast<double>(s1.shards[i].dispatches - s0.shards[i].dispatches);
  }
  live->ops = static_cast<double>(firsts.size()) * (1 + repeats);
  live->shed = static_cast<double>(s1.queries_shed - s0.queries_shed);
  live->ping_ms = PingRttMs(f.socks[0], kPingSamples);
  StopFleet(&f);
  live->child_rss_mb = ChildrenPeakRssMb();
}

// Per-operation replay totals (ms per stage name, plus counts).
struct OpStages {
  std::map<std::string, double> ms;
  double paths_populated = 0, flows = 0, scenarios = 0, flops = 0;
  double req_bytes = 0, resp_bytes = 0, shard_req_bytes = 0, shard_exec_ms = 0;
};

struct ReplayState {
  std::set<Hash128> content_seen;  // NetConfig-independent scenario content
  double flowsim_calls = 0, flowsim_repeats = 0;
  LruCache<char> path_cache{4096};  // the service's per-path cache, replayed
};

template <typename Fn>
double Stage(Tracer& tr, const char* name, int parent, int qid, OpStages* op, Fn&& fn) {
  const int id = tr.Begin(name, parent, qid);
  const auto t0 = Clock::now();
  fn();
  const double ms = MsSince(t0);
  tr.End(id);
  op->ms[name] += ms;
  return ms;
}

QueryResponse AsResponse(const NetworkEstimate& e) {
  QueryResponse r;
  r.status = e.status;
  r.bucket_pct = e.bucket_pct;
  r.total_counts = e.total_counts;
  r.combined_pct = e.combined_pct;
  r.wall_seconds = e.wall_seconds;
  r.degradation = e.degradation;
  return r;
}

OpStages ReplayQuery(const Config& c, const QueryRequest& req, const QueryResponse& live_answer,
                     const ModelSnapshot& snap, EstimationService& shard_svc,
                     const std::vector<std::string>& ring_names, Tracer& tr, int qid,
                     ReplayState* state, Counts* counts) {
  OpStages op;
  bool good = true;
  const int root = tr.Begin("replay.query", -1, qid);

  Stage(tr, "cache.query_key", root, qid, &op, [&] { (void)QueryCacheKey(req, snap.digest); });
  std::string payload;
  Stage(tr, "wire.encode_request", root, qid, &op, [&] { payload = EncodeQueryRequest(req); });
  op.req_bytes = static_cast<double>(payload.size());
  Stage(tr, "wire.decode_request", root, qid, &op,
        [&] { good = DecodeQueryRequest(payload).ok() && good; });

  TopoMemo memo;
  memo.For(req.oversub, req.topo);  // a serving process holds its tree memoized
  std::shared_ptr<const FatTree> ft;
  std::vector<Flow> flows;
  Stage(tr, "router.topo_flows", root, qid, &op, [&] {
    ft = *TopoForRequest(req, &memo);
    good = BuildRequestFlows(req, *ft, &flows).ok() && good;
  });
  const Topology& topo = ft->topo();
  M3Options opts;
  opts.num_paths = req.num_paths;
  opts.seed = req.seed;
  opts.use_context = req.use_context;
  opts.max_attempts = req.max_attempts;
  opts.num_threads = 1;

  Stage(tr, "core.validate", root, qid, &op,
        [&] { good = ValidateEstimatorInputs(topo, flows, req.cfg, opts).ok() && good; });
  std::optional<PathDecomposition> decomp;
  Stage(tr, "pathdecomp.decompose", root, qid, &op, [&] { decomp.emplace(topo, flows); });
  op.paths_populated = static_cast<double>(decomp->num_paths());
  std::vector<std::size_t> sample;
  Stage(tr, "pathdecomp.sample", root, qid, &op, [&] {
    Rng rng(opts.seed);
    sample = SamplePaths(*decomp, opts.num_paths, rng);
  });

  std::vector<PathEstimate> paths(sample.size());
  std::vector<Hash128> keys(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const int p = tr.Begin("path", root, qid);
    PathScenario sc;
    Stage(tr, "pathdecomp.build", p, qid, &op, [&] {
      sc = BuildPathScenario(topo, flows, *decomp, sample[i]);
      good = ValidatePathScenario(sc).ok() && good;
    });
    Stage(tr, "cache.path_key", p, qid, &op,
          [&] { keys[i] = PathCacheKey(sc, req.cfg, req.use_context, Hash128{}); });
    // Untimed bookkeeping: has this scenario been simulated before in the
    // run, and would the per-path cache have hit?
    state->flowsim_calls += 1;
    if (!state->content_seen.insert(PathCacheKey(sc, NetConfig{}, true, Hash128{})).second) {
      state->flowsim_repeats += 1;
    }
    if (!state->path_cache.Lookup(keys[i])) state->path_cache.Insert(keys[i], 1);

    std::vector<FlowResult> fluid;
    Stage(tr, "flowsim.run", p, qid, &op, [&] { fluid = RunPathFlowSim(sc); });
    op.flows += static_cast<double>(sc.flows.size());
    op.scenarios += 1;
    ScenarioFeatures feats;
    ml::Tensor spec, baseline;
    PathEstimate pe;
    Stage(tr, "core.features", p, qid, &op, [&] {
      feats = ExtractFeatures(sc, fluid);
      spec = EncodeSpec(req.cfg, ComputePathSpec(sc, req.cfg));
      baseline = TargetToTensor(feats.flowsim_fg);
      pe.counts = FgBucketCounts(sc);
    });
    int bad_raw = 0;
    Stage(tr, "ml.forward", p, qid, &op, [&] {
      pe.pct = snap.model.Predict(feats.fg_feat, feats.bg_seq, spec, req.use_context, &baseline,
                                  &bad_raw);
    });
    op.flops += ForwardFlops(snap.model.config(), feats.bg_seq.rows());
    good = bad_raw == 0 && good;
    paths[i] = pe;
    tr.End(p);
  }

  NetworkEstimate agg;
  Stage(tr, "core.aggregate", root, qid, &op, [&] {
    ClampPathEstimates(paths);
    agg.bucket_pct = AggregateBuckets(paths);
    for (const PathEstimate& pe : paths) {
      for (int b = 0; b < kNumOutputBuckets; ++b) {
        agg.total_counts[static_cast<std::size_t>(b)] += pe.counts[static_cast<std::size_t>(b)];
      }
    }
    agg.combined_pct = CombineBuckets(agg.bucket_pct, agg.total_counts);
  });
  NetworkEstimate one, many;
  Stage(tr, "core.runm3_1t", root, qid, &op,
        [&] { one = RunM3(topo, flows, req.cfg, snap.model, opts); });
  M3Options wide = opts;
  wide.num_threads = c.nproc;
  Stage(tr, "core.runm3_nt", root, qid, &op,
        [&] { many = RunM3(topo, flows, req.cfg, snap.model, wide); });
  const QueryResponse ref = AsResponse(one);
  const bool same = one.status.ok() && SameAnswer(ref, agg) && SameAnswer(ref, many) &&
                    SameAnswer(live_answer, one);
  if (!same) std::printf("# REPLAY MISMATCH on query %d\n", qid);
  good = same && good;

  std::string rp;
  Stage(tr, "wire.encode_response", root, qid, &op, [&] { rp = EncodeQueryResponse(live_answer); });
  op.resp_bytes = static_cast<double>(rp.size());
  Stage(tr, "wire.decode_response", root, qid, &op,
        [&] { good = DecodeQueryResponse(rp).ok() && good; });

  // The router's scatter: slots grouped by ring owner, each group executed
  // as one shard would (the shards run in parallel, so the slowest counts).
  const HashRing ring(ring_names, 64);
  std::map<int, std::vector<std::uint32_t>> groups;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    groups[ring.Owner(keys[i])].push_back(static_cast<std::uint32_t>(i));
  }
  for (const auto& [shard, slots] : groups) {
    ShardQueryRequest sub;
    sub.query = req;
    sub.slots = slots;
    std::string sp;
    Stage(tr, "wire.encode_shard_request", root, qid, &op,
          [&] { sp = EncodeShardQueryRequest(sub); });
    op.shard_req_bytes += static_cast<double>(sp.size()) / static_cast<double>(groups.size());
    ShardQueryResponse sr;
    const double ms = Stage(tr, "router.shard_exec", root, qid, &op,
                            [&] { sr = shard_svc.ExecuteShard(sub); });
    op.shard_exec_ms = std::max(op.shard_exec_ms, ms);
    good = sr.status.ok() && good;
  }
  tr.End(root);
  counts->Record(good);
  return op;
}

double TracerCostUs() {
  Tracer probe;
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe.End(probe.Begin("probe", -1, 0));
  return MsSince(t0) * 1000.0 / kSpans;
}

}  // namespace

RunResult RunTraced(const Config& c, const std::string& ckpt) {
  RunResult r;
  Tracer tr;
  const FatTree ft(FatTreeConfig::Small(2.0));
  const bool sweep = c.workload == "config_sweep";
  const bool fleet = c.workload == "fleet_repeat";

  std::vector<QueryRequest> firsts;
  if (sweep) {
    const SweepPlan plan = MakeSweepPlan(c, ft);
    const int n = std::min<int>(plan.count, static_cast<int>(c.nproc));
    for (int k = 0; k < n; ++k) firsts.push_back(plan.At(k));
  } else {
    for (int i = 0; i < (c.toy ? 2 : kTraceOps); ++i) {
      firsts.push_back(MakeQuery(ft, c.num_flows, c.num_paths,
                                 WorkloadSeed(c.seed, static_cast<std::uint64_t>(i))));
    }
  }

  const int n = static_cast<int>(firsts.size());
  Live live;
  // The supervisor layer exists only in worker mode. config_sweep's way in
  // is worker mode; paper_query's traced run also sends its first-sight
  // queries through it, so the layer is measured without that workload.
  Live workers;
  if (fleet) {
    LiveFleet(c, ckpt, firsts, 2, tr, 0, &live, &r.counts);
  } else if (sweep) {
    LiveService(c, ckpt, WorkerModeOptions(c), firsts, static_cast<int>(c.nproc), 1, tr, 0,
                &live, &r.counts);
  } else {
    LiveService(c, ckpt, InProcessOptions(), firsts, 1, 2, tr, 0, &live, &r.counts);
    LiveService(c, ckpt, WorkerModeOptions(c), firsts, static_cast<int>(c.nproc), 0, tr, 2 * n,
                &workers, &r.counts);
    for (std::size_t k = 0; k < workers.answers.size() && k < live.answers.size(); ++k) {
      r.counts.Record(SameAnswer(workers.answers[k], live.answers[k]));
    }
  }
  if (live.answers.size() != firsts.size()) {
    std::printf("# live pass failed\n");
    return r;
  }
  const Live& worker_mode = sweep ? live : workers;

  ModelRegistry registry;
  if (Status st = registry.Reload(ckpt); !st.ok()) {
    r.counts.Record(false);
    return r;
  }
  const std::shared_ptr<const ModelSnapshot> snap = registry.Current();
  ServiceOptions shard_opts = InProcessOptions();
  shard_opts.threads_per_query = std::max(1u, c.nproc / 2);
  EstimationService shard_svc(shard_opts);
  if (!shard_svc.ReloadModel(ckpt).ok()) {
    r.counts.Record(false);
    return r;
  }
  std::vector<std::string> ring_names;
  for (const std::string& s : ShardSockets(c)) ring_names.push_back(ParseEndpoint(s)->ToString());

  ReplayState state;
  std::vector<OpStages> ops;
  const int qid0 = static_cast<int>(firsts.size());
  for (std::size_t k = 0; k < firsts.size(); ++k) {
    ops.push_back(ReplayQuery(c, firsts[k], live.answers[k], *snap, shard_svc, ring_names, tr,
                              qid0 + static_cast<int>(k), &state, &r.counts));
  }

  const auto mean = [&](const char* name) {
    double s = 0.0;
    for (OpStages& op : ops) s += op.ms[name];
    return s / static_cast<double>(ops.size());
  };
  const auto mean_of = [&](double OpStages::*field) {
    double s = 0.0;
    for (const OpStages& op : ops) s += op.*field;
    return s / static_cast<double>(ops.size());
  };
  double flows = 0.0, flowsim_ms = 0.0, flops = 0.0, forward_ms = 0.0;
  for (OpStages& op : ops) {
    flows += op.flows;
    flowsim_ms += op.ms["flowsim.run"];
    flops += op.flops;
    forward_ms += op.ms["ml.forward"];
  }
  const double validate = mean("core.validate"), decompose = mean("pathdecomp.decompose");
  const double sample = mean("pathdecomp.sample"), build = mean("pathdecomp.build");
  const double flowsim = mean("flowsim.run"), features = mean("core.features");
  const double forward = mean("ml.forward"), aggregate = mean("core.aggregate");
  const double one = mean("core.runm3_1t"), many = mean("core.runm3_nt");
  const double path_key = mean("cache.path_key");
  const double placement = mean("router.topo_flows") + decompose + sample + build + path_key;
  const double shard_exec = mean_of(&OpStages::shard_exec_ms);
  const double speedup = many > 0 ? one / many : 0.0;
  const CacheStats pc = state.path_cache.stats();

  Metrics& m = r.metrics;
  m.Set("pathdecomp.decompose_ms", decompose, "ms");
  m.Set("pathdecomp.sample_ms", sample, "ms");
  m.Set("pathdecomp.build_ms", build, "ms");
  m.Set("pathdecomp.paths_populated", mean_of(&OpStages::paths_populated), "count");
  m.Set("pathdecomp.flows_per_scenario", flows / std::max(1.0, mean_of(&OpStages::scenarios) *
                                                                   static_cast<double>(ops.size())),
        "count");
  m.Set("flowsim.run_ms", flowsim, "ms");
  m.Set("flowsim.flows_per_s", flowsim_ms > 0 ? flows / (flowsim_ms / 1000.0) : 0.0, "1/s");
  m.Set("flowsim.repeat_frac",
        state.flowsim_calls > 0 ? state.flowsim_repeats / state.flowsim_calls : 0.0, "ratio");
  m.Set("core.validate_ms", validate, "ms");
  m.Set("core.features_ms", features, "ms");
  m.Set("core.aggregate_ms", aggregate, "ms");
  m.Set("core.runm3_1t_ms", one, "ms");
  m.Set("core.runm3_nt_ms", many, "ms");
  const double overhead =
      one - (validate + decompose + sample + build + flowsim + features + forward + aggregate);
  m.Set("core.overhead_ms", overhead, "ms");
  m.Set("ml.forward_ms", forward, "ms");
  m.Set("ml.forward_gflops", forward_ms > 0 ? flops / (forward_ms / 1000.0) / 1e9 : 0.0,
        "GFLOP/s");
  m.Set("parallel.speedup", speedup, "x");
  m.Set("parallel.efficiency", speedup / static_cast<double>(c.nproc), "ratio");
  // The fleet's shards run the scatter on their connection threads, with no
  // scheduler queue; their execution is the replayed shard work.
  m.Set("service.queue_wait_ms", fleet ? 0.0 : Mean(live.queue_ms), "ms");
  m.Set("service.exec_ms", fleet ? shard_exec : Mean(live.exec_ms), "ms");
  m.Set("service.shed", live.shed, "count");
  m.Set("supervisor.overhead_ms",
        worker_mode.exec_ms.empty() ? 0.0 : Mean(worker_mode.exec_ms) - one, "ms");
  m.Set("proc.child_peak_rss_mb", fleet ? live.child_rss_mb : worker_mode.child_rss_mb, "MiB");
  m.Set("cache.query_hit_ratio",
        live.query_lookups > 0 ? live.query_hits / live.query_lookups : 0.0, "ratio");
  m.Set("cache.query_lookups", live.query_lookups, "count");
  m.Set("cache.path_hit_ratio",
        pc.hits + pc.misses > 0 ? static_cast<double>(pc.hits) / double(pc.hits + pc.misses)
                                : 0.0,
        "ratio");
  m.Set("cache.path_lookups", static_cast<double>(pc.hits + pc.misses), "count");
  m.Set("cache.query_key_ms", mean("cache.query_key"), "ms");
  m.Set("cache.path_key_ms", path_key, "ms");
  m.Set("wire.request_bytes", mean_of(&OpStages::req_bytes), "bytes");
  m.Set("wire.response_bytes", mean_of(&OpStages::resp_bytes), "bytes");
  m.Set("wire.shard_request_bytes", mean_of(&OpStages::shard_req_bytes), "bytes");
  m.Set("wire.encode_request_ms", mean("wire.encode_request"), "ms");
  m.Set("wire.decode_request_ms", mean("wire.decode_request"), "ms");
  m.Set("wire.encode_response_ms", mean("wire.encode_response"), "ms");
  m.Set("wire.decode_response_ms", mean("wire.decode_response"), "ms");
  m.Set("router.placement_ms", placement, "ms");
  m.Set("router.shard_exec_ms", shard_exec, "ms");
  m.Set("router.scatter_overhead_ms",
        fleet ? Median(live.first_ms) - placement - shard_exec : 0.0, "ms");
  m.Set("router.path_hit_ratio",
        live.router_lookups > 0 ? live.router_hits / live.router_lookups : 0.0, "ratio");
  m.Set("router.dispatches_per_query", live.ops > 0 ? live.dispatches / live.ops : 0.0,
        "count");
  m.Set("ipc.ping_rtt_ms", live.ping_ms, "ms");

  tr.PrintSelfTimes();
  const std::vector<Span> spans = tr.spans();
  double traced_ms = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) traced_ms += double(s.end_ns - s.start_ns) * 1e-6;
  }
  const double cost_us = TracerCostUs();
  std::printf("# tracing overhead: %zu spans x %.3f us = %.3f ms (%.3f%% of %.1f ms traced)\n",
              spans.size(), cost_us, spans.size() * cost_us / 1000.0,
              traced_ms > 0 ? 100.0 * spans.size() * cost_us / 1000.0 / traced_ms : 0.0,
              traced_ms);
  std::printf("# replayed stages %.3f ms + core.overhead_ms %.3f ms = core.runm3_1t_ms %.3f ms\n",
              one - overhead, overhead, one);
  const std::string header = "{\"workload\": \"" + c.workload + "\", \"seed\": " +
                             std::to_string(c.seed) + ", \"host\": \"" + HostFingerprint(c) +
                             "\"}";
  if (tr.WriteJson(c.trace_path, header)) {
    std::printf("# trace: %zu spans written to %s\n", spans.size(), c.trace_path.c_str());
  } else {
    std::printf("# trace: could not write %s\n", c.trace_path.c_str());
    r.counts.correct = false;
  }
  return r;
}

}  // namespace perfbench
