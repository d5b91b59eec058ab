// Golden pins for model answers: the RunM3 answer on the six golden
// queries (golden_queries.h), hashed over use_context on and off, pinned
// per kernel implementation for two models:
//   - "init":    the default M3ModelConfig at its fixed init_seed;
//   - "trained": a small model trained here by TrainModel with a fixed seed
//                (training is bitwise deterministic per kernel tier, so
//                nothing is downloaded and each tier trains its own).
// Every way into the estimator must give the pinned bits: RunM3 on one
// thread and on many, the in-process EstimationService, a shard slot split
// (ExecuteShardOnSnapshot) merged back the way m3d-router merges it, m3d in
// worker mode, and a live m3d-router over 1 and over 3 in-process shard
// daemons, including an exact repeat the router's cache answers and a
// router restarted on the same cache directory.
//
// All available tiers are checked in one run. With M3_KERNEL set, only the
// tier it selects is. A tier the CPU lacks is skipped. The sanitizer builds
// have their own table (kFlavor). On a deliberate change of model answers,
// tools/bless_golden.sh regenerates a build's table: every mismatching pin
// prints a `golden-model <flavor> <model> <query> <tier> <hex>` line that
// the script pastes back here.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/estimator.h"
#include "core/trainer.h"
#include "golden_queries.h"
#include "ml/kernels.h"
#include "serve/exec.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"

namespace m3 {
namespace {

using ml::kernels::KernelImpl;

// Build flavor of the pins: "opt" is the plain optimized build; "san" the
// sanitizer builds (M3_SANITIZE), whose kernels round a few multiply-adds
// differently (see the top-level CMakeLists.txt).
#ifdef M3_SANITIZED_BUILD
constexpr const char* kFlavor = "san";
#else
constexpr const char* kFlavor = "opt";
#endif

struct ModelPin {
  const char* flavor;  // "opt" | "san"
  const char* model;  // "init" | "trained"
  const char* query;  // GoldenQuery::name
  const char* tier;   // KernelImplName
  const char* hex;    // RunM3 answers, use_context on then off
};

// clang-format off
const ModelPin kModelPins[] = {
    {"opt", "init", "web_B_x2", "naive", "571900127489c0ee1420165527f92de7"},
    {"opt", "init", "web_B_x2", "tiled", "a18e087cad8bf15114a0f0803d49d956"},
    {"opt", "init", "web_B_x2", "avx2", "d3de4ff55511edcd135fba42df32ebb3"},
    {"opt", "init", "web_B_x2", "avx512", "3862121f004706b0bbb0aca36dc6808c"},
    {"opt", "init", "cache_A_x1", "naive", "7dbb49f5de2536bb076e9f70f65f27ee"},
    {"opt", "init", "cache_A_x1", "tiled", "8ac42e2332ba2fff66a3f876bcc21652"},
    {"opt", "init", "cache_A_x1", "avx2", "daea39f1f07fb469df91aaeace15f894"},
    {"opt", "init", "cache_A_x1", "avx512", "b8ccf2b7d91b99675589e89d3183ec87"},
    {"opt", "init", "hadoop_C_x4", "naive", "f8606549869a1ebd8590f33fb9799f89"},
    {"opt", "init", "hadoop_C_x4", "tiled", "30b74d49f958deacd259eaf41d55c899"},
    {"opt", "init", "hadoop_C_x4", "avx2", "0b10093f4a730f22b46c55a39d538d93"},
    {"opt", "init", "hadoop_C_x4", "avx512", "ce6fad4c950f40c7acc363b773601dd1"},
    {"opt", "init", "web_B_prio", "naive", "45d3415919b1e511a8c85ff12e1a8695"},
    {"opt", "init", "web_B_prio", "tiled", "e4f8f2b2391a5511f78ae4c9c4627c65"},
    {"opt", "init", "web_B_prio", "avx2", "3db4debb9a6c0debb0a0790fa6aaab43"},
    {"opt", "init", "web_B_prio", "avx512", "bf7230f082aa3a869efc95b04f520ae9"},
    {"opt", "init", "web_A_p100", "naive", "bea06dfb86fdd46c6776dbd4eac3279a"},
    {"opt", "init", "web_A_p100", "tiled", "8490309152064d78846c141ad58bfa03"},
    {"opt", "init", "web_A_p100", "avx2", "f088ef79c23ad3f89ce0e9e85c3e0de6"},
    {"opt", "init", "web_A_p100", "avx512", "eeef9065e1ccf5ea07c76c1556779806"},
    {"opt", "init", "cache_C_prio_p8", "naive", "edc508973e731d30511c036e0b38ac36"},
    {"opt", "init", "cache_C_prio_p8", "tiled", "f1e53c137859b3ca415da6ea2eca22b9"},
    {"opt", "init", "cache_C_prio_p8", "avx2", "ee644d2e3a679202ee07eb02aacd5bae"},
    {"opt", "init", "cache_C_prio_p8", "avx512", "66d511a880d005e2e1c14865fbfc96a4"},
    {"opt", "trained", "web_B_x2", "naive", "4fec9e832fa41eaf9aca4455352e34f3"},
    {"opt", "trained", "web_B_x2", "tiled", "8b7c0ac9d38b81dec83ee59a9aa6441e"},
    {"opt", "trained", "web_B_x2", "avx2", "af12d96111baab816722d8675a71f0b2"},
    {"opt", "trained", "web_B_x2", "avx512", "e24823de5faf9ffc6f6d31cd1de7d151"},
    {"opt", "trained", "cache_A_x1", "naive", "ed0103e0be8e2b8c5b1500b841c27795"},
    {"opt", "trained", "cache_A_x1", "tiled", "7859821ae82accf6573376f7fb24eb74"},
    {"opt", "trained", "cache_A_x1", "avx2", "a1e44d80f33d168f817c1e5343df1183"},
    {"opt", "trained", "cache_A_x1", "avx512", "12f98fd0ed5e2159ba2a9003d5130670"},
    {"opt", "trained", "hadoop_C_x4", "naive", "de3182d9bc53c59f8d7df3c66accbf56"},
    {"opt", "trained", "hadoop_C_x4", "tiled", "4ee8e36b845b502505c445d9027082c1"},
    {"opt", "trained", "hadoop_C_x4", "avx2", "f8e0e666a8c71137fb3a4f1fa3367486"},
    {"opt", "trained", "hadoop_C_x4", "avx512", "6a1c29ecb158c970661b7119dfe8c512"},
    {"opt", "trained", "web_B_prio", "naive", "ba1ccf415ecde3937b3ac92170aa6a47"},
    {"opt", "trained", "web_B_prio", "tiled", "d3b1c92f7dfac52934c25c85110540e4"},
    {"opt", "trained", "web_B_prio", "avx2", "8fe6d049de7ac9eb9522e882e28cfd98"},
    {"opt", "trained", "web_B_prio", "avx512", "f1f5d0c6b43f00359f424defec2f49b8"},
    {"opt", "trained", "web_A_p100", "naive", "f2f3c536d7a4067183141d991917fd0f"},
    {"opt", "trained", "web_A_p100", "tiled", "9645cb3fdd3e2a18096de78a2750c54f"},
    {"opt", "trained", "web_A_p100", "avx2", "9c3dbd40b3fd98881c8ccf98364f3483"},
    {"opt", "trained", "web_A_p100", "avx512", "60a1c3878983f1e6e68285c842230180"},
    {"opt", "trained", "cache_C_prio_p8", "naive", "e209bb41255c6a164e66e9cd2c58ca32"},
    {"opt", "trained", "cache_C_prio_p8", "tiled", "a54f01b1782952f8ec730950d89cbf65"},
    {"opt", "trained", "cache_C_prio_p8", "avx2", "327ff3e0a3a6ade81069bf01f818a81d"},
    {"opt", "trained", "cache_C_prio_p8", "avx512", "296174abb10631f53e0934180c1f41fe"},
    {"san", "init", "web_B_x2", "naive", "3bdd2606829e7b7259de1a9cc981be5f"},
    {"san", "init", "web_B_x2", "tiled", "8577aa42e0a7c5da0845b4f9e4f33967"},
    {"san", "init", "web_B_x2", "avx2", "090704ee660dff2ef801e069a69e327a"},
    {"san", "init", "web_B_x2", "avx512", "c1815070dd04b15340941bd5b649eb36"},
    {"san", "init", "cache_A_x1", "naive", "97503d4ebb8e63cbe30d5f4b8d7fbc9d"},
    {"san", "init", "cache_A_x1", "tiled", "221894c6472b8a3d2559b43cb3b12d50"},
    {"san", "init", "cache_A_x1", "avx2", "6c6c8aeb1916313e9d6407bffac0e06e"},
    {"san", "init", "cache_A_x1", "avx512", "407572d14c31567f4b5c8de85ac4f141"},
    {"san", "init", "hadoop_C_x4", "naive", "1295cfd2884e229f7605d7aed0547a38"},
    {"san", "init", "hadoop_C_x4", "tiled", "6397d7aadef870d80b2a4a489c09c598"},
    {"san", "init", "hadoop_C_x4", "avx2", "1776aa5c5fa89f9a8e2b2a21f7f20296"},
    {"san", "init", "hadoop_C_x4", "avx512", "36b452306fd143e88ed75138d7a1fca0"},
    {"san", "init", "web_B_prio", "naive", "b05958118a420acf55fd36a2b7acb956"},
    {"san", "init", "web_B_prio", "tiled", "22eb8077adcb4ec45790c4ed40b7d053"},
    {"san", "init", "web_B_prio", "avx2", "f82ced7eccec637c15d58f575b43feb2"},
    {"san", "init", "web_B_prio", "avx512", "1a7b4cb36459b4a247ca07e6a290dd01"},
    {"san", "init", "web_A_p100", "naive", "36038343c17ddd2acf500489dbba67f8"},
    {"san", "init", "web_A_p100", "tiled", "77854011ce0767cb54dae6dec045dbf5"},
    {"san", "init", "web_A_p100", "avx2", "9ba90960edc213aebe7e377178bb1af8"},
    {"san", "init", "web_A_p100", "avx512", "2d75288afa284779f8b15cbe6a66d30b"},
    {"san", "init", "cache_C_prio_p8", "naive", "15fea94ad70d7cae607f6648efaa006f"},
    {"san", "init", "cache_C_prio_p8", "tiled", "08ba91472b1d850ef908580d44b34a8a"},
    {"san", "init", "cache_C_prio_p8", "avx2", "d8d2536e53611663e74cab0ceecf5c1d"},
    {"san", "init", "cache_C_prio_p8", "avx512", "8f4d9b42f110fc6241e2d27835521ab9"},
    {"san", "trained", "web_B_x2", "naive", "2122b5a660ef9c3e5511b1ab2448eef2"},
    {"san", "trained", "web_B_x2", "tiled", "89c8e579efc914ba8789c5ae6ebaf423"},
    {"san", "trained", "web_B_x2", "avx2", "20a5f7b63e20025e94bd9df0741439be"},
    {"san", "trained", "web_B_x2", "avx512", "a483420e67a36b825495d70d2270dcc2"},
    {"san", "trained", "cache_A_x1", "naive", "37c5e37792a411b634c63194f262ca3b"},
    {"san", "trained", "cache_A_x1", "tiled", "67cd6221d990d1bceefbed400240b409"},
    {"san", "trained", "cache_A_x1", "avx2", "b75547b289df66504b35160b4929fd0a"},
    {"san", "trained", "cache_A_x1", "avx512", "abe893987806a99152f74bf5d8589030"},
    {"san", "trained", "hadoop_C_x4", "naive", "627cd6200a40d8f6d9f7acb16aa3a119"},
    {"san", "trained", "hadoop_C_x4", "tiled", "0552689ba28270457dcefa732839111f"},
    {"san", "trained", "hadoop_C_x4", "avx2", "ffdfde018d71903ea19adc328c983f3e"},
    {"san", "trained", "hadoop_C_x4", "avx512", "78fb8ea6e4feebad5699f1ff91ed78d3"},
    {"san", "trained", "web_B_prio", "naive", "def5cea1605d9bdaae52e2dd1690407e"},
    {"san", "trained", "web_B_prio", "tiled", "a592e17e543a84ebbba73f84c2bfaf66"},
    {"san", "trained", "web_B_prio", "avx2", "ec7b35cc73b9b5db84dd18de3c63136e"},
    {"san", "trained", "web_B_prio", "avx512", "577d188cabccca306ba498d236b235b7"},
    {"san", "trained", "web_A_p100", "naive", "fc220d8760203034364eb8126c318e18"},
    {"san", "trained", "web_A_p100", "tiled", "c8083bc2370fef92dd7b6d2fbf52317b"},
    {"san", "trained", "web_A_p100", "avx2", "14d305dab07eb41b2c08c0366d0ab2d0"},
    {"san", "trained", "web_A_p100", "avx512", "df1557bd53477a7bcf24a901caf87b74"},
    {"san", "trained", "cache_C_prio_p8", "naive", "726bbc1eb2e4bb734ee08f522acd8d55"},
    {"san", "trained", "cache_C_prio_p8", "tiled", "1420be82b7cd5d57c9544ef6e72fc2a8"},
    {"san", "trained", "cache_C_prio_p8", "avx2", "3a4f9d9c65d95b1522ccb6aee60d1740"},
    {"san", "trained", "cache_C_prio_p8", "avx512", "d6341b72d7e35cecfb1187250a804778"},
};
// clang-format on

std::string PinFor(const std::string& model, const std::string& query, KernelImpl tier) {
  for (const ModelPin& p : kModelPins) {
    if (std::string(kFlavor) == p.flavor && model == p.model && query == p.query &&
        std::string(ml::kernels::KernelImplName(tier)) == p.tier) {
      return p.hex;
    }
  }
  return "(no pin)";
}

// Restores the previously active kernel implementation on scope exit.
class ImplGuard {
 public:
  explicit ImplGuard(KernelImpl impl) : prev_(ml::kernels::GetKernelImpl()) {
    ml::kernels::SetKernelImpl(impl);
  }
  ~ImplGuard() { ml::kernels::SetKernelImpl(prev_); }

 private:
  KernelImpl prev_;
};

// Every available tier, or only the one M3_KERNEL selects when it is set.
std::vector<KernelImpl> PinnedTiers() {
  const char* forced = std::getenv("M3_KERNEL");
  if (forced != nullptr && *forced != '\0') return {ml::kernels::GetKernelImpl()};
  std::vector<KernelImpl> tiers;
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kTiled, KernelImpl::kAvx2,
                          KernelImpl::kAvx512}) {
    if (ml::kernels::KernelImplAvailable(impl)) {
      tiers.push_back(impl);
    } else {
      std::cout << "[ skipped ] kernel tier " << ml::kernels::KernelImplName(impl)
                << ": not supported by this CPU\n";
    }
  }
  return tiers;
}

M3ModelConfig TrainedConfig() {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  cfg.init_seed = 99;
  return cfg;
}

const std::vector<Sample>& TrainingSet() {
  static const std::vector<Sample> samples = [] {
    DatasetOptions opts;
    opts.num_scenarios = 8;
    opts.num_fg = 80;
    opts.seed = 21;
    return MakeSyntheticDataset(opts);
  }();
  return samples;
}

// The model named `name` as the active kernel tier produces it, saved to a
// checkpoint so the serving ways load exactly the same parameters.
struct PinnedModel {
  M3ModelConfig cfg;
  std::unique_ptr<M3Model> model;
  std::string checkpoint;
};

PinnedModel MakeModel(const std::string& name) {
  PinnedModel pm;
  pm.cfg = name == "init" ? M3ModelConfig() : TrainedConfig();
  pm.model = std::make_unique<M3Model>(pm.cfg);
  if (name == "trained") {
    TrainOptions topts;
    topts.epochs = 3;
    topts.batch_size = 8;
    topts.seed = 13;
    TrainModel(*pm.model, TrainingSet(), topts);
  }
  pm.checkpoint = ::testing::TempDir() + "/golden_model_" + name + "_" +
                  ml::kernels::KernelImplName(ml::kernels::GetKernelImpl()) + ".ckpt";
  pm.model->Save(pm.checkpoint);
  return pm;
}

serve::QueryRequest ToRequest(const GoldenQuery& q, const BuiltQuery& b, bool use_context) {
  serve::QueryRequest req;
  req.oversub = q.oversub;
  req.num_paths = q.num_paths;
  req.seed = q.seed;
  req.use_context = use_context;
  req.flows.reserve(b.flows.size());
  for (const Flow& f : b.flows) {
    serve::WireFlow wf;
    wf.id = f.id;
    wf.src_host = b.ft->HostIndexOf(f.src);
    wf.dst_host = b.ft->HostIndexOf(f.dst);
    wf.size = f.size;
    wf.arrival = f.arrival;
    wf.priority = f.priority;
    req.flows.push_back(wf);
  }
  return req;
}

NetworkEstimate RunDirect(const serve::QueryRequest& req, const BuiltQuery& b, M3Model& model,
                          unsigned threads) {
  std::vector<Flow> flows;
  const Status built = serve::BuildRequestFlows(req, *b.ft, &flows);
  EXPECT_TRUE(built.ok()) << built.ToString();
  M3Options opts;
  opts.num_paths = req.num_paths;
  opts.seed = req.seed;
  opts.use_context = req.use_context;
  opts.num_threads = threads;
  return RunM3(b.ft->topo(), flows, req.cfg, model, opts);
}

// Three disjoint slot sets, merged and re-aggregated as m3d-router does.
NetworkEstimate RunShardSplit(const serve::QueryRequest& req, const PinnedModel& pm) {
  serve::ModelRegistry reg(pm.cfg);
  const Status loaded = reg.Reload(pm.checkpoint);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  serve::TopoMemo topos;
  serve::ExecContext ctx;
  ctx.topos = &topos;
  NetworkEstimate est;
  est.paths.resize(static_cast<std::size_t>(req.num_paths));
  for (int part = 0; part < 3; ++part) {
    serve::ShardQueryRequest sub;
    sub.query = req;
    for (int s = part; s < req.num_paths; s += 3) sub.slots.push_back(static_cast<std::uint32_t>(s));
    const serve::ShardQueryResponse got = serve::ExecuteShardOnSnapshot(sub, *reg.Current(), ctx);
    EXPECT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.estimates.size(), sub.slots.size());
    for (const serve::SlotEstimateWire& se : got.estimates) est.paths[se.slot] = se.estimate;
  }
  ClampPathEstimates(est.paths);
  est.bucket_pct = AggregateBuckets(est.paths);
  for (const PathEstimate& pe : est.paths) {
    for (std::size_t b = 0; b < pe.counts.size(); ++b) est.total_counts[b] += pe.counts[b];
  }
  est.combined_pct = CombineBuckets(est.bucket_pct, est.total_counts);
  return est;
}

// The ways in. Each returns the aggregate answer for one request.
enum class Way {
  kOneThread,
  kThreads,
  kService,
  kShardSplit,
  kWorkers,
  kRouter1,
  kRouter3,
  kRouterRepeat,
  kRouterRestart,
};

const char* WayName(Way w) {
  switch (w) {
    case Way::kOneThread: return "RunM3 1 thread";
    case Way::kThreads: return "RunM3 N threads";
    case Way::kService: return "EstimationService";
    case Way::kShardSplit: return "ExecuteShard split";
    case Way::kWorkers: return "EstimationService, 2 worker processes";
    case Way::kRouter1: return "Router over 1 shard";
    case Way::kRouter3: return "Router over 3 shards";
    case Way::kRouterRepeat: return "Router exact repeat";
    case Way::kRouterRestart: return "Router restarted on its cache_dir";
  }
  return "?";
}

bool IsRouterWay(Way w) {
  return w == Way::kRouter1 || w == Way::kRouter3 || w == Way::kRouterRepeat ||
         w == Way::kRouterRestart;
}

// Pin services run with brownout off: a browned-out answer is degraded on
// purpose and would not be a pin mismatch.
serve::ServiceOptions PinServiceOptions(const PinnedModel& pm) {
  serve::ServiceOptions so;
  so.model_config = pm.cfg;
  so.num_workers = 1;
  so.brownout_enabled = false;
  return so;
}

// An in-process shard daemon: an EstimationService behind a SocketServer.
struct LiveShard {
  std::unique_ptr<serve::EstimationService> service;
  std::unique_ptr<serve::SocketServer> server;
  std::string path;

  ~LiveShard() {
    if (server) server->Stop();
    if (service) service->Stop();
  }
};

// The serving ways of one model on one kernel tier. Each member is started
// only when a way needs it, and lives until the tier is done.
struct Serving {
  std::unique_ptr<serve::EstimationService> service;  // in-process
  std::unique_ptr<serve::EstimationService> workers;  // worker_processes 2
  std::vector<std::unique_ptr<LiveShard>> shards;     // 3 shard daemons
  std::string cache_dir;                               // router restart way

  ~Serving() {
    if (!cache_dir.empty()) std::filesystem::remove_all(cache_dir);
  }
};

// Names unique to this process and call, short enough for a unix socket.
std::string ScratchName(const std::string& what) {
  static int seq = 0;
  return ::testing::TempDir() + "/gm" + std::to_string(static_cast<long>(::getpid())) + "_" +
         std::to_string(seq++) + what;
}

void StartServing(const std::vector<Way>& ways, const PinnedModel& pm, Serving* s) {
  const auto uses = [&ways](Way w) { return std::find(ways.begin(), ways.end(), w) != ways.end(); };
  if (uses(Way::kService)) {
    s->service = std::make_unique<serve::EstimationService>(PinServiceOptions(pm));
    ASSERT_TRUE(s->service->ReloadModel(pm.checkpoint).ok());
    ASSERT_TRUE(s->service->Start().ok());
  }
  if (uses(Way::kWorkers)) {
    serve::ServiceOptions so = PinServiceOptions(pm);
    so.worker_processes = 2;
    s->workers = std::make_unique<serve::EstimationService>(so);
    ASSERT_TRUE(s->workers->ReloadModel(pm.checkpoint).ok());
    ASSERT_TRUE(s->workers->Start().ok());
  }
  if (std::any_of(ways.begin(), ways.end(), IsRouterWay)) {
    for (int i = 0; i < 3; ++i) {
      auto shard = std::make_unique<LiveShard>();
      shard->path = ScratchName(".sock");
      shard->service = std::make_unique<serve::EstimationService>(PinServiceOptions(pm));
      ASSERT_TRUE(shard->service->ReloadModel(pm.checkpoint).ok());
      ASSERT_TRUE(shard->service->Start().ok());
      shard->server = std::make_unique<serve::SocketServer>(*shard->service);
      ASSERT_TRUE(shard->server->Start(shard->path).ok());
      s->shards.push_back(std::move(shard));
    }
    // One directory per tier: the init model has the same parameters (and
    // so the same CRC) on every tier, but not the same answers.
    s->cache_dir = ScratchName("_cache");
    std::filesystem::remove_all(s->cache_dir);
  }
}

std::uint64_t Dispatches(const serve::Router& router) {
  std::uint64_t n = 0;
  for (const serve::ShardHealthWire& sh : router.Stats().shards) n += sh.dispatches;
  return n;
}

// One answer through a live m3d-router. The repeat and restart ways return
// the query's second sending, which the router's cache must answer without
// dispatching to any shard.
serve::QueryResponse RouterAnswer(Way way, const serve::QueryRequest& req, Serving& s) {
  serve::RouterOptions ro;
  const std::size_t n = way == Way::kRouter1 ? 1 : s.shards.size();
  for (std::size_t i = 0; i < n; ++i) ro.shards.push_back(s.shards[i]->path);
  if (way == Way::kRouterRestart) {
    ro.cache_dir = s.cache_dir;
    ro.cache_flush_interval_seconds = 60.0;  // flushed explicitly below
  }
  serve::QueryResponse resp;
  {
    serve::Router router(ro);
    EXPECT_TRUE(router.Start().ok());
    router.WaitForPersistRecovery();
    resp = router.Query(req);
    if (way == Way::kRouterRepeat) {
      const std::uint64_t before = Dispatches(router);
      resp = router.Query(req);
      EXPECT_EQ(Dispatches(router), before) << "the repeat reached a shard";
    }
    if (way == Way::kRouterRestart) {
      EXPECT_TRUE(router.FlushPersistNow().ok());
    }
  }
  if (way == Way::kRouterRestart) {
    serve::Router router(ro);
    EXPECT_TRUE(router.Start().ok());
    router.WaitForPersistRecovery();
    resp = router.Query(req);
    EXPECT_EQ(Dispatches(router), 0u) << "the restarted router dispatched a cached query";
  }
  return resp;
}

// Hash of the query's answers with use_context on, then off, via `way`.
std::string ModelAnswerHex(Way way, const GoldenQuery& q, const BuiltQuery& b,
                           PinnedModel& pm, Serving& serving) {
  Hasher h;
  for (bool use_context : {true, false}) {
    const serve::QueryRequest req = ToRequest(q, b, use_context);
    switch (way) {
      case Way::kOneThread:
      case Way::kThreads: {
        const unsigned threads =
            way == Way::kOneThread ? 1u : std::max(2u, std::thread::hardware_concurrency());
        const NetworkEstimate est = RunDirect(req, b, *pm.model, threads);
        EXPECT_TRUE(est.status.ok()) << est.status.ToString();
        AbsorbAnswer(h, est);
        break;
      }
      case Way::kService:
      case Way::kWorkers: {
        serve::EstimationService& svc =
            way == Way::kService ? *serving.service : *serving.workers;
        const serve::QueryResponse resp = svc.Query(req);
        EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
        AbsorbAnswer(h, resp);
        break;
      }
      case Way::kShardSplit:
        AbsorbAnswer(h, RunShardSplit(req, pm));
        break;
      case Way::kRouter1:
      case Way::kRouter3:
      case Way::kRouterRepeat:
      case Way::kRouterRestart: {
        const serve::QueryResponse resp = RouterAnswer(way, req, serving);
        EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
        AbsorbAnswer(h, resp);
        break;
      }
    }
  }
  return h.Finish().ToHex();
}

class GoldenModel : public ::testing::TestWithParam<const char*> {
 protected:
  void CheckWays(const std::vector<Way>& ways) {
    const std::string name = GetParam();
    std::vector<BuiltQuery> built;
    for (const GoldenQuery& q : kGoldenQueries) built.push_back(BuildGoldenQuery(q));
    for (KernelImpl tier : PinnedTiers()) {
      ImplGuard guard(tier);
      const char* tier_name = ml::kernels::KernelImplName(tier);
      PinnedModel pm = MakeModel(name);
      Serving serving;
      StartServing(ways, pm, &serving);
      if (HasFatalFailure()) return;
      for (std::size_t qi = 0; qi < std::size(kGoldenQueries); ++qi) {
        const GoldenQuery& q = kGoldenQueries[qi];
        const std::string pin = PinFor(name, q.name, tier);
        for (Way way : ways) {
          const std::string got = ModelAnswerHex(way, q, built[qi], pm, serving);
          EXPECT_EQ(got, pin) << name << " model, " << q.name << ", " << tier_name << ", "
                              << WayName(way);
          if (way == Way::kOneThread && got != pin) {
            std::cout << "golden-model " << kFlavor << ' ' << name << ' ' << q.name << ' ' << tier_name << ' '
                      << got << '\n';
          }
        }
      }
    }
  }
};

TEST_P(GoldenModel, RunM3OneThreadMatchesThePins) { CheckWays({Way::kOneThread}); }

TEST_P(GoldenModel, EveryWayInGivesThePinnedBits) {
  CheckWays({Way::kThreads, Way::kService, Way::kShardSplit});
}

TEST_P(GoldenModel, WorkerModeGivesThePinnedBits) { CheckWays({Way::kWorkers}); }

TEST_P(GoldenModel, RouterWaysGiveThePinnedBits) {
  CheckWays({Way::kRouter1, Way::kRouter3, Way::kRouterRepeat, Way::kRouterRestart});
}

INSTANTIATE_TEST_SUITE_P(Models, GoldenModel, ::testing::Values("init", "trained"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace m3
