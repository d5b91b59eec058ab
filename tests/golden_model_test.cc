// Golden pins for model answers: the RunM3 answer on the six golden
// queries (golden_queries.h), hashed over use_context on and off, pinned
// per kernel tier (naive, avx2, avx512) for two models:
//   - "init":    the default M3ModelConfig at its fixed init_seed;
//   - "trained": a small model trained here by TrainModel with a fixed seed
//                (training is bitwise deterministic per kernel tier, so
//                nothing is downloaded and each tier trains its own).
// Every way into the estimator must give the pinned bits: RunM3 on one
// thread and on many, the in-process EstimationService, a shard slot split
// (ExecuteShardOnSnapshot) merged back the way m3d-router merges it, m3d in
// worker mode, and a live m3d-router over 1 and over 3 in-process shard
// daemons, including an exact repeat the router's cache answers.
//
// The pins also hold each model's identity as a served load computes it
// (ModelRegistry: param_crc, then the digest), which every cache key's
// model term depends on.
//
// All available tiers are checked in one run. With M3_KERNEL set, only the
// tier it selects is. A tier the CPU lacks is skipped. The sanitizer builds
// have their own table (kFlavor). On a deliberate change of model answers,
// tools/bless_golden.sh regenerates a build's table: every mismatching pin
// prints a `golden-model <flavor> <model> <query> <tier> <hex>` line that
// the script pastes back here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
#include "temp_path.h"

namespace m3 {
namespace {

using ml::kernels::KernelImpl;

// Build flavor of the pins: "opt" is the plain optimized build; "san" the
// sanitizer builds (M3_SANITIZE), whose AVX kernel tiers round a few
// multiply-adds differently (see the top-level CMakeLists.txt). The naive
// tier has no FMA to contract, so its "opt" and "san" rows are equal.
#ifdef M3_SANITIZED_BUILD
constexpr const char* kFlavor = "san";
#else
constexpr const char* kFlavor = "opt";
#endif

struct ModelPin {
  const char* flavor;  // "opt" | "san"
  const char* model;  // "init" | "trained"
  const char* query;  // GoldenQuery::name, or "identity"
  const char* tier;   // KernelImplName
  const char* hex;    // RunM3 answers, use_context on then off; for
                      // "identity", param_crc (8 hex digits) then digest
};

// clang-format off
const ModelPin kModelPins[] = {
    {"opt", "init", "web_B_x2", "naive", "571900127489c0ee1420165527f92de7"},
    {"opt", "init", "web_B_x2", "avx2", "d3de4ff55511edcd135fba42df32ebb3"},
    {"opt", "init", "web_B_x2", "avx512", "3862121f004706b0bbb0aca36dc6808c"},
    {"opt", "init", "cache_A_x1", "naive", "7dbb49f5de2536bb076e9f70f65f27ee"},
    {"opt", "init", "cache_A_x1", "avx2", "daea39f1f07fb469df91aaeace15f894"},
    {"opt", "init", "cache_A_x1", "avx512", "b8ccf2b7d91b99675589e89d3183ec87"},
    {"opt", "init", "hadoop_C_x4", "naive", "f8606549869a1ebd8590f33fb9799f89"},
    {"opt", "init", "hadoop_C_x4", "avx2", "0b10093f4a730f22b46c55a39d538d93"},
    {"opt", "init", "hadoop_C_x4", "avx512", "ce6fad4c950f40c7acc363b773601dd1"},
    {"opt", "init", "web_B_prio", "naive", "45d3415919b1e511a8c85ff12e1a8695"},
    {"opt", "init", "web_B_prio", "avx2", "3db4debb9a6c0debb0a0790fa6aaab43"},
    {"opt", "init", "web_B_prio", "avx512", "bf7230f082aa3a869efc95b04f520ae9"},
    {"opt", "init", "web_A_p100", "naive", "bea06dfb86fdd46c6776dbd4eac3279a"},
    {"opt", "init", "web_A_p100", "avx2", "f088ef79c23ad3f89ce0e9e85c3e0de6"},
    {"opt", "init", "web_A_p100", "avx512", "eeef9065e1ccf5ea07c76c1556779806"},
    {"opt", "init", "cache_C_prio_p8", "naive", "edc508973e731d30511c036e0b38ac36"},
    {"opt", "init", "cache_C_prio_p8", "avx2", "ee644d2e3a679202ee07eb02aacd5bae"},
    {"opt", "init", "cache_C_prio_p8", "avx512", "66d511a880d005e2e1c14865fbfc96a4"},
    {"opt", "trained", "web_B_x2", "naive", "d96a59fe06264d52beb22b43e387f291"},
    {"opt", "trained", "web_B_x2", "avx2", "0bd26b662cc34ad7421fcb442115911f"},
    {"opt", "trained", "web_B_x2", "avx512", "e24823de5faf9ffc6f6d31cd1de7d151"},
    {"opt", "trained", "cache_A_x1", "naive", "3562a359ccdb8fa152b9deb6065d77e1"},
    {"opt", "trained", "cache_A_x1", "avx2", "f67c2b37005d969f180fe983069eeca5"},
    {"opt", "trained", "cache_A_x1", "avx512", "12f98fd0ed5e2159ba2a9003d5130670"},
    {"opt", "trained", "hadoop_C_x4", "naive", "8563fbbd2e7734c057796cd30767202a"},
    {"opt", "trained", "hadoop_C_x4", "avx2", "c28b587edf05ace8f0a397230b32a92b"},
    {"opt", "trained", "hadoop_C_x4", "avx512", "6a1c29ecb158c970661b7119dfe8c512"},
    {"opt", "trained", "web_B_prio", "naive", "64ab9863002f4b0a38a91a978a8edd3d"},
    {"opt", "trained", "web_B_prio", "avx2", "f439403ed380db0a9b89d0cb68acf7c8"},
    {"opt", "trained", "web_B_prio", "avx512", "f1f5d0c6b43f00359f424defec2f49b8"},
    {"opt", "trained", "web_A_p100", "naive", "16cdc8d8030c55ae7c19b07fd4ea4aff"},
    {"opt", "trained", "web_A_p100", "avx2", "758871f8b0ebb7bc1c3547792193ab18"},
    {"opt", "trained", "web_A_p100", "avx512", "60a1c3878983f1e6e68285c842230180"},
    {"opt", "trained", "cache_C_prio_p8", "naive", "8946d4e0576a345e3f4a4a9fe2bf9a99"},
    {"opt", "trained", "cache_C_prio_p8", "avx2", "032400a8ff1b5ce295297414ea5e3953"},
    {"opt", "trained", "cache_C_prio_p8", "avx512", "296174abb10631f53e0934180c1f41fe"},
    {"san", "init", "web_B_x2", "naive", "571900127489c0ee1420165527f92de7"},
    {"san", "init", "web_B_x2", "avx2", "090704ee660dff2ef801e069a69e327a"},
    {"san", "init", "web_B_x2", "avx512", "c1815070dd04b15340941bd5b649eb36"},
    {"san", "init", "cache_A_x1", "naive", "7dbb49f5de2536bb076e9f70f65f27ee"},
    {"san", "init", "cache_A_x1", "avx2", "6c6c8aeb1916313e9d6407bffac0e06e"},
    {"san", "init", "cache_A_x1", "avx512", "407572d14c31567f4b5c8de85ac4f141"},
    {"san", "init", "hadoop_C_x4", "naive", "f8606549869a1ebd8590f33fb9799f89"},
    {"san", "init", "hadoop_C_x4", "avx2", "1776aa5c5fa89f9a8e2b2a21f7f20296"},
    {"san", "init", "hadoop_C_x4", "avx512", "36b452306fd143e88ed75138d7a1fca0"},
    {"san", "init", "web_B_prio", "naive", "45d3415919b1e511a8c85ff12e1a8695"},
    {"san", "init", "web_B_prio", "avx2", "f82ced7eccec637c15d58f575b43feb2"},
    {"san", "init", "web_B_prio", "avx512", "1a7b4cb36459b4a247ca07e6a290dd01"},
    {"san", "init", "web_A_p100", "naive", "bea06dfb86fdd46c6776dbd4eac3279a"},
    {"san", "init", "web_A_p100", "avx2", "9ba90960edc213aebe7e377178bb1af8"},
    {"san", "init", "web_A_p100", "avx512", "2d75288afa284779f8b15cbe6a66d30b"},
    {"san", "init", "cache_C_prio_p8", "naive", "edc508973e731d30511c036e0b38ac36"},
    {"san", "init", "cache_C_prio_p8", "avx2", "d8d2536e53611663e74cab0ceecf5c1d"},
    {"san", "init", "cache_C_prio_p8", "avx512", "8f4d9b42f110fc6241e2d27835521ab9"},
    {"san", "trained", "web_B_x2", "naive", "d96a59fe06264d52beb22b43e387f291"},
    {"san", "trained", "web_B_x2", "avx2", "20a5f7b63e20025e94bd9df0741439be"},
    {"san", "trained", "web_B_x2", "avx512", "a483420e67a36b825495d70d2270dcc2"},
    {"san", "trained", "cache_A_x1", "naive", "3562a359ccdb8fa152b9deb6065d77e1"},
    {"san", "trained", "cache_A_x1", "avx2", "b75547b289df66504b35160b4929fd0a"},
    {"san", "trained", "cache_A_x1", "avx512", "abe893987806a99152f74bf5d8589030"},
    {"san", "trained", "hadoop_C_x4", "naive", "8563fbbd2e7734c057796cd30767202a"},
    {"san", "trained", "hadoop_C_x4", "avx2", "ffdfde018d71903ea19adc328c983f3e"},
    {"san", "trained", "hadoop_C_x4", "avx512", "78fb8ea6e4feebad5699f1ff91ed78d3"},
    {"san", "trained", "web_B_prio", "naive", "64ab9863002f4b0a38a91a978a8edd3d"},
    {"san", "trained", "web_B_prio", "avx2", "ec7b35cc73b9b5db84dd18de3c63136e"},
    {"san", "trained", "web_B_prio", "avx512", "577d188cabccca306ba498d236b235b7"},
    {"san", "trained", "web_A_p100", "naive", "16cdc8d8030c55ae7c19b07fd4ea4aff"},
    {"san", "trained", "web_A_p100", "avx2", "14d305dab07eb41b2c08c0366d0ab2d0"},
    {"san", "trained", "web_A_p100", "avx512", "df1557bd53477a7bcf24a901caf87b74"},
    {"san", "trained", "cache_C_prio_p8", "naive", "8946d4e0576a345e3f4a4a9fe2bf9a99"},
    {"san", "trained", "cache_C_prio_p8", "avx2", "3a4f9d9c65d95b1522ccb6aee60d1740"},
    {"san", "trained", "cache_C_prio_p8", "avx512", "d6341b72d7e35cecfb1187250a804778"},
    {"opt", "init", "identity", "naive", "bb3b89b446fc5fb51a1c0eaebcd44f6a00375ce3"},
    {"opt", "init", "identity", "avx2", "bb3b89b446fc5fb51a1c0eaebcd44f6a00375ce3"},
    {"opt", "init", "identity", "avx512", "bb3b89b446fc5fb51a1c0eaebcd44f6a00375ce3"},
    {"opt", "trained", "identity", "naive", "b3cb0d72aee9e813f64f0f8f5a124945c03abf13"},
    {"opt", "trained", "identity", "avx2", "0bc93b4d75be2bfb2dd80082b46cd0342372b904"},
    {"opt", "trained", "identity", "avx512", "2595528e5c7059137d8e89e10150e29cc34e1c48"},
    {"san", "init", "identity", "naive", "bb3b89b446fc5fb51a1c0eaebcd44f6a00375ce3"},
    {"san", "init", "identity", "avx2", "bb3b89b446fc5fb51a1c0eaebcd44f6a00375ce3"},
    {"san", "init", "identity", "avx512", "bb3b89b446fc5fb51a1c0eaebcd44f6a00375ce3"},
    {"san", "trained", "identity", "naive", "b3cb0d72aee9e813f64f0f8f5a124945c03abf13"},
    {"san", "trained", "identity", "avx2", "3837eff268bc340f90d3740f044a99e736d711f1"},
    {"san", "trained", "identity", "avx512", "aa7cf6c8f8ece77e298c0bb97da2c8c847df9597"},
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
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
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
  pm.checkpoint = TempPath("golden_model_" + name + "_" +
                  ml::kernels::KernelImplName(ml::kernels::GetKernelImpl()) + ".ckpt");
  pm.model->Save(pm.checkpoint);
  return pm;
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
  PathAggregate agg = AggregatePaths(est.paths);
  est.bucket_pct = std::move(agg.bucket_pct);
  est.total_counts = agg.total_counts;
  est.combined_pct = std::move(agg.combined_pct);
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
  }
  return "?";
}

bool IsRouterWay(Way w) {
  return w == Way::kRouter1 || w == Way::kRouter3 || w == Way::kRouterRepeat;
}

serve::ServiceOptions PinServiceOptions(const PinnedModel& pm) {
  serve::ServiceOptions so;
  so.model_config = pm.cfg;
  so.num_workers = 1;
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
};

// Names unique to this process and call, short enough for a unix socket.
std::string ScratchName(const std::string& what) {
  static int seq = 0;
  return TempPath("gm" + std::to_string(seq++) + what);
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
  }
}

std::uint64_t Dispatches(const serve::Router& router) {
  std::uint64_t n = 0;
  for (const serve::ShardHealthWire& sh : router.Stats().shards) n += sh.dispatches;
  return n;
}

// One answer through a live m3d-router. The repeat way returns the query's
// second sending, which the router's cache must answer without dispatching
// to any shard.
serve::QueryResponse RouterAnswer(Way way, const serve::QueryRequest& req, Serving& s) {
  serve::RouterOptions ro;
  const std::size_t n = way == Way::kRouter1 ? 1 : s.shards.size();
  for (std::size_t i = 0; i < n; ++i) ro.shards.push_back(s.shards[i]->path);
  serve::Router router(ro);
  EXPECT_TRUE(router.Start().ok());
  serve::QueryResponse resp = router.Query(req);
  if (way == Way::kRouterRepeat) {
    const std::uint64_t before = Dispatches(router);
    resp = router.Query(req);
    EXPECT_EQ(Dispatches(router), before) << "the repeat reached a shard";
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
      case Way::kRouterRepeat: {
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

TEST_P(GoldenModel, IdentityMatchesThePins) {
  const std::string name = GetParam();
  for (KernelImpl tier : PinnedTiers()) {
    ImplGuard guard(tier);
    const char* tier_name = ml::kernels::KernelImplName(tier);
    const PinnedModel pm = MakeModel(name);
    serve::ModelRegistry reg(pm.cfg);
    const Status loaded = reg.Reload(pm.checkpoint);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    const std::shared_ptr<const serve::ModelSnapshot> snap = reg.Current();
    char crc[9];
    std::snprintf(crc, sizeof(crc), "%08x", static_cast<unsigned>(snap->param_crc));
    const std::string got = crc + snap->digest.ToHex();
    const std::string pin = PinFor(name, "identity", tier);
    EXPECT_EQ(got, pin) << name << " model identity, " << tier_name;
    if (got != pin) {
      std::cout << "golden-model " << kFlavor << ' ' << name << " identity " << tier_name << ' '
                << got << '\n';
    }
  }
}

TEST_P(GoldenModel, EveryWayInGivesThePinnedBits) {
  CheckWays({Way::kThreads, Way::kService, Way::kShardSplit});
}

TEST_P(GoldenModel, WorkerModeGivesThePinnedBits) { CheckWays({Way::kWorkers}); }

TEST_P(GoldenModel, RouterWaysGiveThePinnedBits) {
  CheckWays({Way::kRouter1, Way::kRouter3, Way::kRouterRepeat});
}

INSTANTIATE_TEST_SUITE_P(Models, GoldenModel, ::testing::Values("init", "trained"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace m3
