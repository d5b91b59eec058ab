// Golden pins for the path pipeline: decomposition order, weighted path
// sampling, path-scenario wiring, flowSim and the flowSim-only answer.
//
// Every pinned hash is independent of the ML kernel, so it holds for every
// M3_KERNEL value. Refactors and optimizations of these stages must
// reproduce the pins bit for bit; persisted path caches are keyed on the
// same scenario numbering (serve::PathCacheKey). On a deliberate behaviour
// change, the failing EXPECT_EQ prints the new hex to paste here.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "flowsim/flowsim.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "pktsim/config.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/traffic_matrix.h"

namespace m3 {
namespace {

struct GoldenQuery {
  const char* name;
  double oversub;
  const char* tm;     // "A" | "B" | "C"
  const char* sizes;  // "web" | "cache" | "hadoop"
  int num_flows;
  double max_load;
  std::uint64_t seed;
  int num_paths;
  bool priorities;  // assign strict-priority classes round-robin
  // Pinned hex digests.
  const char* sample;   // SamplePaths indices
  const char* keys;     // zero-digest PathCacheKey of every sampled slot
  const char* flowsim;  // RunPathFlowSim results of every sampled slot
  const char* answer;   // RunFlowSimOnly bucket/total/combined percentiles
  const char* fabric;   // RunFlowSim on the full fabric, first 600 flows
};

// clang-format off
const GoldenQuery kQueries[] = {
    {"web_B_x2", 2.0, "B", "web", 3000, 0.5, 1, 50, false,
     "5b4a66cbdef28bd87c717cb133c84055",
     "b1dd7bb557898307bb4434618234f576",
     "406dbee6ea650073194d119177dbe229",
     "78d6eb19f0a7c74aaeff879162acee67",
     "46041025b47bf6130e855d013a0299c1"},
    {"cache_A_x1", 1.0, "A", "cache", 2000, 0.7, 2, 30, false,
     "d5117b55536a5926a80a9b525bad234a",
     "f524a868897bb56a50387eec1be4b349",
     "8f1604fdaf397e86340e85de753ca962",
     "47fa21c9d552bc239884af86f9821f53",
     "65c3be071dbdc53f9015a5e9e0be3516"},
    {"hadoop_C_x4", 4.0, "C", "hadoop", 2500, 0.3, 3, 40, false,
     "c28c4e71c83b0a74121d0ec7f892c317",
     "7a2af4514d128285a5d5c1bc0d428f08",
     "4367f0b2da8384d70a93b5590a939f46",
     "fc61ca7010576fbc9b685042383850c9",
     "2d92a3b219eff05a52eb5d4b62bebfda"},
    {"web_B_prio", 2.0, "B", "web", 2000, 0.6, 4, 20, true,
     "0fff7799c3722dd9254b03983fbcccaa",
     "e3446b217fd0896178cd66ca5d7cbc87",
     "4b8f4011eb987d38d9c808ffea782e1e",
     "762b96f9d3ba6743e7118cf154dea345",
     "22fda7289e1c4ba6368f393d91e1fdf8"},
    {"web_A_p100", 2.0, "A", "web", 4000, 0.5, 5, 100, false,
     "8ac34a349d83fbdbc203ff3a75ab27e4",
     "36ce9021497595c1a794a4aa0faa83be",
     "aa992d0d25c149d4cc4e19e57af4c0e1",
     "e5c31156f76dbb6e15ad86b6bd1ed598",
     "30aba16f91e4f126a9988dc6087c7c3c"},
    {"cache_C_prio_p8", 1.0, "C", "cache", 1500, 0.4, 6, 8, true,
     "d0e09b1d9ad35f1098ad07167c15e751",
     "e3845152c9239359d0c345172e7e6bde",
     "1236fefbc4b6d5259943ec0ed83d571b",
     "d65c7456399f3b42cc8d39da39c90f71",
     "56d4fbd25b4c8432a39c1c2c97e0574d"},
};
// clang-format on

void PrintTo(const GoldenQuery& q, std::ostream* os) { *os << q.name; }

struct Built {
  std::unique_ptr<FatTree> ft;
  std::vector<Flow> flows;
};

Built BuildQuery(const GoldenQuery& q) {
  Built b;
  b.ft = std::make_unique<FatTree>(FatTreeConfig::Small(q.oversub));
  const TrafficMatrix tm =
      TrafficMatrix::ByName(q.tm, b.ft->num_racks(), b.ft->config().racks_per_pod);
  const std::string s = q.sizes;
  const std::unique_ptr<SizeDist> sizes = s == "web"     ? MakeWebServer()
                                          : s == "cache" ? MakeCacheFollower()
                                                         : MakeHadoop();
  WorkloadSpec spec;
  spec.num_flows = q.num_flows;
  spec.max_load = q.max_load;
  spec.seed = q.seed;
  b.flows = GenerateWorkload(*b.ft, tm, *sizes, spec).flows;
  if (q.priorities) {
    for (std::size_t i = 0; i < b.flows.size(); ++i) {
      b.flows[i].priority = static_cast<std::uint8_t>(i % kNumPriorities);
    }
  }
  return b;
}

void AbsorbResults(Hasher& h, const std::vector<FlowResult>& results) {
  h.U64(results.size());
  for (const FlowResult& r : results) {
    h.I32(r.id).I64(r.size).I64(r.fct).I64(r.ideal_fct).F64(r.slowdown);
  }
}

std::string AnswerHex(const NetworkEstimate& e) {
  Hasher h;
  for (const auto& pct : e.bucket_pct) {
    h.U64(pct.size());
    for (double v : pct) h.F64(v);
  }
  for (double c : e.total_counts) h.F64(c);
  h.U64(e.combined_pct.size());
  for (double v : e.combined_pct) h.F64(v);
  return h.Finish().ToHex();
}

class GoldenPipeline : public ::testing::TestWithParam<GoldenQuery> {};

TEST_P(GoldenPipeline, PinnedHashes) {
  const GoldenQuery& q = GetParam();
  const Built b = BuildQuery(q);
  const Topology& topo = b.ft->topo();

  PathDecomposition decomp(topo, b.flows);
  Rng rng(q.seed);
  const std::vector<std::size_t> sample = SamplePaths(decomp, q.num_paths, rng);
  ASSERT_EQ(sample.size(), static_cast<std::size_t>(q.num_paths));

  Hasher hs, hk, hf;
  for (std::size_t idx : sample) {
    hs.U64(idx);
    const PathScenario sc = BuildPathScenario(topo, b.flows, decomp, idx);
    const Hash128 key = serve::PathCacheKey(sc, NetConfig{}, true, Hash128{});
    hk.U64(key.hi).U64(key.lo);
    AbsorbResults(hf, RunPathFlowSim(sc));
  }
  EXPECT_EQ(hs.Finish().ToHex(), q.sample) << q.name << " sample";
  EXPECT_EQ(hk.Finish().ToHex(), q.keys) << q.name << " path keys";
  EXPECT_EQ(hf.Finish().ToHex(), q.flowsim) << q.name << " flowsim";

  M3Options opts;
  opts.num_paths = q.num_paths;
  opts.seed = q.seed;
  opts.num_threads = 1;
  const NetworkEstimate est = RunFlowSimOnly(topo, b.flows, NetConfig{}, opts);
  ASSERT_TRUE(est.status.ok()) << est.status.ToString();
  EXPECT_EQ(AnswerHex(est), q.answer) << q.name << " answer";

  // The full fabric exercises flowSim on long multi-hop routes and, for the
  // priority queries, the strict-priority layering.
  const std::vector<Flow> head(b.flows.begin(),
                               b.flows.begin() + std::min<std::ptrdiff_t>(600, q.num_flows));
  Hasher hx;
  AbsorbResults(hx, RunFlowSim(topo, head));
  EXPECT_EQ(hx.Finish().ToHex(), q.fabric) << q.name << " fabric flowsim";
}

INSTANTIATE_TEST_SUITE_P(Queries, GoldenPipeline, ::testing::ValuesIn(kQueries),
                         [](const ::testing::TestParamInfo<GoldenQuery>& info) {
                           return std::string(info.param.name);
                         });

// Path-level parallelism must not change a single bit of the model answer.
TEST(GoldenPipelineThreads, RunM3OneThreadEqualsAllThreads) {
  M3Model model;  // default config, deterministic initialization
  for (const GoldenQuery& q : {kQueries[0], kQueries[3]}) {
    const Built b = BuildQuery(q);
    M3Options opts;
    opts.num_paths = q.num_paths;
    opts.seed = q.seed;
    opts.num_threads = 1;
    const NetworkEstimate one = RunM3(b.ft->topo(), b.flows, NetConfig{}, model, opts);
    opts.num_threads = std::max(2u, std::thread::hardware_concurrency());
    const NetworkEstimate many = RunM3(b.ft->topo(), b.flows, NetConfig{}, model, opts);
    ASSERT_TRUE(one.status.ok()) << one.status.ToString();
    ASSERT_TRUE(many.status.ok()) << many.status.ToString();
    EXPECT_EQ(AnswerHex(one), AnswerHex(many)) << q.name;
  }
}

// A PCG state whose next output is 0xffffffff: XSH-RR emits a rotation of
// bits 27..58 of (s ^ s >> 18), so those bits are solved for, top down.
std::uint64_t AllOnesOutputState() {
  std::uint64_t s = 0;
  for (int bit = 58; bit >= 27; --bit) {
    const std::uint64_t partner = bit + 18 < 64 ? (s >> (bit + 18)) & 1u : 0u;
    s |= (1u ^ partner) << bit;
  }
  return s;
}

// An Rng whose next NextDouble() is the largest it can return, 1 - 2^-53.
Rng TopEdgeRng() {
  const std::uint64_t s = AllOnesOutputState();
  Rng rng(0);
  RngState st = rng.SaveState();
  st.state = s;
  st.inc = s - s * 6364136223846793005ULL;  // the next state is s again
  rng.RestoreState(st);
  return rng;
}

TEST(GoldenPipelineSampler, MatchesWeightedIndexOnIntegerWeights) {
  Rng gen(17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + gen.NextBounded(40);
    std::vector<double> weights(n);
    std::vector<std::uint64_t> cumulative(n);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Zero weights included: they must never be drawn.
      const std::uint64_t cap = trial < 100 ? 5 : 5000;
      const std::uint64_t w = gen.NextBounded(4) == 0 ? 0 : 1 + gen.NextBounded(cap);
      weights[i] = static_cast<double>(w);
      total += w;
      cumulative[i] = total;
    }
    if (total == 0) continue;
    Rng a(1000 + static_cast<std::uint64_t>(trial)), b = a;
    for (int draw = 0; draw < 50; ++draw) {
      ASSERT_EQ(SampleCumulative(cumulative, a), b.WeightedIndex(weights))
          << "trial " << trial << " draw " << draw;
    }

    Rng top_a = TopEdgeRng(), top_b = TopEdgeRng();
    const std::size_t last_positive = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), total) - cumulative.begin());
    EXPECT_EQ(SampleCumulative(cumulative, top_a), last_positive) << "trial " << trial;
    EXPECT_EQ(top_b.WeightedIndex(weights), last_positive) << "trial " << trial;
  }
}

TEST(GoldenPipelineSampler, TopEdgeRngDrawsTheLargestDouble) {
  Rng rng = TopEdgeRng();
  EXPECT_EQ(rng.NextDouble(), 1.0 - 0x1.0p-53);
}

// Flow ids are caller labels: the pipeline indexes flows by position, so
// relabelling the same routed flows (sparse, huge or negative ids) must not
// change a bit of the answer, and scenarios carry the caller's ids.
TEST(FlowIds, HostileIdsGiveTheDenseAnswer) {
  const GoldenQuery& q = kQueries[3];
  const Built b = BuildQuery(q);
  const Topology& topo = b.ft->topo();
  M3Options opts;
  opts.num_paths = q.num_paths;
  opts.seed = q.seed;
  opts.num_threads = 1;
  M3Model model;
  const std::string dense_fs = AnswerHex(RunFlowSimOnly(topo, b.flows, NetConfig{}, opts));
  const std::string dense_m3 = AnswerHex(RunM3(topo, b.flows, NetConfig{}, model, opts));
  EXPECT_EQ(dense_fs, q.answer);

  using Relabel = std::function<FlowId(std::size_t)>;
  const Relabel offset = [](std::size_t i) { return static_cast<FlowId>(100000000 + i); };
  const Relabel negative = [](std::size_t i) {
    return static_cast<FlowId>(-1 - 7 * static_cast<int>(i));
  };
  const Relabel extreme = [](std::size_t i) {
    return i % 2 == 0 ? std::numeric_limits<FlowId>::max() : std::numeric_limits<FlowId>::min();
  };
  for (const Relabel& relabel : {offset, negative, extreme}) {
    std::vector<Flow> flows = b.flows;
    for (std::size_t i = 0; i < flows.size(); ++i) flows[i].id = relabel(i);
    const NetworkEstimate fs = RunFlowSimOnly(topo, flows, NetConfig{}, opts);
    ASSERT_TRUE(fs.status.ok()) << fs.status.ToString();
    EXPECT_EQ(AnswerHex(fs), dense_fs);
    EXPECT_EQ(AnswerHex(RunM3(topo, flows, NetConfig{}, model, opts)), dense_m3);

    PathDecomposition decomp(topo, flows);
    const PathScenario sc = BuildPathScenario(topo, flows, decomp, 0);
    const std::vector<FlowId>& fg = decomp.path(0).fg_flows;
    const std::vector<BgFlowOnPath> bg = decomp.BackgroundFlows(0);
    ASSERT_EQ(sc.orig_id.size(), fg.size() + bg.size());
    for (std::size_t k = 0; k < fg.size(); ++k) {
      EXPECT_EQ(sc.orig_id[k], flows[static_cast<std::size_t>(fg[k])].id);
    }
    for (std::size_t k = 0; k < bg.size(); ++k) {
      EXPECT_EQ(sc.orig_id[fg.size() + k], flows[static_cast<std::size_t>(bg[k].flow)].id);
    }
  }
}

}  // namespace
}  // namespace m3
