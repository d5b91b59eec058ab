// Golden pins for the path pipeline: decomposition order, weighted path
// sampling, path-scenario wiring, flowSim, the feature maps the model reads
// and the flowSim-only answer.
// It also pins serve::QueryCacheKey, the whole-query cache address that
// m3d's and the router's in-memory query caches are keyed by.
//
// Every pinned hash is independent of the ML kernel, so it holds for every
// M3_KERNEL value. Refactors and optimizations of these stages must
// reproduce the pins bit for bit; the pinned path keys (serve::PathCacheKey)
// cover the same scenario numbering. On a deliberate behaviour
// change, the failing EXPECT_EQ prints the new hex to paste here. The
// ScenarioReuse suite checks, on the same queries, that building into a
// reused workspace gives exactly the freshly built scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/estimator.h"
#include "golden_queries.h"
#include "flowsim/flowsim.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "pktsim/config.h"
#include "serve/wire.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace m3 {
namespace {

// Pinned hex digests of each golden query (same order as kGoldenQueries).
struct PipelinePins {
  const char* sample;     // SamplePaths indices
  const char* keys;       // zero-digest PathCacheKey of every sampled slot
  const char* flowsim;    // RunPathFlowSim results of every sampled slot
  const char* answer;     // RunFlowSimOnly bucket/total/combined percentiles
  const char* fabric;     // RunFlowSim on the full fabric, first 600 flows
  const char* query_key;  // QueryCacheKey of the wire request, kKeyDigest
  const char* features;   // ExtractFeatures of every sampled slot
};

// A fixed stand-in model digest for the query-key pins.
constexpr Hash128 kKeyDigest{0x0123456789abcdefULL, 0xfedcba9876543210ULL};

// clang-format off
const PipelinePins kPins[] = {
    {"5b4a66cbdef28bd87c717cb133c84055",  // web_B_x2
     "b1dd7bb557898307bb4434618234f576",
     "406dbee6ea650073194d119177dbe229",
     "78d6eb19f0a7c74aaeff879162acee67",
     "46041025b47bf6130e855d013a0299c1",
     "84a8fa149a10ebfa359a18772a028da1",
     "0a58edfd9b6836cc9b9f115ae740a5dc"},
    {"d5117b55536a5926a80a9b525bad234a",  // cache_A_x1
     "f524a868897bb56a50387eec1be4b349",
     "8f1604fdaf397e86340e85de753ca962",
     "47fa21c9d552bc239884af86f9821f53",
     "65c3be071dbdc53f9015a5e9e0be3516",
     "ccfdd5f26bb21142412bd4c8a5f3bc46",
     "71929c49cea60df8c14f570fc1048dbe"},
    {"c28c4e71c83b0a74121d0ec7f892c317",  // hadoop_C_x4
     "7a2af4514d128285a5d5c1bc0d428f08",
     "4367f0b2da8384d70a93b5590a939f46",
     "fc61ca7010576fbc9b685042383850c9",
     "2d92a3b219eff05a52eb5d4b62bebfda",
     "d9ea5b8e7d75cf6de9b69662980a75ef",
     "8d2b746886a326497fb905ab484f664c"},
    {"0fff7799c3722dd9254b03983fbcccaa",  // web_B_prio
     "e3446b217fd0896178cd66ca5d7cbc87",
     "4b8f4011eb987d38d9c808ffea782e1e",
     "762b96f9d3ba6743e7118cf154dea345",
     "22fda7289e1c4ba6368f393d91e1fdf8",
     "115435a8baf0decbc69ce274d32e1796",
     "ce9f183ee7e174a26a5b8a0ace2e2b7e"},
    {"8ac34a349d83fbdbc203ff3a75ab27e4",  // web_A_p100
     "36ce9021497595c1a794a4aa0faa83be",
     "aa992d0d25c149d4cc4e19e57af4c0e1",
     "e5c31156f76dbb6e15ad86b6bd1ed598",
     "30aba16f91e4f126a9988dc6087c7c3c",
     "1cd103eb12cee81694b5d402e7269eed",
     "a3596695a20273fa539773786a190050"},
    {"d0e09b1d9ad35f1098ad07167c15e751",  // cache_C_prio_p8
     "e3845152c9239359d0c345172e7e6bde",
     "1236fefbc4b6d5259943ec0ed83d571b",
     "d65c7456399f3b42cc8d39da39c90f71",
     "56d4fbd25b4c8432a39c1c2c97e0574d",
     "434c03e20811eb3ced0f783477c65425",
     "16f7f2a63968268f7265af29ca4eaf08"},
};
// clang-format on
static_assert(std::size(kPins) == std::size(kGoldenQueries));

void AbsorbTensor(Hasher& h, const ml::Tensor& t) {
  h.I32(t.rows()).I32(t.cols());
  for (int r = 0; r < t.rows(); ++r) {
    for (int c = 0; c < t.cols(); ++c) h.F32(t.at(r, c));
  }
}

// Every byte a model forward reads from flowSim: the fg and per-hop bg
// feature rows and the flowSim fg distribution (the residual baseline).
void AbsorbFeatures(Hasher& h, const ScenarioFeatures& f) {
  AbsorbTensor(h, f.fg_feat);
  AbsorbTensor(h, f.bg_seq);
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    h.Bool(f.flowsim_fg.has[bi]).F64(f.flowsim_fg.counts[bi]);
    for (double v : f.flowsim_fg.pct[bi]) h.F64(v);
  }
}

void AbsorbResults(Hasher& h, const std::vector<FlowResult>& results) {
  h.U64(results.size());
  for (const FlowResult& r : results) {
    h.I32(r.id).I64(r.size).I64(r.fct).I64(r.ideal_fct).F64(r.slowdown);
  }
}

// One golden query with its pins; prints as the query name.
struct PinnedQuery {
  const GoldenQuery* query;
  const PipelinePins* pins;
};

void PrintTo(const PinnedQuery& p, std::ostream* os) { *os << p.query->name; }

std::vector<PinnedQuery> PinnedQueries() {
  std::vector<PinnedQuery> out;
  for (std::size_t i = 0; i < std::size(kGoldenQueries); ++i) {
    out.push_back({&kGoldenQueries[i], &kPins[i]});
  }
  return out;
}

class GoldenPipeline : public ::testing::TestWithParam<PinnedQuery> {};

TEST_P(GoldenPipeline, PinnedHashes) {
  const GoldenQuery& q = *GetParam().query;
  const PipelinePins& pin = *GetParam().pins;
  const BuiltQuery b = BuildGoldenQuery(q);
  const Topology& topo = b.ft->topo();

  PathDecomposition decomp(topo, b.flows);
  Rng rng(q.seed);
  const std::vector<std::size_t> sample = SamplePaths(decomp, q.num_paths, rng);
  ASSERT_EQ(sample.size(), static_cast<std::size_t>(q.num_paths));

  Hasher hs, hk, hf, hfeat;
  for (std::size_t idx : sample) {
    hs.U64(idx);
    const PathScenario sc = BuildPathScenario(topo, b.flows, decomp, idx);
    const Hash128 key = serve::PathCacheKey(sc, NetConfig{}, true, Hash128{});
    hk.U64(key.hi).U64(key.lo);
    const std::vector<FlowResult> fluid = RunPathFlowSim(sc);
    AbsorbResults(hf, fluid);
    AbsorbFeatures(hfeat, ExtractFeatures(sc, fluid));
  }
  EXPECT_EQ(hs.Finish().ToHex(), pin.sample) << q.name << " sample";
  EXPECT_EQ(hk.Finish().ToHex(), pin.keys) << q.name << " path keys";
  EXPECT_EQ(hf.Finish().ToHex(), pin.flowsim) << q.name << " flowsim";
  EXPECT_EQ(hfeat.Finish().ToHex(), pin.features) << q.name << " features";

  M3Options opts;
  opts.num_paths = q.num_paths;
  opts.seed = q.seed;
  opts.num_threads = 1;
  const NetworkEstimate est = RunFlowSimOnly(topo, b.flows, NetConfig{}, opts);
  ASSERT_TRUE(est.status.ok()) << est.status.ToString();
  EXPECT_EQ(AnswerHex(est), pin.answer) << q.name << " answer";

  // The full fabric exercises flowSim on long multi-hop routes and, for the
  // priority queries, the strict-priority layering.
  const std::vector<Flow> head(b.flows.begin(),
                               b.flows.begin() + std::min<std::ptrdiff_t>(600, q.num_flows));
  Hasher hx;
  AbsorbResults(hx, RunFlowSim(topo, head));
  EXPECT_EQ(hx.Finish().ToHex(), pin.fabric) << q.name << " fabric flowsim";

  EXPECT_EQ(serve::QueryCacheKey(ToRequest(q, b, true), kKeyDigest).ToHex(), pin.query_key)
      << q.name << " query key";
}

INSTANTIATE_TEST_SUITE_P(Queries, GoldenPipeline, ::testing::ValuesIn(PinnedQueries()),
                         [](const ::testing::TestParamInfo<PinnedQuery>& info) {
                           return std::string(info.param.query->name);
                         });

TEST(GoldenPipelineQueryKey, EmptyFlowRequest) {
  EXPECT_EQ(serve::QueryCacheKey(serve::QueryRequest{}, kKeyDigest).ToHex(), "201f80ef3ba72addd3e06f2e82ffb76c");
}

// Path-level parallelism must not change a single bit of the model answer.
TEST(GoldenPipelineThreads, RunM3OneThreadEqualsAllThreads) {
  M3Model model;  // default config, deterministic initialization
  for (const GoldenQuery& q : {kGoldenQueries[0], kGoldenQueries[3]}) {
    const BuiltQuery b = BuildGoldenQuery(q);
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
    std::vector<std::size_t> cumulative(n);
    std::size_t total = 0;
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
  const GoldenQuery& q = kGoldenQueries[3];
  const BuiltQuery b = BuildGoldenQuery(q);
  const Topology& topo = b.ft->topo();
  M3Options opts;
  opts.num_paths = q.num_paths;
  opts.seed = q.seed;
  opts.num_threads = 1;
  M3Model model;
  const std::string dense_fs = AnswerHex(RunFlowSimOnly(topo, b.flows, NetConfig{}, opts));
  const std::string dense_m3 = AnswerHex(RunM3(topo, b.flows, NetConfig{}, model, opts));
  EXPECT_EQ(dense_fs, kPins[3].answer);

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
    const std::span<const FlowId> fg = decomp.path(0).fg_flows;
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

// ------------------------------------------------ reused scenario storage --

::testing::AssertionResult SameScenario(const PathScenario& got, const PathScenario& want) {
  const auto fail = [](const std::string& what) {
    return ::testing::AssertionFailure() << what;
  };
  if (got.num_links != want.num_links) return fail("num_links");
  if (got.flows.size() != want.flows.size()) {
    return fail("flow count " + std::to_string(got.flows.size()) + " vs " +
                std::to_string(want.flows.size()));
  }
  for (std::size_t i = 0; i < want.flows.size(); ++i) {
    const Flow& a = got.flows[i];
    const Flow& b = want.flows[i];
    if (a.id != b.id || a.src != b.src || a.dst != b.dst || a.size != b.size ||
        a.arrival != b.arrival || a.priority != b.priority || a.path != b.path) {
      return fail("flow " + std::to_string(i));
    }
  }
  if (got.is_fg != want.is_fg) return fail("is_fg");
  if (got.orig_id != want.orig_id) return fail("orig_id");
  if (got.entry_hop != want.entry_hop) return fail("entry_hop");
  if (got.exit_hop != want.exit_hop) return fail("exit_hop");

  const ParkingLot& la = *got.lot;
  const ParkingLot& lb = *want.lot;
  if (la.num_links() != lb.num_links()) return fail("lot chain length");
  for (int k = 0; k < lb.num_links(); ++k) {
    if (la.path_link(k) != lb.path_link(k) || la.switch_at(k) != lb.switch_at(k)) {
      return fail("lot chain hop " + std::to_string(k));
    }
  }
  if (la.switch_at(lb.num_links()) != lb.switch_at(lb.num_links())) return fail("lot tail");
  const Topology& ta = la.topo();
  const Topology& tb = lb.topo();
  if (ta.num_nodes() != tb.num_nodes()) return fail("lot node count");
  if (ta.num_links() != tb.num_links()) return fail("lot link count");
  for (std::size_t n = 0; n < tb.num_nodes(); ++n) {
    const NodeId id = static_cast<NodeId>(n);
    if (ta.kind(id) != tb.kind(id)) return fail("kind of node " + std::to_string(n));
    if (ta.OutLinks(id) != tb.OutLinks(id)) return fail("out-links of node " + std::to_string(n));
  }
  for (std::size_t l = 0; l < tb.num_links(); ++l) {
    const Link& a = ta.link(static_cast<LinkId>(l));
    const Link& b = tb.link(static_cast<LinkId>(l));
    if (a.src != b.src || a.dst != b.dst || a.rate != b.rate || a.delay != b.delay) {
      return fail("lot link " + std::to_string(l));
    }
  }
  if (serve::PathCacheKey(got, NetConfig{}, true, Hash128{}) !=
      serve::PathCacheKey(want, NetConfig{}, true, Hash128{})) {
    return fail("PathCacheKey");
  }
  return ::testing::AssertionSuccess();
}

// A one-path decomposition whose path is 33 hops long, over the 32-hop
// limit, so building its scenario throws.
struct OverlongPath {
  Topology topo;
  std::vector<Flow> flows;
  std::unique_ptr<PathDecomposition> decomp;

  OverlongPath() {
    constexpr int kHops = 33;
    for (int n = 0; n <= kHops; ++n) {
      topo.AddNode(n == 0 || n == kHops ? NodeKind::kHost : NodeKind::kSwitch);
    }
    Flow f;
    f.src = 0;
    f.dst = kHops;
    f.size = 1000;
    for (int n = 0; n < kHops; ++n) f.path.push_back(topo.AddLink(n, n + 1, 10.0, 1000));
    flows.push_back(f);
    decomp = std::make_unique<PathDecomposition>(topo, flows);
  }
};

// Building into a workspace that last held any other scenario — a larger
// one, a smaller one, another query's, or one whose build threw — must give
// exactly the scenario a fresh build gives.
TEST(ScenarioReuse, InPlaceBuildMatchesFreshBuildOnEveryGoldenSlot) {
  const OverlongPath overlong;
  PathScenario carried;  // a workspace carried across queries
  for (const GoldenQuery& q : kGoldenQueries) {
    const BuiltQuery b = BuildGoldenQuery(q);
    const Topology& topo = b.ft->topo();
    PathDecomposition decomp(topo, b.flows);
    Rng rng(q.seed);
    const std::vector<std::size_t> sample = SamplePaths(decomp, q.num_paths, rng);

    std::vector<PathScenario> fresh;
    std::size_t most = 0, fewest = 0;  // sampled paths with most/fewest lot nodes
    for (std::size_t idx : sample) {
      fresh.push_back(BuildPathScenario(topo, b.flows, decomp, idx));
      const std::size_t nodes = fresh.back().lot->topo().num_nodes();
      if (nodes > fresh[most].lot->topo().num_nodes()) most = fresh.size() - 1;
      if (nodes < fresh[fewest].lot->topo().num_nodes()) fewest = fresh.size() - 1;
    }
    ASSERT_GT(fresh[most].lot->topo().num_nodes(), fresh[fewest].lot->topo().num_nodes())
        << q.name;

    for (std::size_t s = 0; s < sample.size(); ++s) {
      const std::size_t other = s == most ? fewest : most;
      PathScenario ws;
      // After a path with more attached hosts (or fewer, for the largest).
      BuildPathScenario(topo, b.flows, decomp, sample[other], &ws);
      BuildPathScenario(topo, b.flows, decomp, sample[s], &ws);
      ASSERT_TRUE(SameScenario(ws, fresh[s])) << q.name << " slot " << s << " after slot "
                                              << other;
      // After a path with fewer attached hosts.
      BuildPathScenario(topo, b.flows, decomp, sample[fewest], &ws);
      BuildPathScenario(topo, b.flows, decomp, sample[s], &ws);
      ASSERT_TRUE(SameScenario(ws, fresh[s])) << q.name << " slot " << s << " after fewest";
      // After a build that threw.
      BuildPathScenario(topo, b.flows, decomp, sample[most], &ws);
      EXPECT_THROW(
          BuildPathScenario(overlong.topo, overlong.flows, *overlong.decomp, 0, &ws),
          std::invalid_argument);
      BuildPathScenario(topo, b.flows, decomp, sample[s], &ws);
      ASSERT_TRUE(SameScenario(ws, fresh[s])) << q.name << " slot " << s << " after a throw";
      // After the previous slot, and the previous query's last slot.
      BuildPathScenario(topo, b.flows, decomp, sample[s], &carried);
      ASSERT_TRUE(SameScenario(carried, fresh[s])) << q.name << " slot " << s << " carried";
    }
  }
}

// The pipeline and the router build into per-thread workspaces inside
// ParallelFor: every thread count must reproduce the pinned keys and answer.
TEST(ScenarioReuse, ThreadLocalWorkspacesReproduceThePins) {
  const unsigned threads = std::max(2u, std::thread::hardware_concurrency());
  for (std::size_t qi = 0; qi < std::size(kGoldenQueries); ++qi) {
    const GoldenQuery& q = kGoldenQueries[qi];
    const BuiltQuery b = BuildGoldenQuery(q);
    const Topology& topo = b.ft->topo();
    PathDecomposition decomp(topo, b.flows);
    Rng rng(q.seed);
    const std::vector<std::size_t> sample = SamplePaths(decomp, q.num_paths, rng);

    std::vector<Hash128> keys(sample.size());
    ParallelFor(
        sample.size(),
        [&](std::size_t i) {
          thread_local PathScenario workspace;
          BuildPathScenario(topo, b.flows, decomp, sample[i], &workspace);
          keys[i] = serve::PathCacheKey(workspace, NetConfig{}, true, Hash128{});
        },
        threads);
    Hasher hk;
    for (const Hash128& key : keys) hk.U64(key.hi).U64(key.lo);
    EXPECT_EQ(hk.Finish().ToHex(), kPins[qi].keys) << q.name << " path keys";

    M3Options opts;
    opts.num_paths = q.num_paths;
    opts.seed = q.seed;
    opts.num_threads = threads;
    for (int run = 0; run < 2; ++run) {
      const NetworkEstimate est = RunFlowSimOnly(topo, b.flows, NetConfig{}, opts);
      ASSERT_TRUE(est.status.ok()) << est.status.ToString();
      EXPECT_EQ(AnswerHex(est), kPins[qi].answer) << q.name << " answer, run " << run;
    }
  }
}

}  // namespace
}  // namespace m3
