// Golden pins for the path-level packet simulator, the truth column of
// every accuracy number (bench/eval.h, the training labels). One case per
// congestion control with PFC off and on, each on a small synthetic
// parking-lot scenario; the pin is a hash of every FlowResult field.
//
// A refactor or optimization of src/pktsim must reproduce these bit for
// bit. On a deliberate behaviour change, the failing EXPECT_EQ prints the
// new hex to paste here, and every accuracy figure must be re-measured.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.h"
#include "pathdecomp/path_topology.h"
#include "pktsim/config.h"
#include "util/hash.h"

namespace m3 {
namespace {

struct PktSimCase {
  const char* name;
  CcType cc;
  bool pfc;
  int num_links;
  std::uint64_t seed;
  const char* pin;  // hash of RunPathPktSim's results
};

// clang-format off
const PktSimCase kCases[] = {
    {"dctcp",      CcType::kDctcp,  false, 2, 11, "60da0cf087d5bcd6d32fc7ba3af49055"},
    {"dctcp_pfc",  CcType::kDctcp,  true,  4, 12, "e2c0382a50f1791996e96eb247ea40ed"},
    {"timely",     CcType::kTimely, false, 4, 13, "7df846267a1fe25a3ce4d3a03c5730a1"},
    {"timely_pfc", CcType::kTimely, true,  6, 14, "5621e37f76ba3049b8dead0485af7da0"},
    {"dcqcn",      CcType::kDcqcn,  false, 6, 15, "555f2ce7d8c320990c033963d9fd9504"},
    {"dcqcn_pfc",  CcType::kDcqcn,  true,  2, 16, "ba1fac046228ba641b11794cd45f5063"},
    {"hpcc",       CcType::kHpcc,   false, 4, 17, "feaf177dfbac89c0b11f6f389b6a41b7"},
    {"hpcc_pfc",   CcType::kHpcc,   true,  6, 18, "d13ac54d8daf593f5532bc3e689cfa08"},
};
// clang-format on

std::string ResultsHex(const std::vector<FlowResult>& results) {
  Hasher h;
  h.U64(results.size());
  for (const FlowResult& r : results) {
    h.I32(r.id).I64(r.size).I64(r.fct).I64(r.ideal_fct).F64(r.slowdown);
    h.I32(r.retransmits).I32(r.timeouts);
  }
  return h.Finish().ToHex();
}

void ExpectPinned(CcType cc) {
  for (const PktSimCase& c : kCases) {
    if (c.cc != cc) continue;
    SyntheticSpec spec;
    spec.num_links = c.num_links;
    spec.num_fg = 60;
    spec.max_load = 0.6;
    spec.seed = c.seed;
    const PathScenario sc = BuildSyntheticScenario(spec);
    NetConfig cfg;
    cfg.cc = c.cc;
    cfg.pfc = c.pfc;
    cfg.buffer = 200 * kKB;  // Table 4's smallest buffer
    EXPECT_EQ(ResultsHex(RunPathPktSim(sc, cfg)), c.pin) << c.name;
  }
}

// Each congestion control with PFC off and on.
TEST(GoldenPktSim, Dctcp) { ExpectPinned(CcType::kDctcp); }
TEST(GoldenPktSim, Timely) { ExpectPinned(CcType::kTimely); }
TEST(GoldenPktSim, Dcqcn) { ExpectPinned(CcType::kDcqcn); }
TEST(GoldenPktSim, Hpcc) { ExpectPinned(CcType::kHpcc); }

}  // namespace
}  // namespace m3
