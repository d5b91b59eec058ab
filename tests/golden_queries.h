// The six fixed golden queries shared by the pipeline pins
// (golden_pipeline_test.cc) and the model-answer pins
// (golden_model_test.cc), with the builder that turns one into a fat tree
// and its routed flows, its wire request, and the answer hash both suites
// pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"
#include "util/hash.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/traffic_matrix.h"

namespace m3 {

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
};

inline constexpr GoldenQuery kGoldenQueries[] = {
    {"web_B_x2", 2.0, "B", "web", 3000, 0.5, 1, 50, false},
    {"cache_A_x1", 1.0, "A", "cache", 2000, 0.7, 2, 30, false},
    {"hadoop_C_x4", 4.0, "C", "hadoop", 2500, 0.3, 3, 40, false},
    {"web_B_prio", 2.0, "B", "web", 2000, 0.6, 4, 20, true},
    {"web_A_p100", 2.0, "A", "web", 4000, 0.5, 5, 100, false},
    {"cache_C_prio_p8", 1.0, "C", "cache", 1500, 0.4, 6, 8, true},
};

struct BuiltQuery {
  std::unique_ptr<FatTree> ft;
  std::vector<Flow> flows;
};

inline BuiltQuery BuildGoldenQuery(const GoldenQuery& q) {
  BuiltQuery b;
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

/// The wire request that asks a server for `q`'s answer over `b`'s flows.
inline serve::QueryRequest ToRequest(const GoldenQuery& q, const BuiltQuery& b, bool use_context) {
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

/// Absorbs a network-wide answer (bucket percentiles, totals, combined
/// percentiles) into `h`; works on NetworkEstimate and QueryResponse alike.
template <typename Answer>
void AbsorbAnswer(Hasher& h, const Answer& e) {
  for (const auto& pct : e.bucket_pct) {
    h.U64(pct.size());
    for (double v : pct) h.F64(v);
  }
  for (double c : e.total_counts) h.F64(c);
  h.U64(e.combined_pct.size());
  for (double v : e.combined_pct) h.F64(v);
}

template <typename Answer>
std::string AnswerHex(const Answer& e) {
  Hasher h;
  AbsorbAnswer(h, e);
  return h.Finish().ToHex();
}

}  // namespace m3
