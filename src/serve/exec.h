// Snapshot-level query execution: the part of the serving pipeline that is
// identical whether a query runs inside the daemon process (PR-4 style) or
// inside a supervised worker subprocess (serve/worker.h).
//
// ExecuteQueryOnSnapshot owns validation, topology memoization, flow/route
// building, and RunM3 against one pinned model snapshot. It deliberately
// excludes everything process-topology-specific: the whole-query result
// cache, service counters, and admission control stay with the caller
// (EstimationService in-process; WorkerSupervisor/worker split them across
// the socketpair). Keeping this core shared is what makes the acceptance
// bar "worker-mode answers are bitwise identical to in-process answers"
// checkable instead of aspirational.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "serve/registry.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"

namespace m3::serve {

/// Small LRU of immutable fat trees keyed by the request's topology terms:
/// the oversubscription double's bit pattern — exactly the value off the
/// wire — plus the explicit shape (all-zero for the default Small
/// testbed). Bounded because both are client-supplied (any admissible bit
/// pattern would otherwise grow the process without limit). Thread-safe.
class TopoMemo {
 public:
  explicit TopoMemo(std::size_t capacity = 8);

  /// The fat tree for (oversub, shape), built on first use. A default
  /// (all-zero) shape means FatTreeConfig::Small(oversub).
  std::shared_ptr<const FatTree> For(double oversub, const WireTopo& topo = WireTopo{});

  std::size_t size() const;

 private:
  struct Key {
    std::uint64_t oversub_bits = 0;
    WireTopo topo;
    bool operator==(const Key& o) const {
      return oversub_bits == o.oversub_bits && topo == o.topo;
    }
  };
  const std::size_t capacity_;
  mutable std::mutex mu_;
  // back = most recently used.
  std::vector<std::pair<Key, std::shared_ptr<const FatTree>>> topos_;
};

/// Caller-owned resources ExecuteQueryOnSnapshot draws on.
struct ExecContext {
  TopoMemo* topos = nullptr;       // required
  unsigned threads_per_query = 1;  // M3Options::num_threads
};

/// Runs one query against one model snapshot on the calling thread:
/// oversub/flow validation, ECMP route re-derivation, RunM3 with the
/// request's options. Fills every QueryResponse field except `stats` and
/// `query_cache_hit` (model_version/model_crc come from `snap`). Never
/// throws.
QueryResponse ExecuteQueryOnSnapshot(const QueryRequest& req, const ModelSnapshot& snap,
                                     const ExecContext& ctx);

/// The shard's share of a scattered query: same validation, topology, and
/// options as ExecuteQueryOnSnapshot, but only `req.slots` of the
/// deterministic path sample are estimated (M3Options::sample_slots) and
/// the reply carries the raw per-slot estimates instead of the aggregate.
/// Slots the ladder dropped are omitted from `estimates` (the router runs
/// its own fallback for them); the shard's DegradationReport covers only
/// its assigned slots. Never throws.
ShardQueryResponse ExecuteShardOnSnapshot(const ShardQueryRequest& req,
                                          const ModelSnapshot& snap, const ExecContext& ctx);

/// Validates the request's topology terms (oversub range for the default
/// shape; per-field and total-size bounds for an explicit shape) and
/// returns the memoized fat tree. Shared by the daemon execution path and
/// the router's flowSim fallback so both sides of a scattered query build
/// the identical tree.
StatusOr<std::shared_ptr<const FatTree>> TopoForRequest(const QueryRequest& req,
                                                        TopoMemo* memo);

/// Validates `req.flows` against the tree (host ranges, src != dst,
/// priority class) and builds the routed core flows, re-deriving ECMP
/// routes from the flow id (the trace_io convention). On error `out` is
/// left untouched and the status names the offending flow and field.
Status BuildRequestFlows(const QueryRequest& req, const FatTree& ft, std::vector<Flow>* out);

/// True when `code` counts as an answer the client can use: full-quality,
/// degraded, or a partial deadline answer (the service's queries_ok bucket).
bool IsAnsweredCode(StatusCode code);

}  // namespace m3::serve
