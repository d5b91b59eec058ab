#include "serve/exec.h"

#include <cstddef>
#include <cstring>
#include <string>

namespace m3::serve {
namespace {

// Bounds for an explicit topology shape. The large paper testbed is
// 6144 hosts; the cap leaves headroom without letting a hostile request
// allocate an arbitrarily large fabric.
constexpr int kMaxTopoDim = 512;
constexpr int kMaxTopoHosts = 16384;

Status ValidateTopoShape(const WireTopo& t) {
  const auto bad = [](const char* field, int v, const std::string& want) {
    return Status::InvalidArgument(std::string("topo.") + field + ": " + std::to_string(v) +
                                   " (" + want + ")");
  };
  const auto dim = [&](const char* field, int v) {
    return v >= 1 && v <= kMaxTopoDim
               ? Status::Ok()
               : bad(field, v, "must be in [1, " + std::to_string(kMaxTopoDim) + "]");
  };
  M3_RETURN_IF_ERROR(dim("pods", t.pods));
  M3_RETURN_IF_ERROR(dim("racks_per_pod", t.racks_per_pod));
  M3_RETURN_IF_ERROR(dim("hosts_per_rack", t.hosts_per_rack));
  M3_RETURN_IF_ERROR(dim("fabric_per_pod", t.fabric_per_pod));
  M3_RETURN_IF_ERROR(dim("spines_per_plane", t.spines_per_plane));
  const long long hosts = static_cast<long long>(t.pods) * t.racks_per_pod * t.hosts_per_rack;
  if (hosts > kMaxTopoHosts) {
    return bad("hosts", static_cast<int>(hosts),
               "total hosts must be <= " + std::to_string(kMaxTopoHosts));
  }
  return Status::Ok();
}

FatTreeConfig ConfigForRequest(const QueryRequest& req) {
  if (req.topo.IsDefault()) return FatTreeConfig::Small(req.oversub);
  FatTreeConfig cfg;
  cfg.pods = req.topo.pods;
  cfg.racks_per_pod = req.topo.racks_per_pod;
  cfg.hosts_per_rack = req.topo.hosts_per_rack;
  cfg.fabric_per_pod = req.topo.fabric_per_pod;
  cfg.spines_per_plane = req.topo.spines_per_plane;
  return cfg;
}

}  // namespace

TopoMemo::TopoMemo(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const FatTree> TopoMemo::For(double oversub, const WireTopo& topo) {
  Key key;
  key.topo = topo;
  // Bit-pattern term: exactly the double off the wire.
  std::memcpy(&key.oversub_bits, &oversub, sizeof key.oversub_bits);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = topos_.begin(); it != topos_.end(); ++it) {
    if (it->first == key) {
      auto ft = it->second;
      topos_.erase(it);
      topos_.emplace_back(key, ft);  // refresh recency
      return ft;
    }
  }
  QueryRequest shape;
  shape.oversub = oversub;
  shape.topo = topo;
  auto ft = std::make_shared<const FatTree>(ConfigForRequest(shape));
  if (topos_.size() >= capacity_) topos_.erase(topos_.begin());
  topos_.emplace_back(key, ft);
  return ft;
}

std::size_t TopoMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return topos_.size();
}

bool IsAnsweredCode(StatusCode code) {
  return code == StatusCode::kOk || code == StatusCode::kDegraded ||
         code == StatusCode::kDeadlineExceeded;
}

StatusOr<std::shared_ptr<const FatTree>> TopoForRequest(const QueryRequest& req,
                                                        TopoMemo* memo) {
  if (req.topo.IsDefault()) {
    if (!(req.oversub >= 0.0625 && req.oversub <= 64.0)) {
      return Status::InvalidArgument("oversub: " + std::to_string(req.oversub) +
                                     " (must be in [0.0625, 64])");
    }
  } else {
    M3_RETURN_IF_ERROR(ValidateTopoShape(req.topo));
  }
  return memo->For(req.oversub, req.topo);
}

Status BuildRequestFlows(const QueryRequest& req, const FatTree& ft, std::vector<Flow>* out) {
  // Pass 1 validates every flow, so an error leaves `*out` untouched.
  const int num_hosts = ft.num_hosts();
  for (std::size_t i = 0; i < req.flows.size(); ++i) {
    const WireFlow& wf = req.flows[i];
    const auto bad = [&](const std::string& field, long long v, const std::string& want) {
      return Status::InvalidArgument("flows[" + std::to_string(i) + "]." + field + ": " +
                                     std::to_string(v) + " (" + want + ")");
    };
    if (wf.src_host < 0 || wf.src_host >= num_hosts) {
      return bad("src", wf.src_host, "host index in [0, " + std::to_string(num_hosts) + ")");
    }
    if (wf.dst_host < 0 || wf.dst_host >= num_hosts) {
      return bad("dst", wf.dst_host, "host index in [0, " + std::to_string(num_hosts) + ")");
    }
    if (wf.src_host == wf.dst_host) {
      return bad("dst", wf.dst_host, "must differ from src");
    }
    if (wf.priority >= kNumPriorities) {
      return bad("priority", wf.priority, "class in [0, " + std::to_string(kNumPriorities) + ")");
    }
  }
  // Pass 2 resets each flow in place, keeping only its route's buffer, so
  // the route reuses the capacity the flow's previous route left behind
  // and every other field starts from its default.
  out->resize(req.flows.size());
  for (std::size_t i = 0; i < req.flows.size(); ++i) {
    const WireFlow& wf = req.flows[i];
    Flow& f = (*out)[i];
    Route path = std::move(f.path);
    f = Flow{};
    f.path = std::move(path);
    f.id = wf.id;
    f.src = ft.host(wf.src_host);
    f.dst = ft.host(wf.dst_host);
    f.size = wf.size;
    f.arrival = wf.arrival;
    f.priority = wf.priority;
    // Route re-derivation, same ECMP-on-id convention as trace_io.
    ft.RouteBetween(wf.src_host, wf.dst_host, static_cast<std::uint64_t>(wf.id), &f.path);
  }
  return Status::Ok();
}

namespace {

// This thread's request-flow workspace: each query the thread runs
// rebuilds its flows here in place, so the flows and their routes are
// allocated once per thread, not per query. Callers bind it to a reference
// before RunM3: named inside a ParallelFor body, a thread_local would be
// the pool thread's own (empty) instance.
std::vector<Flow>& RequestFlowWorkspace() {
  thread_local std::vector<Flow> workspace;
  return workspace;
}

// Shared setup for full and shard execution: validated topology, routed
// flows, and the request's M3Options (minus the slot filter) with
// `deadline_seconds` as the budget. `flows` is this thread's request-flow
// workspace; the destructor releases it when the query left it holding
// room for more than kMaxKeptRequestFlows.
struct PreparedQuery {
  PreparedQuery(const QueryRequest& req, double deadline_seconds, const ExecContext& ctx);
  ~PreparedQuery() {
    if (flows.capacity() > kMaxKeptRequestFlows) std::vector<Flow>().swap(flows);
  }
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  std::shared_ptr<const FatTree> ft;
  std::vector<Flow>& flows;
  M3Options mopts;
  Status status;  // non-ok => validation failed; use nothing else
};

PreparedQuery::PreparedQuery(const QueryRequest& req, double deadline_seconds,
                             const ExecContext& ctx)
    : flows(RequestFlowWorkspace()) {
  StatusOr<std::shared_ptr<const FatTree>> topo = TopoForRequest(req, ctx.topos);
  if (!topo.ok()) {
    status = topo.status();
    return;
  }
  ft = std::move(*topo);
  status = BuildRequestFlows(req, *ft, &flows);
  if (!status.ok()) return;
  mopts.num_paths = req.num_paths;
  mopts.seed = req.seed;
  mopts.use_context = req.use_context;
  mopts.strict = req.strict;
  mopts.deadline_seconds = deadline_seconds;
  mopts.max_attempts = req.max_attempts;
  mopts.num_threads = ctx.threads_per_query;
}

}  // namespace

std::size_t RequestFlowWorkspaceCapacity() { return RequestFlowWorkspace().capacity(); }

QueryResponse ExecuteQueryOnSnapshot(const QueryRequest& req, double deadline_seconds,
                                     const ModelSnapshot& snap, const ExecContext& ctx) {
  QueryResponse resp;
  resp.model_version = snap.version;
  resp.model_crc = snap.param_crc;

  const PreparedQuery p(req, deadline_seconds, ctx);
  if (!p.status.ok()) {
    resp.status = p.status;
    resp.degradation.errors_validation = 1;
    return resp;
  }

  NetworkEstimate est = RunM3(p.ft->topo(), p.flows, req.cfg, snap.model, p.mopts);

  resp.status = est.status;
  resp.bucket_pct = std::move(est.bucket_pct);
  resp.total_counts = est.total_counts;
  resp.combined_pct = std::move(est.combined_pct);
  resp.wall_seconds = est.wall_seconds;
  resp.degradation = est.degradation;
  return resp;
}

ShardQueryResponse ExecuteShardOnSnapshot(const ShardQueryRequest& req,
                                          const ModelSnapshot& snap, const ExecContext& ctx) {
  ShardQueryResponse resp;
  resp.model_version = snap.version;
  resp.model_crc = snap.param_crc;

  PreparedQuery p(req.query, req.query.deadline_seconds, ctx);
  if (!p.status.ok()) {
    resp.status = p.status;
    resp.degradation.errors_validation = 1;
    return resp;
  }
  p.mopts.sample_slots = &req.slots;
  NetworkEstimate est = RunM3(p.ft->topo(), p.flows, req.query.cfg, snap.model, p.mopts);

  resp.status = est.status;
  resp.degradation = est.degradation;
  if (est.status.code() != StatusCode::kInvalidArgument) {
    resp.estimates.reserve(req.slots.size());
    for (std::uint32_t slot : req.slots) {
      if (slot >= est.paths.size()) continue;  // rejected above; belt & braces
      const PathEstimate& pe = est.paths[slot];
      // A dropped slot is all-zero (no estimate); omit it so the router can
      // climb its own ladder for that slot instead of aggregating a blank.
      if (!HasWeight(pe)) continue;
      resp.estimates.push_back(SlotEstimateWire{slot, pe});
    }
  }
  return resp;
}

}  // namespace m3::serve
