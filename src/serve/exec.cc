#include "serve/exec.h"

#include <algorithm>
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
  std::vector<Flow> flows;
  flows.reserve(req.flows.size());
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
    Flow f;
    f.id = wf.id;
    f.src = ft.host(wf.src_host);
    f.dst = ft.host(wf.dst_host);
    f.size = wf.size;
    f.arrival = wf.arrival;
    f.priority = wf.priority;
    // Route re-derivation, same ECMP-on-id convention as trace_io.
    f.path = ft.RouteBetween(wf.src_host, wf.dst_host, static_cast<std::uint64_t>(wf.id));
    flows.push_back(std::move(f));
  }
  *out = std::move(flows);
  return Status::Ok();
}

namespace {

// Shared setup for full and shard execution: validated topology, routed
// flows, and the request's M3Options (minus the slot filter).
struct PreparedQuery {
  std::shared_ptr<const FatTree> ft;
  std::vector<Flow> flows;
  M3Options mopts;
  Status status;  // non-ok => validation failed, nothing else populated
};

PreparedQuery PrepareQuery(const QueryRequest& req, const ExecContext& ctx) {
  PreparedQuery p;
  StatusOr<std::shared_ptr<const FatTree>> ft = TopoForRequest(req, ctx.topos);
  if (!ft.ok()) {
    p.status = ft.status();
    return p;
  }
  p.ft = std::move(*ft);
  if (Status st = BuildRequestFlows(req, *p.ft, &p.flows); !st.ok()) {
    p.status = st;
    return p;
  }
  p.mopts.num_paths = req.num_paths;
  p.mopts.seed = req.seed;
  p.mopts.use_context = req.use_context;
  p.mopts.strict = req.strict;
  p.mopts.deadline_seconds = req.deadline_seconds;
  p.mopts.max_attempts = req.max_attempts;
  p.mopts.num_threads = ctx.threads_per_query;
  return p;
}

// Brownout attribution + status upgrade (DESIGN.md §13). A browned-out
// answer is never silent: even when the reduced-quality run succeeds, the
// status is forced to kDegraded with the brownout named, and the
// DegradationReport carries the level and affected path count. Since only
// kOk answers are cached, a browned-out answer can never poison a cache.
void StampBrownout(std::uint8_t level, int paths_brownout, NetworkEstimate* est) {
  if (level == 0) return;
  est->degradation.brownout_level = level;
  est->degradation.paths_brownout = paths_brownout;
  if (est->status.ok()) {
    est->status = Status::Degraded(
        level >= 2 ? "brownout level 2: flowSim substituted for the model"
                   : "brownout level 1: path sample reduced under load");
  }
}

}  // namespace

QueryResponse ExecuteQueryOnSnapshot(const QueryRequest& req, const ModelSnapshot& snap,
                                     const ExecContext& ctx) {
  QueryResponse resp;
  resp.model_version = snap.version;
  resp.model_crc = snap.param_crc;

  PreparedQuery p = PrepareQuery(req, ctx);
  if (!p.status.ok()) {
    resp.status = p.status;
    resp.degradation.errors_validation = 1;
    return resp;
  }

  // Brownout level 1: halve the path sample (floor 16) — fewer model
  // invocations, wider per-path weights, same estimator ladder.
  int paths_brownout = 0;
  if (req.brownout == 1) {
    const std::int32_t reduced = std::max<std::int32_t>(16, req.num_paths / 2);
    if (reduced < req.num_paths) {
      p.mopts.num_paths = reduced;
      paths_brownout = static_cast<int>(req.num_paths - reduced);
    }
  }

  // Brownout level 2: substitute flowSim for the model — Parsimon's bet
  // that a cheap flow-level estimate beats a timeout under overload.
  NetworkEstimate est =
      req.brownout >= 2
          ? RunFlowSimOnly(p.ft->topo(), p.flows, req.cfg, p.mopts)
          : RunM3(p.ft->topo(), p.flows, req.cfg, snap.model, p.mopts);
  StampBrownout(req.brownout,
                req.brownout >= 2 ? static_cast<int>(p.mopts.num_paths)
                                  : paths_brownout,
                &est);

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

  PreparedQuery p = PrepareQuery(req.query, ctx);
  if (!p.status.ok()) {
    resp.status = p.status;
    resp.degradation.errors_validation = 1;
    return resp;
  }
  // Shard brownout level 1 must not touch num_paths (slot indices are
  // derived from the full sample); instead serve only the first half of
  // the requested slots. The router's own ladder covers the omitted rest,
  // so the *shard's* model work halves while every slot still resolves.
  std::vector<std::uint32_t> reduced_slots;
  int paths_brownout = 0;
  if (req.query.brownout == 1 && req.slots.size() > 1) {
    reduced_slots.assign(req.slots.begin(),
                         req.slots.begin() +
                             static_cast<std::ptrdiff_t>((req.slots.size() + 1) / 2));
    paths_brownout = static_cast<int>(req.slots.size() - reduced_slots.size());
    p.mopts.sample_slots = &reduced_slots;
  } else {
    p.mopts.sample_slots = &req.slots;
  }

  NetworkEstimate est =
      req.query.brownout >= 2
          ? RunFlowSimOnly(p.ft->topo(), p.flows, req.query.cfg, p.mopts)
          : RunM3(p.ft->topo(), p.flows, req.query.cfg, snap.model, p.mopts);
  StampBrownout(req.query.brownout,
                req.query.brownout >= 2 ? static_cast<int>(req.slots.size())
                                        : paths_brownout,
                &est);

  resp.status = est.status;
  resp.degradation = est.degradation;
  resp.wall_seconds = est.wall_seconds;
  if (est.status.code() != StatusCode::kInvalidArgument) {
    resp.estimates.reserve(req.slots.size());
    for (std::uint32_t slot : req.slots) {
      if (slot >= est.paths.size()) continue;  // rejected above; belt & braces
      const PathEstimate& pe = est.paths[slot];
      // A dropped slot is all-zero (no estimate); omit it so the router can
      // climb its own ladder for that slot instead of aggregating a blank.
      bool has_weight = false;
      for (double c : pe.counts) has_weight = has_weight || c > 0.0;
      if (!has_weight) continue;
      resp.estimates.push_back(SlotEstimateWire{slot, pe});
    }
  }
  return resp;
}

}  // namespace m3::serve
