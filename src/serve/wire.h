// m3d wire protocol: message payloads + the cache-key definitions.
//
// Transport framing (magic/type/length) lives in util/socket.h; this layer
// defines what goes inside a frame. Everything is little-endian; integers
// are fixed-width; doubles travel by bit pattern; strings and vectors are
// u64-length-prefixed. Every payload starts with a u32 wire version, and
// there is exactly one: a decoder rejects any other version with
// INVALID_ARGUMENT naming both, so a mismatched peer (one from another
// build) fails cleanly instead of mis-parsing. There
// is no version echo and no length-gated optional tail; every field is
// always present.
//
// Each struct's fields are listed once, in wire order (`Fields` in
// wire.cc); the encoder, the decoder and the query key all walk that list.
// The decoder's reader keeps its first failure and turns every later read
// into a no-op, so a field list reads straight through. Every read is
// bounds-checked (a truncated payload is kDataLoss, never an overread).
// Values are checked in two places only: an enum at or past its limit is
// kInvalidArgument, and a length prefix over its cap is kInvalidArgument
// or longer than the rest of the payload can hold is kDataLoss, before
// anything is sized from it. Strings and percentile vectors are capped at
// 2^20; record lists and the shard request's embedded query are bounded
// only by the payload, which the frame layer caps (kMaxFramePayload). An accepted payload re-encodes to the same bytes.
//
// A vector of fixed-width records (flows, slots, slot estimates) is one
// block: its count is checked against the payload once, then each record
// is written or read through its field list without a per-field check.
//
// Answers carry no stats: serving counters travel only in the
// kStatsRequest / kStatsResponse pair (schema in serve/metrics.h).
//
// Cache keys (the "content address" of a result) are also defined here so
// the definition lives next to the serialized fields it must cover:
//
//   query key = H(schema tag, model digest, use_context, oversub,
//                 topology shape, NetConfig (every field), num_paths,
//                 sampling seed,
//                 flows (id, src, dst, size, arrival, priority))
//   path key  = H(schema tag, model digest, use_context,
//                 NetConfig (every field), path scenario content: chain
//                 length, every lot link (src, dst, rate, delay), every
//                 flow (endpoints, route, size, arrival, priority, fg/bg,
//                 entry/exit hop))
//
// Deliberately *excluded* from both keys: strict, deadline_seconds,
// max_attempts (they shape fault handling, not the fault-free answer — and
// only full-quality kOk answers are ever cached), the no_cache flag, and
// priority: it orders the scheduler's queues, never the answer.
// The model digest term means a hot-reload implicitly invalidates every
// cached result; stale entries age out via LRU.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "pktsim/config.h"
#include "serve/metrics.h"
#include "util/hash.h"
#include "util/status.h"

namespace m3::serve {

/// The one wire version this build speaks. v7 carries only fields that
/// running code sets and reads: it dropped DegradationReport::paths_cached,
/// ShardReportWire's hedges and breaker_open, ShardQueryResponse's
/// wall_seconds, and the stats rows the deleted breaker, hedge, path cache
/// and durable cache left at 0. Every other version is rejected.
constexpr std::uint32_t kWireVersion = 7;

/// Frame types (util/socket.h `type` field).
enum class MsgType : std::uint32_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kReloadRequest = 5,
  kReloadResponse = 6,
  kPingRequest = 7,
  kPingResponse = 8,
  // Fleet-internal scatter-gather (m3d-router <-> shard m3d).
  kShardQueryRequest = 9,
  kShardQueryResponse = 10,
};

/// One flow as it travels on the wire: fat-tree host indices, route
/// re-derived daemon-side by ECMP on the flow id (the trace_io convention).
struct WireFlow {
  std::int32_t id = 0;
  std::int32_t src_host = 0;
  std::int32_t dst_host = 0;
  std::int64_t size = 0;
  std::int64_t arrival = 0;
  std::uint8_t priority = 0;
};

/// Explicit fat-tree shape. All-zero — the default — means "the paper's
/// small testbed at the request's oversub", i.e. FatTreeConfig::Small(oversub).
/// Non-zero pins the full shape (the large `M3_SCALE` topologies travel
/// this way); `oversub` is then implied by racks_per_pod/spines_per_plane
/// and the standalone field is ignored for topology construction.
struct WireTopo {
  std::int32_t pods = 0;
  std::int32_t racks_per_pod = 0;
  std::int32_t hosts_per_rack = 0;
  std::int32_t fabric_per_pod = 0;
  std::int32_t spines_per_plane = 0;

  bool IsDefault() const {
    return pods == 0 && racks_per_pod == 0 && hosts_per_rack == 0 && fabric_per_pod == 0 &&
           spines_per_plane == 0;
  }
  bool operator==(const WireTopo& o) const {
    return pods == o.pods && racks_per_pod == o.racks_per_pod &&
           hosts_per_rack == o.hosts_per_rack && fabric_per_pod == o.fabric_per_pod &&
           spines_per_plane == o.spines_per_plane;
  }
};

/// Request priority classes. The service's workers take queued requests
/// from the highest class first (FIFO within a class).
enum class Priority : std::uint8_t {
  kBackground = 0,
  kNormal = 1,      // the default
  kInteractive = 2,
  kCritical = 3,
};
constexpr std::uint8_t kNumPriorityClasses = 4;

/// Why a query was shed instead of computed (QueryResponse). kNone on
/// every computed answer. Shed answers always carry a non-OK status too
/// (kResourceExhausted or kDeadlineExceeded); the reason says which check
/// fired, so load generators and dashboards can tell a full queue from an
/// expired wait.
enum class ShedReason : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,     // admission: queue full
  kExpired = 2,       // deadline expired while queued; reaped unexecuted
  kRouterBudget = 3,  // router: deadline budget spent before dispatch
};
constexpr std::uint8_t kNumShedReasons = 4;
static_assert(ShedReasonLabels::names.size() == kNumShedReasons,
              "shed_by_reason has one label per ShedReason");

struct QueryRequest {
  double oversub = 2.0;  // daemon builds FatTreeConfig::Small(oversub)
  WireTopo topo;         // explicit shape override; default = Small
  std::vector<WireFlow> flows;
  NetConfig cfg;
  // M3Options subset (num_threads stays a server-side policy knob).
  std::int32_t num_paths = 100;
  std::uint64_t seed = 1;
  bool use_context = true;
  bool strict = false;
  double deadline_seconds = 0.0;
  std::int32_t max_attempts = 2;
  // Bypass both result caches for this query (still computes + reports).
  bool no_cache = false;
  // Priority class; see Priority.
  std::uint8_t priority = static_cast<std::uint8_t>(Priority::kNormal);
};

/// Per-shard attribution for one answer assembled by m3d-router (empty when
/// a single daemon answered). Sums over `slots_*` equal the query's
/// num_paths; fallback/dropped slots also appear in the merged
/// DegradationReport as degraded/dropped paths.
struct ShardReportWire {
  std::string shard;                // endpoint string
  std::uint32_t slots_assigned = 0; // sample slots hashed to this shard
  std::uint32_t slots_ok = 0;       // estimated by the shard (any replica)
  std::uint32_t slots_fallback = 0; // router-side flowSim fallback
  std::uint32_t slots_dropped = 0;  // reweighted drop
  std::uint32_t retries = 0;        // re-dispatches for this query
};

struct QueryResponse {
  Status status;  // estimator status, or the service's rejection status
  // NetworkEstimate payload (per-path estimates are not shipped; the
  // aggregate is the product).
  std::array<std::vector<double>, kNumOutputBuckets> bucket_pct;
  std::array<double, kNumOutputBuckets> total_counts{};
  std::vector<double> combined_pct;
  double wall_seconds = 0.0;  // compute time (original compute on a hit)
  DegradationReport degradation;
  // Serving metadata.
  std::uint64_t model_version = 0;
  std::uint32_t model_crc = 0;
  bool query_cache_hit = false;
  // Why this query was shed; kNone on computed answers. See ShedReason.
  std::uint8_t shed_reason = static_cast<std::uint8_t>(ShedReason::kNone);
  // Per-shard attribution; populated only by m3d-router.
  std::vector<ShardReportWire> shards;
};

/// Scatter unit: the full client query plus the sample slots this
/// shard owns. The shard re-derives the deterministic path sample from
/// (topology, flows, seed, num_paths) — identical to what a single host
/// would compute — and estimates only `slots`
/// (M3Options::sample_slots), so disjoint slot sets from different shards
/// merge positionally into one bitwise-reproducible answer.
///
/// On the wire the query is embedded as its own versioned QueryRequest
/// payload behind a u64 length, bounded only by the frame, and the slot
/// list follows it. The router encodes that head once per scatter round
/// (every shard of a round gets the same deadline budget) and sends it to
/// each shard with the shard's own slot list; the shard decodes the
/// embedded query in place.
struct ShardQueryRequest {
  QueryRequest query;
  std::vector<std::uint32_t> slots;
};

/// One per-slot estimate: the 4x100 percentile grid plus per-bucket
/// foreground counts (core/aggregate.h PathEstimate).
struct SlotEstimateWire {
  std::uint32_t slot = 0;
  PathEstimate estimate{};
};

struct ShardQueryResponse {
  Status status;                  // estimator status for this shard's slots
  DegradationReport degradation;  // covers only this shard's slots
  std::uint64_t model_version = 0;
  std::uint32_t model_crc = 0;
  std::vector<SlotEstimateWire> estimates;
};

struct ReloadRequest {
  std::string checkpoint_path;
};

/// Liveness/readiness probe (`m3_client --ping`). The request has no body
/// beyond the wire version, and a server answers it whatever the body holds.
struct PingResponse {
  bool ready = false;  // model loaded and (in worker mode) >=1 worker alive
  bool worker_mode = false;
  std::uint64_t model_version = 0;
  std::uint32_t workers_alive = 0;
  // Router fleet readiness (zero on plain daemons). A router is
  // `ready` when at least one shard is healthy — it can always answer,
  // via flowSim fallback at worst.
  bool router_mode = false;
  std::uint32_t shards_healthy = 0;
  std::uint32_t shards_total = 0;
  // Content CRC of the served model parameters. Unlike model_version — a
  // per-process load counter — this is the same in every process serving
  // one checkpoint, so the router uses it to validate its cached answers
  // against the live fleet.
  std::uint32_t model_crc = 0;
};

struct ReloadResponse {
  Status status;
  std::uint64_t model_version = 0;  // serving version after the attempt
  std::uint32_t model_crc = 0;
};

// ----- serialization (payload <-> struct) -----
//
// Encoders emit kWireVersion; decoders accept only kWireVersion.

std::string EncodeQueryRequest(const QueryRequest& req);
/// `req` as the service's scheduler ran it, sent without copying it:
/// `deadline_seconds` (the budget left after queueing) in place of
/// req.deadline_seconds, and the priority clamped to the top class.
std::string EncodeScheduledQuery(const QueryRequest& req, double deadline_seconds);
StatusOr<QueryRequest> DecodeQueryRequest(const std::string& payload);

std::string EncodeQueryResponse(const QueryResponse& resp);
StatusOr<QueryResponse> DecodeQueryResponse(const std::string& payload);

/// Ping and stats requests are version-only bodies; a server answers them
/// whatever the body holds.
std::string EncodePingRequest();
std::string EncodeStatsRequest();

std::string EncodeStats(const ServerStatsWire& stats);
StatusOr<ServerStatsWire> DecodeStats(const std::string& payload);

std::string EncodeReloadRequest(const ReloadRequest& req);
StatusOr<ReloadRequest> DecodeReloadRequest(const std::string& payload);

std::string EncodeReloadResponse(const ReloadResponse& resp);
StatusOr<ReloadResponse> DecodeReloadResponse(const std::string& payload);

std::string EncodePingResponse(const PingResponse& resp);
StatusOr<PingResponse> DecodePingResponse(const std::string& payload);

/// A ShardQueryRequest payload is a head (the version and the embedded
/// query, with `deadline_seconds` in place of query.deadline_seconds) and
/// a tail (the slot list), concatenated; EncodeShardQueryRequest is that
/// concatenation. A scatter encodes the head once and sends it with each
/// shard's tail, without copying the query or its flows per shard.
std::string EncodeShardQueryHead(const QueryRequest& query, double deadline_seconds);
std::string EncodeShardQuerySlots(const std::vector<std::uint32_t>& slots);
std::string EncodeShardQueryRequest(const ShardQueryRequest& req);
StatusOr<ShardQueryRequest> DecodeShardQueryRequest(const std::string& payload);

std::string EncodeShardQueryResponse(const ShardQueryResponse& resp);
StatusOr<ShardQueryResponse> DecodeShardQueryResponse(const std::string& payload);

// ----- cache keys -----

/// Whole-query content address (definition at the top of this header).
/// m3d_router, which never sees the digest, passes the fleet's model CRC in
/// its place.
Hash128 QueryCacheKey(const QueryRequest& req, const Hash128& model_digest);

/// Per-path content address over the materialized scenario: equal exactly
/// when two path scenarios are bitwise equal under one config and model.
/// Nothing serves from it; it is a test identity (the golden pipeline pins
/// every sampled path's key) and a stage the benchmark times. The key
/// hashes, little-endian, in order:
///   Str(schema tag) · U64 digest.hi · U64 digest.lo · U8 use_context ·
///   NetConfig (in wire order) · I32 num_links ·
///   U64 lot link count, then per lot link in id order
///     I32 src · I32 dst · F64 rate · I64 delay                  (24 B) ·
///   U64 flow count, then per flow in scenario order
///     I32 src · I32 dst · I64 size · I64 arrival · U8 priority · U8 is_fg ·
///     I32 entry_hop · I32 exit_hop · U64 route length           (42 B)
///     followed by I32 per route hop                             (4 B each).
/// The link and flow sections are serialized into one buffer and absorbed
/// with a single Hasher::Bytes call (the hash does not depend on how the
/// stream is split across calls). DESIGN.md §5 has the same table.
Hash128 PathCacheKey(const PathScenario& scenario, const NetConfig& cfg,
                     bool use_context, const Hash128& model_digest);

}  // namespace m3::serve
