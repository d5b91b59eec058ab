// m3d wire protocol: message payloads + the cache-key definitions.
//
// Transport framing (magic/type/length) lives in util/socket.h; this layer
// defines what goes inside a frame. Everything is little-endian; integers
// are fixed-width; doubles travel by bit pattern; strings and vectors are
// u64-length-prefixed. Payloads start with a u32 wire version so an old
// client talking to a new daemon gets a clean INVALID_ARGUMENT instead of a
// garbage parse. Decoding is fully bounds-checked: a truncated or hostile
// payload yields kDataLoss / kInvalidArgument, never an overread.
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
// the v4 overload fields (priority, brownout): they are serving policy, and
// a browned-out answer is never kOk, so it can never poison the cache.
// The model digest term means a hot-reload implicitly invalidates every
// cached result; stale entries age out via LRU.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "pktsim/config.h"
#include "util/hash.h"
#include "util/status.h"

namespace m3::serve {

/// v4: overload control — priority class + brownout level in QueryRequest,
/// shed_reason in QueryResponse, brownout attribution in DegradationReport,
/// shed/brownout/cost counters in ServerStatsWire. Back-compatible: every
/// decoder also accepts v3 payloads (new fields take their defaults), and
/// encoders can emit v3 so a response echoes the version the request spoke
/// — an un-upgraded m3_client keeps working against a v4 daemon.
/// (v3 added the sharded-fleet messages; v2 the Ping pair + worker fields.)
constexpr std::uint32_t kWireVersion = 4;
/// Oldest version this build still decodes and can echo back.
constexpr std::uint32_t kMinWireVersion = 3;

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

/// Explicit fat-tree shape (v3). All-zero — the default — means "the
/// paper's small testbed at the request's oversub", i.e.
/// FatTreeConfig::Small(oversub), which is what every pre-v3 client meant.
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

/// Request priority classes (v4). Under overload the service sheds lower
/// classes first; kCritical is never displaced and never browned out.
enum class Priority : std::uint8_t {
  kBackground = 0,
  kNormal = 1,      // the default (and what every v3 client means)
  kInteractive = 2,
  kCritical = 3,
};
constexpr std::uint8_t kNumPriorityClasses = 4;

/// Why a query was shed instead of computed (v4, QueryResponse). kNone on
/// every computed answer. Shed answers always carry a non-OK status too
/// (kResourceExhausted or kDeadlineExceeded); the reason says which rung of
/// the overload ladder fired, so load generators and dashboards can tell a
/// full queue from a priority eviction from an expired wait.
enum class ShedReason : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,     // admission: queue full, no lower-class victim
  kPriority = 2,      // admitted, then displaced by a higher class
  kExpired = 3,       // deadline expired while queued; reaped unexecuted
  kSojourn = 4,       // CoDel-style: queue sojourn over threshold at admit
  kCostBudget = 5,    // admission: in-flight cost budget exhausted
  kRouterBudget = 6,  // router: deadline budget spent before dispatch
};
constexpr std::uint8_t kNumShedReasons = 7;

struct QueryRequest {
  double oversub = 2.0;  // daemon builds FatTreeConfig::Small(oversub)
  WireTopo topo;         // explicit shape override (v3); default = Small
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
  // Priority class (v4); see Priority. v3 payloads decode as kNormal.
  std::uint8_t priority = static_cast<std::uint8_t>(Priority::kNormal);
  // Brownout level this query executes at (v4): 0 full quality, 1 reduced
  // path sample, 2 flowSim substitute. Stamped by the *service* under
  // sustained pressure — clients send 0; a non-zero value in a client
  // request is honored (useful for tests) but never required.
  std::uint8_t brownout = 0;
  // Not on the wire: the version the decoded payload spoke, so responses
  // can echo it (kWireVersion when built in-process).
  std::uint32_t wire_version = kWireVersion;
};

/// Cumulative per-shard counters in router stats (ServerStatsWire::shards).
struct ShardHealthWire {
  std::string address;             // endpoint string, e.g. "tcp:10.0.0.2:9000"
  bool healthy = false;            // last health probe succeeded
  bool breaker_open = false;
  std::uint64_t model_version = 0; // from the last successful probe
  std::uint64_t dispatches = 0;    // sub-requests sent (incl. retries/hedges)
  std::uint64_t failures = 0;      // sub-requests that did not answer
  std::uint64_t retries = 0;       // re-dispatches after a failure
  std::uint64_t hedges = 0;        // duplicate dispatches for stragglers
  std::uint64_t slots_fallback = 0;  // this shard's slots served by flowSim
  std::uint64_t slots_dropped = 0;   // this shard's slots reweighted away
};

/// Serving-side counters returned with every response and by kStatsRequest.
struct ServerStatsWire {
  std::uint64_t queries_received = 0;
  std::uint64_t queries_ok = 0;        // includes degraded/deadline answers
  std::uint64_t queries_rejected = 0;  // admission control (queue full)
  std::uint64_t queries_failed = 0;    // validation / no-model / internal
  // cache counters: {hits, misses, inserts, evictions, entries}
  std::uint64_t query_cache[5] = {0, 0, 0, 0, 0};
  std::uint64_t path_cache[5] = {0, 0, 0, 0, 0};
  std::uint32_t queue_depth = 0;
  std::uint32_t queue_capacity = 0;
  std::uint32_t workers = 0;
  std::uint64_t model_version = 0;
  std::uint32_t model_crc = 0;
  std::uint64_t reloads_ok = 0;
  std::uint64_t reloads_failed = 0;
  std::string model_path;
  // Worker-pool health (all zero when queries execute in-process).
  bool worker_mode = false;
  std::uint32_t workers_configured = 0;
  std::uint32_t workers_alive = 0;
  std::uint64_t worker_spawns = 0;        // forks, incl. the initial pool
  std::uint64_t worker_restarts = 0;      // respawns after an unexpected death
  std::uint64_t worker_crashes = 0;       // died mid-query
  std::uint64_t watchdog_kills = 0;       // SIGKILLed past deadline + grace
  std::uint64_t garbage_replies = 0;      // undecodable reply -> worker replaced
  std::uint64_t crash_retried_queries = 0;  // re-run on a fresh worker
  std::uint64_t breaker_trips = 0;
  bool breaker_open = false;              // current model version quarantined
  std::uint32_t quarantined_digests = 0;
  // Router fleet health (router_mode daemons only; empty otherwise).
  bool router_mode = false;
  std::vector<ShardHealthWire> shards;
  // Overload control (v4; zero when decoded from a v3 peer).
  std::uint64_t queries_shed = 0;     // admitted, then shed (priority/expiry)
  // Sheds by ShedReason (gate rejections and evictions both attributed).
  std::uint64_t shed_by_reason[kNumShedReasons] = {0};
  std::uint64_t brownout_queries = 0;  // executed at brownout level >= 1
  std::uint32_t brownout_level = 0;    // current gauge (0 = full quality)
  double in_flight_cost = 0.0;         // admitted-but-unanswered cost units
  double cost_budget = 0.0;            // admission budget (0 = derived)
  // Durable-cache persistence (v4 additive tail; zero when the peer
  // predates it or runs without --cache-dir). See serve/persist.h.
  bool persist_enabled = false;
  std::uint64_t persist_segments_loaded = 0;
  std::uint64_t persist_entries_loaded = 0;
  std::uint64_t persist_entries_flushed = 0;
  std::uint64_t persist_records_corrupt = 0;
  std::uint64_t persist_digest_dropped = 0;
  std::uint64_t persist_flush_backlog = 0;
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
  std::uint32_t hedges = 0;         // hedged duplicates for this query
  bool breaker_open = false;        // breaker state seen at dispatch
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
  // Why this query was shed (v4); kNone on computed answers. See ShedReason.
  std::uint8_t shed_reason = static_cast<std::uint8_t>(ShedReason::kNone);
  // Per-shard attribution (v3); populated only by m3d-router.
  std::vector<ShardReportWire> shards;
  ServerStatsWire stats;
};

/// Scatter unit (v3): the full client query plus the sample slots this
/// shard owns. The shard re-derives the deterministic path sample from
/// (topology, flows, seed, num_paths) — identical to what a single host
/// would compute — and estimates only `slots`
/// (M3Options::sample_slots), so disjoint slot sets from different shards
/// merge positionally into one bitwise-reproducible answer.
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
  double wall_seconds = 0.0;
  std::vector<SlotEstimateWire> estimates;
};

struct ReloadRequest {
  std::string checkpoint_path;
  // Not on the wire: the version the decoded payload spoke (echoed back).
  std::uint32_t wire_version = kWireVersion;
};

/// Liveness/readiness probe (`m3_client --ping`). The request has no body
/// beyond the wire version.
struct PingResponse {
  bool ready = false;  // model loaded and (in worker mode) >=1 worker alive
  bool worker_mode = false;
  std::uint64_t model_version = 0;
  std::uint32_t workers_alive = 0;
  // Router fleet readiness (v3; zero on plain daemons). A router is
  // `ready` when at least one shard is healthy — it can always answer,
  // via flowSim fallback at worst.
  bool router_mode = false;
  std::uint32_t shards_healthy = 0;
  std::uint32_t shards_total = 0;
  // Content CRC of the served model parameters (v4 additive tail; zero
  // from older peers). Unlike model_version — a per-process load counter —
  // this survives restarts, so the router uses it to validate persisted
  // per-path cache entries against the live fleet.
  std::uint32_t model_crc = 0;
};

struct ReloadResponse {
  Status status;
  std::uint64_t model_version = 0;  // serving version after the attempt
  std::uint32_t model_crc = 0;
};

// ----- serialization (payload <-> struct) -----
//
// Every encoder takes the wire version to emit (default: this build's
// kWireVersion); versions below kMinWireVersion are clamped up. Decoders
// accept [kMinWireVersion, kWireVersion] — v4-only fields keep their
// defaults when the payload spoke v3. A server answers in the version the
// request spoke (QueryRequest::wire_version / PeekWireVersion), so old
// clients never see fields they cannot parse.

/// Best-effort version sniff for request bodies a handler does not decode
/// (ping, stats): the leading u32 when it is a known version, else
/// kMinWireVersion (covers the empty legacy stats-request body).
std::uint32_t PeekWireVersion(const std::string& payload);

std::string EncodeQueryRequest(const QueryRequest& req,
                               std::uint32_t version = kWireVersion);
StatusOr<QueryRequest> DecodeQueryRequest(const std::string& payload);

std::string EncodeQueryResponse(const QueryResponse& resp,
                                std::uint32_t version = kWireVersion);
StatusOr<QueryResponse> DecodeQueryResponse(const std::string& payload);

/// The stats *request* body (v4 clients; previously an empty payload).
/// Servers ignore unknown bytes here, so this is safe to send to old
/// daemons; it exists so a v4 server knows which version to answer in.
std::string EncodeStatsRequest(std::uint32_t version = kWireVersion);

std::string EncodeStats(const ServerStatsWire& stats,
                        std::uint32_t version = kWireVersion);
StatusOr<ServerStatsWire> DecodeStats(const std::string& payload);

std::string EncodeReloadRequest(const ReloadRequest& req,
                                std::uint32_t version = kWireVersion);
StatusOr<ReloadRequest> DecodeReloadRequest(const std::string& payload);

std::string EncodeReloadResponse(const ReloadResponse& resp,
                                 std::uint32_t version = kWireVersion);
StatusOr<ReloadResponse> DecodeReloadResponse(const std::string& payload);

std::string EncodePingRequest(std::uint32_t version = kWireVersion);
Status DecodePingRequest(const std::string& payload);

std::string EncodePingResponse(const PingResponse& resp,
                               std::uint32_t version = kWireVersion);
StatusOr<PingResponse> DecodePingResponse(const std::string& payload);

std::string EncodeShardQueryRequest(const ShardQueryRequest& req,
                                    std::uint32_t version = kWireVersion);
StatusOr<ShardQueryRequest> DecodeShardQueryRequest(const std::string& payload);

std::string EncodeShardQueryResponse(const ShardQueryResponse& resp,
                                     std::uint32_t version = kWireVersion);
StatusOr<ShardQueryResponse> DecodeShardQueryResponse(const std::string& payload);

// ----- persisted cache values (serve/persist.h segment payloads) -----

/// Standalone PathEstimate codec for the durable per-path cache. Same
/// field order as the in-response encoding; versioned like every payload.
std::string EncodePathEstimateValue(const PathEstimate& pe,
                                    std::uint32_t version = kWireVersion);
StatusOr<PathEstimate> DecodePathEstimateValue(const std::string& payload);

/// A router-side persisted per-path result: the estimate plus the model
/// identity it was computed under. `model_crc` (content-derived) is the
/// cross-restart validity guard; `model_version` is advisory diagnostics.
struct RouterPathValue {
  std::uint64_t model_version = 0;
  std::uint32_t model_crc = 0;
  PathEstimate estimate{};
};

std::string EncodeRouterPathValue(const RouterPathValue& v,
                                  std::uint32_t version = kWireVersion);
StatusOr<RouterPathValue> DecodeRouterPathValue(const std::string& payload);

// ----- cache keys -----

/// Whole-query content address (definition at the top of this header).
Hash128 QueryCacheKey(const QueryRequest& req, const Hash128& model_digest);

/// Per-path content address over the materialized scenario. Shared across
/// queries that sample the same path with the same flows — e.g. the same
/// workload queried with a different `num_paths` or sampling seed still
/// reuses every overlapping path.
///
/// Compatibility contract: persisted path caches and the router's ring
/// placement both depend on these exact bytes, so changing them means
/// bumping the schema tag. The key hashes, little-endian, in order:
///   Str(schema tag) · U64 digest.hi · U64 digest.lo · U8 use_context ·
///   NetConfig (HashNetConfig order) · I32 num_links ·
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
