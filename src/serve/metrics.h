// The serving stats schema, written once.
//
// M3_SERVER_METRICS is the one list of every metric m3d and m3d-router
// export. Each entry is X(type, name, kind, labels, help):
//   kind    kCounter (monotone since boot) or kGauge (current value);
//   labels  NoLabels, or a label set (CacheOpLabels, ShedReasonLabels)
//           whose names index the metric's std::array of values;
//   help    one line of text for the formatters.
// Everything else is derived from the list: the ServerStatsWire members,
// the constexpr descriptor table kServerMetrics, the stats codec in
// serve/wire.cc (fields in list order), and FormatStatsText /
// FormatStatsJson. M3_SHARD_HEALTH_FIELDS does the same for the router's
// per-shard rows. Adding a metric is one list entry plus the line in
// EstimationService::Stats or Router::Stats that fills it.
//
// The descriptors are constexpr static data (the `static constexpr name` /
// `names` idiom), not static-init registration: there is no registry to
// initialize, order, or register twice.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace m3::serve {

enum class MetricKind : std::uint8_t { kCounter, kGauge };

// Label sets: `key` names the label, `names` its values in array order.
struct NoLabels {
  static constexpr const char* key = "";
  static constexpr std::array<const char*, 0> names{};
};
/// LruCache counters (serve/cache.h CacheStats); entries is the occupancy.
struct CacheOpLabels {
  static constexpr const char* key = "op";
  static constexpr std::array<const char*, 5> names = {"hits", "misses", "inserts",
                                                        "evictions", "entries"};
};
/// Indexed by ShedReason (serve/wire.h, which static_asserts the count).
struct ShedReasonLabels {
  static constexpr const char* key = "reason";
  static constexpr std::array<const char*, 4> names = {"none", "queue_full", "expired",
                                                        "router_budget"};
};

/// A metric's member type: T, or one T per label.
template <typename T, typename Labels>
using MetricValue = std::conditional_t<Labels::names.empty(), T,
                                       std::array<T, Labels::names.size()>>;

struct MetricDesc {
  const char* name;
  MetricKind kind;
  const char* label_key;
  const char* const* labels;  // label names; num_labels == 0 when unlabelled
  std::size_t num_labels;
  const char* help;
};

#define M3_SERVER_METRICS(X)                                                              \
  X(std::uint64_t, queries_received, kCounter, NoLabels, "queries received, any outcome") \
  X(std::uint64_t, queries_ok, kCounter, NoLabels, "answered, incl. degraded/deadline")   \
  X(std::uint64_t, queries_rejected, kCounter, NoLabels, "refused at admission")          \
  X(std::uint64_t, queries_failed, kCounter, NoLabels,                                    \
    "validation/no-model/internal, or unavailable once a worker crash retry is spent")    \
  X(std::uint64_t, queries_shed, kCounter, NoLabels, "admitted, then shed")               \
  X(std::uint64_t, shed_by_reason, kCounter, ShedReasonLabels, "sheds and rejections")    \
  X(std::uint32_t, queue_depth, kGauge, NoLabels, "queued queries")                       \
  X(std::uint32_t, queue_capacity, kGauge, NoLabels, "admission queue bound")             \
  X(std::uint32_t, workers, kGauge, NoLabels, "scheduler threads")                        \
  X(std::uint64_t, query_cache, kCounter, CacheOpLabels, "whole-query result cache")      \
  X(std::uint64_t, model_version, kGauge, NoLabels, "serving model load counter")         \
  X(std::uint32_t, model_crc, kGauge, NoLabels, "serving model parameter CRC")            \
  X(std::string, model_path, kGauge, NoLabels, "serving checkpoint")                      \
  X(std::uint64_t, reloads_ok, kCounter, NoLabels, "hot reloads published")               \
  X(std::uint64_t, reloads_failed, kCounter, NoLabels, "hot reloads refused")             \
  X(bool, worker_mode, kGauge, NoLabels, "queries run in worker processes")               \
  X(std::uint32_t, workers_configured, kGauge, NoLabels, "worker pool size")              \
  X(std::uint32_t, workers_alive, kGauge, NoLabels, "live worker processes")              \
  X(std::uint64_t, worker_spawns, kCounter, NoLabels, "forks, incl. the initial pool")    \
  X(std::uint64_t, worker_restarts, kCounter, NoLabels, "respawns after a death")         \
  X(std::uint64_t, worker_crashes, kCounter, NoLabels, "workers that died mid-query")     \
  X(std::uint64_t, watchdog_kills, kCounter, NoLabels, "SIGKILLed past deadline+grace")   \
  X(std::uint64_t, garbage_replies, kCounter, NoLabels, "undecodable worker replies")     \
  X(std::uint64_t, crash_retried_queries, kCounter, NoLabels, "re-run on a fresh worker") \
  X(bool, router_mode, kGauge, NoLabels, "m3d-router (shard rows follow)")

// One router shard's row (ServerStatsWire::shards), keyed by `address`.
#define M3_SHARD_HEALTH_FIELDS(X)                                                       \
  X(std::string, address, kGauge, NoLabels, "endpoint, e.g. tcp:10.0.0.2:9000")        \
  X(bool, healthy, kGauge, NoLabels, "last probe or dispatch found it up")              \
  X(std::uint64_t, model_version, kGauge, NoLabels, "from the last good probe")         \
  X(std::uint64_t, dispatches, kCounter, NoLabels, "sub-requests, incl. retries")       \
  X(std::uint64_t, failures, kCounter, NoLabels, "sub-requests that did not answer")    \
  X(std::uint64_t, retries, kCounter, NoLabels, "re-dispatches after a failure")        \
  X(std::uint64_t, slots_fallback, kCounter, NoLabels, "slots served by flowSim")       \
  X(std::uint64_t, slots_dropped, kCounter, NoLabels, "slots reweighted away")

#define M3_METRIC_MEMBER(type, name, kind, labels, help) MetricValue<type, labels> name{};
#define M3_METRIC_DESC(type, name, kind, labels, help)                    \
  MetricDesc{#name, MetricKind::kind, labels::key, labels::names.data(), \
             labels::names.size(), help},
#define M3_METRIC_VISIT(type, name, kind, labels, help) f(*desc++, obj.name);

struct ShardHealthWire {
  M3_SHARD_HEALTH_FIELDS(M3_METRIC_MEMBER)
  bool operator==(const ShardHealthWire&) const = default;
};

/// Serving-side counters, returned by kStatsRequest only.
struct ServerStatsWire {
  M3_SERVER_METRICS(M3_METRIC_MEMBER)
  std::vector<ShardHealthWire> shards;  // router_mode only
  // Always 0. Not on the wire; read only by perfbench; deleted with
  // ROADMAP item 4's benchmark PR.
  MetricValue<std::uint64_t, CacheOpLabels> path_cache{};
  bool operator==(const ServerStatsWire&) const = default;
};

inline constexpr MetricDesc kServerMetrics[] = {M3_SERVER_METRICS(M3_METRIC_DESC)};
inline constexpr MetricDesc kShardHealthFields[] = {M3_SHARD_HEALTH_FIELDS(M3_METRIC_DESC)};

/// Calls f(desc, member) for every metric of `obj` (a possibly const
/// ServerStatsWire), in list order — which is also the wire order.
template <typename Stats, typename F>
void ForEachMetric(Stats& obj, F&& f) {
  const MetricDesc* desc = kServerMetrics;
  M3_SERVER_METRICS(M3_METRIC_VISIT)
}

/// The same over one shard row.
template <typename Row, typename F>
void ForEachShardField(Row& obj, F&& f) {
  const MetricDesc* desc = kShardHealthFields;
  M3_SHARD_HEALTH_FIELDS(M3_METRIC_VISIT)
}

#undef M3_METRIC_MEMBER
#undef M3_METRIC_DESC
#undef M3_METRIC_VISIT

/// True for a labelled metric's value array.
template <typename T>
inline constexpr bool kIsLabelled = false;
template <typename T, std::size_t N>
inline constexpr bool kIsLabelled<std::array<T, N>> = true;

/// One line per metric and label in list order, `name value  # kind: help`
/// (labelled values as `name{key=label}`), then one line per shard row.
/// m3_client --stats and the m3d / m3d_router shutdown summaries print this.
std::string FormatStatsText(const ServerStatsWire& s);

/// One JSON object on one line: every list name exactly once, labelled
/// metrics as {label: value} objects, shard rows as an array of objects
/// (m3_client --stats --json; scripts scrape these keys).
std::string FormatStatsJson(const ServerStatsWire& s);

struct CacheStats;

/// A *_cache metric's values from an LruCache's counters.
MetricValue<std::uint64_t, CacheOpLabels> CacheOpValues(const CacheStats& c);

}  // namespace m3::serve
