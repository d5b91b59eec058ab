// Shared wire-test fixtures: a ServerStatsWire with a distinct value in
// every metric, label, and shard field of the metric list.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "serve/metrics.h"

namespace m3::serve {

template <typename T>
void SetDistinct(T& v, std::uint64_t& next) {
  if constexpr (kIsLabelled<T>) {
    for (auto& e : v) SetDistinct(e, next);
  } else if constexpr (std::is_same_v<T, bool>) {
    v = true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = "value-" + std::to_string(next++);
  } else if constexpr (std::is_floating_point_v<T>) {
    v = static_cast<T>(next++) + 0.5;
  } else {
    v = static_cast<T>(next++);
  }
}

/// Walks the list (not a hand-picked field set), so a new metric is
/// covered without editing any test.
inline ServerStatsWire DistinctStats(std::size_t shard_rows) {
  std::uint64_t next = 1;
  const auto fill = [&next](const MetricDesc&, auto& v) { SetDistinct(v, next); };
  ServerStatsWire s;
  ForEachMetric(s, fill);
  s.shards.resize(shard_rows);
  for (ShardHealthWire& row : s.shards) ForEachShardField(row, fill);
  return s;
}

}  // namespace m3::serve
