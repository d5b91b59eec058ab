#include "serve/metrics.h"

#include <cstdio>

#include "serve/cache.h"

namespace m3::serve {
namespace {

// Values print as JSON literals in both formats.
std::string Literal(std::uint64_t v) { return std::to_string(v); }
std::string Literal(std::uint32_t v) { return std::to_string(v); }
std::string Literal(bool v) { return v ? "true" : "false"; }
std::string Literal(const std::string& v) {
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// `about` is set on a metric's first line only: it adds "# kind: help".
void Line(std::string* out, const std::string& key, const std::string& value,
          const MetricDesc* about) {
  char buf[256];
  if (about != nullptr) {
    std::snprintf(buf, sizeof(buf), "%-36s %-12s  # %s: %s\n", key.c_str(), value.c_str(),
                  about->kind == MetricKind::kCounter ? "counter" : "gauge", about->help);
  } else {
    std::snprintf(buf, sizeof(buf), "%-36s %s\n", key.c_str(), value.c_str());
  }
  *out += buf;
}

}  // namespace

std::string FormatStatsText(const ServerStatsWire& s) {
  std::string out;
  ForEachMetric(s, [&](const MetricDesc& d, const auto& v) {
    if constexpr (kIsLabelled<std::decay_t<decltype(v)>>) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        Line(&out, std::string(d.name) + "{" + d.label_key + "=" + d.labels[i] + "}",
             Literal(v[i]), i == 0 ? &d : nullptr);
      }
    } else {
      Line(&out, d.name, Literal(v), &d);
    }
  });
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    out += "shards[" + std::to_string(i) + "]";
    ForEachShardField(s.shards[i], [&](const MetricDesc& d, const auto& v) {
      out += std::string(" ") + d.name + "=" + Literal(v);
    });
    out += '\n';
  }
  return out;
}

std::string FormatStatsJson(const ServerStatsWire& s) {
  std::string out = "{";
  const auto key = [&out](const char* name) {
    if (out.back() != '{' && out.back() != '[') out += ',';
    out += std::string("\"") + name + "\":";
  };
  ForEachMetric(s, [&](const MetricDesc& d, const auto& v) {
    key(d.name);
    if constexpr (kIsLabelled<std::decay_t<decltype(v)>>) {
      out += '{';
      for (std::size_t i = 0; i < v.size(); ++i) {
        key(d.labels[i]);
        out += Literal(v[i]);
      }
      out += '}';
    } else {
      out += Literal(v);
    }
  });
  key("shards");
  out += '[';
  for (const ShardHealthWire& row : s.shards) {
    if (out.back() != '[') out += ',';
    out += '{';
    ForEachShardField(row, [&](const MetricDesc& d, const auto& v) {
      key(d.name);
      out += Literal(v);
    });
    out += '}';
  }
  return out + "]}";
}

MetricValue<std::uint64_t, CacheOpLabels> CacheOpValues(const CacheStats& c) {
  return {c.hits, c.misses, c.inserts, c.evictions, c.entries};
}

}  // namespace m3::serve
