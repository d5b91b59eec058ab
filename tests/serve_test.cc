// Serving-subsystem tests: content hashing, the wire codecs, cache-key
// sensitivity, the bounded LRU, the model registry's hot-reload semantics,
// the EstimationService (admission control, cache hits bitwise-identical to
// recompute, fault-injected cache outages), and the socket
// server end-to-end.
//
// The hot-reload and concurrent-query tests are the designated TSan
// workload (tools/check.sh runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <sstream>
#include <random>
#include <thread>
#include <vector>

#include "pathdecomp/decompose.h"
#include "pathdecomp/path_topology.h"
#include "serve/cache.h"
#include "serve/exec.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "temp_path.h"
#include "topo/fat_tree.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/socket.h"
#include "wire_samples.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3::serve {
namespace {

class FaultGuard {
 public:
  FaultGuard() { FaultRegistry::Instance().Reset(); }
  ~FaultGuard() { FaultRegistry::Instance().Reset(); }
};

// ------------------------------------------------------------------- hash --

TEST(Hash, StreamingMatchesOneShotAcrossChunkings) {
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 37 + 11));
  const Hash128 whole = HashBytes(data.data(), data.size());
  for (std::size_t chunk : {1u, 3u, 16u, 17u, 64u, 999u}) {
    Hasher h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.Bytes(data.data() + off, std::min(chunk, data.size() - off));
    }
    EXPECT_EQ(h.Finish(), whole) << "chunk=" << chunk;
  }
}

TEST(Hash, StableAcrossRunsAndSensitiveToInput) {
  // Fixed seeds make the hash a stable content address across processes;
  // pin one known answer so an accidental seed change cannot slip by.
  Hasher h;
  h.Str("m3d");
  h.U64(42);
  const Hash128 a = h.Finish();
  Hasher h2;
  h2.Str("m3d");
  h2.U64(42);
  EXPECT_EQ(a, h2.Finish());
  Hasher h3;
  h3.Str("m3d");
  h3.U64(43);
  EXPECT_NE(a, h3.Finish());
  EXPECT_EQ(a.ToHex().size(), 32u);
}

TEST(Hash, FieldBoundariesMatter) {
  // Length-prefixed strings: ("ab", "c") must not collide with ("a", "bc").
  Hasher h1, h2;
  h1.Str("ab");
  h1.Str("c");
  h2.Str("a");
  h2.Str("bc");
  EXPECT_NE(h1.Finish(), h2.Finish());
}

TEST(Hash, DoublesHashByBitPattern) {
  Hasher h1, h2;
  h1.F64(0.0);
  h2.F64(-0.0);
  EXPECT_NE(h1.Finish(), h2.Finish());  // distinct bit patterns
}

// PathCacheKey serializes most of its fields into one buffer and absorbs it
// with a single Bytes call; that is only the same key if the hash of a byte
// stream does not depend on how the stream is cut into calls.
TEST(HasherSplit, RandomStreamHashesTheSameHoweverItIsAbsorbed) {
  std::mt19937_64 gen(20240804);
  std::string stream;  // little-endian bytes of the typed fields below
  Hasher typed;
  const auto append = [&stream](const void* p, std::size_t n) {
    stream.append(static_cast<const char*>(p), n);
  };
  while (stream.size() < 1024) {
    const std::size_t left = 1024 - stream.size();
    const std::uint64_t bits = gen();
    switch (left < 8 ? (left < 4 ? 0 : 1) : bits % 4) {
      case 0: {
        const auto v = static_cast<std::uint8_t>(bits >> 8);
        typed.U8(v);
        append(&v, 1);
        break;
      }
      case 1: {
        const auto v = static_cast<std::int32_t>(bits >> 16);
        typed.I32(v);
        append(&v, 4);
        break;
      }
      case 2: {
        const auto v = static_cast<std::int64_t>(gen());
        typed.I64(v);
        append(&v, 8);
        break;
      }
      default: {
        std::uint64_t raw = gen();
        double v;
        std::memcpy(&v, &raw, 8);
        if (std::isnan(v)) v = -1.5 * static_cast<double>(raw >> 12);
        std::memcpy(&raw, &v, 8);
        typed.F64(v);
        append(&raw, 8);
        break;
      }
    }
  }
  ASSERT_EQ(stream.size(), 1024u);

  Hasher one_call;
  one_call.Bytes(stream.data(), stream.size());
  const Hash128 want = one_call.Finish();
  EXPECT_EQ(typed.Finish(), want);
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    Hasher two_calls;
    two_calls.Bytes(stream.data(), split);
    two_calls.Bytes(stream.data() + split, stream.size() - split);
    ASSERT_EQ(two_calls.Finish(), want) << "split at " << split;
  }
}

// ------------------------------------------------------------ wire codecs --

QueryRequest SampleRequest() {
  QueryRequest req;
  req.oversub = 4.0;
  req.topo = {2, 2, 4, 2, 1};
  req.cfg.cc = CcType::kDcqcn;
  req.cfg.init_window = 20 * kKB;
  req.cfg.pfc = true;
  req.num_paths = 7;
  req.seed = 99;
  req.use_context = false;
  req.strict = true;
  req.deadline_seconds = 1.5;
  req.max_attempts = 3;
  req.no_cache = true;
  req.priority = static_cast<std::uint8_t>(Priority::kInteractive);
  for (int i = 0; i < 3; ++i) {
    WireFlow f;
    f.id = i;
    f.src_host = i;
    f.dst_host = 10 + i;
    f.size = 1000 * (i + 1);
    f.arrival = 500 * i;
    f.priority = static_cast<std::uint8_t>(i % 3);
    req.flows.push_back(f);
  }
  return req;
}

TEST(Wire, QueryRequestRoundTrip) {
  const QueryRequest req = SampleRequest();
  const StatusOr<QueryRequest> got = DecodeQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->oversub, req.oversub);
  EXPECT_EQ(got->cfg.cc, req.cfg.cc);
  EXPECT_EQ(got->cfg.init_window, req.cfg.init_window);
  EXPECT_EQ(got->cfg.pfc, req.cfg.pfc);
  EXPECT_EQ(got->num_paths, req.num_paths);
  EXPECT_EQ(got->seed, req.seed);
  EXPECT_EQ(got->use_context, req.use_context);
  EXPECT_EQ(got->strict, req.strict);
  EXPECT_EQ(got->deadline_seconds, req.deadline_seconds);
  EXPECT_EQ(got->max_attempts, req.max_attempts);
  EXPECT_EQ(got->no_cache, req.no_cache);
  ASSERT_EQ(got->flows.size(), req.flows.size());
  for (std::size_t i = 0; i < req.flows.size(); ++i) {
    EXPECT_EQ(got->flows[i].id, req.flows[i].id);
    EXPECT_EQ(got->flows[i].src_host, req.flows[i].src_host);
    EXPECT_EQ(got->flows[i].dst_host, req.flows[i].dst_host);
    EXPECT_EQ(got->flows[i].size, req.flows[i].size);
    EXPECT_EQ(got->flows[i].arrival, req.flows[i].arrival);
    EXPECT_EQ(got->flows[i].priority, req.flows[i].priority);
  }
  // The cache key survives the wire: a daemon rebuilds the client's key.
  const Hash128 digest = HashBytes("model", 5);
  EXPECT_EQ(QueryCacheKey(req, digest), QueryCacheKey(*got, digest));
}

// Every field distinct, so a codec that swapped two of them changes bytes.
DegradationReport SampleDegradation() {
  DegradationReport d;
  d.paths_ok = 3;
  d.paths_retried = 4;
  d.paths_degraded = 1;
  d.paths_dropped = 5;
  d.errors_exception = 6;
  d.errors_nonfinite = 7;
  d.errors_deadline = 8;
  d.errors_validation = 9;
  d.clamped_values = 10;
  d.first_error = "path 0: injected";
  return d;
}

QueryResponse SampleResponse() {
  QueryResponse resp;
  resp.status = Status::Degraded("1 of 4 paths degraded");
  resp.bucket_pct[0] = {1.0, 2.5, 3.25};
  resp.bucket_pct[3] = {7.5};
  resp.total_counts[0] = 12;
  resp.total_counts[3] = 4;
  resp.combined_pct = {1.0, 1.5, 9.75};
  resp.wall_seconds = 0.125;
  resp.degradation = SampleDegradation();
  resp.model_version = 5;
  resp.model_crc = 0xdeadbeef;
  resp.query_cache_hit = true;
  resp.shed_reason = static_cast<std::uint8_t>(ShedReason::kExpired);
  for (int i = 0; i < 2; ++i) {
    ShardReportWire row;
    row.shard = "unix:/tmp/s" + std::to_string(i) + ".sock";
    row.slots_assigned = 10 + i;
    row.slots_ok = 8;
    row.slots_fallback = 1 + i;
    row.slots_dropped = 2 + i;
    row.retries = 3 + i;
    resp.shards.push_back(row);
  }
  return resp;
}

TEST(Wire, QueryResponseRoundTrip) {
  const QueryResponse resp = SampleResponse();
  const StatusOr<QueryResponse> got = DecodeQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->status.code(), StatusCode::kDegraded);
  EXPECT_EQ(got->status.message(), resp.status.message());
  EXPECT_EQ(got->bucket_pct, resp.bucket_pct);
  EXPECT_EQ(got->total_counts, resp.total_counts);
  EXPECT_EQ(got->combined_pct, resp.combined_pct);
  EXPECT_EQ(got->wall_seconds, resp.wall_seconds);
  EXPECT_EQ(got->degradation.paths_ok, 3);
  EXPECT_EQ(got->degradation.paths_degraded, 1);
  EXPECT_EQ(got->degradation.first_error, resp.degradation.first_error);
  EXPECT_EQ(got->model_version, 5u);
  EXPECT_EQ(got->model_crc, 0xdeadbeefu);
  EXPECT_TRUE(got->query_cache_hit);
  EXPECT_EQ(got->shed_reason, resp.shed_reason);
  ASSERT_EQ(got->shards.size(), 2u);
  EXPECT_EQ(got->shards[1].shard, resp.shards[1].shard);
  EXPECT_EQ(got->shards[1].retries, 4u);
}

TEST(Wire, StatsAndReloadRoundTrip) {
  // Every metric and label of the list holds a distinct value, so a codec
  // that dropped, swapped, or mistyped any field fails the equality.
  const ServerStatsWire s = DistinctStats(3);
  const StatusOr<ServerStatsWire> got = DecodeStats(EncodeStats(s));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got == s);

  ReloadRequest rr;
  rr.checkpoint_path = "models/new.ckpt";
  const StatusOr<ReloadRequest> rq = DecodeReloadRequest(EncodeReloadRequest(rr));
  ASSERT_TRUE(rq.ok());
  EXPECT_EQ(rq->checkpoint_path, rr.checkpoint_path);

  ReloadResponse resp;
  resp.status = Status::DataLoss("crc mismatch");
  resp.model_version = 4;
  resp.model_crc = 0x1234;
  const StatusOr<ReloadResponse> rp = DecodeReloadResponse(EncodeReloadResponse(resp));
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(rp->model_version, 4u);
  EXPECT_EQ(rp->model_crc, 0x1234u);
}

// The keys of every JSON object at `depth` (1 = the outermost), in order.
std::vector<std::string> JsonKeysAtDepth(const std::string& json, int depth) {
  std::vector<std::string> keys;
  int d = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') ++d;
    if (c == '}' || c == ']') --d;
    if (c != '"') continue;
    std::size_t end = i + 1;
    while (json[end] != '"') end += json[end] == '\\' ? 2 : 1;
    if (d == depth && json[end + 1] == ':') keys.push_back(json.substr(i + 1, end - i - 1));
    i = end;
  }
  return keys;
}

TEST(Wire, StatsTextAndJsonFollowTheMetricList) {
  const ServerStatsWire s = DistinctStats(3);

  // JSON: one object on one line; its top-level keys are the list names,
  // each exactly once, then the shard rows (depth 3: object > array >
  // object), each with every shard field once.
  const std::string json = FormatStatsJson(s);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);
  std::vector<std::string> want;
  for (const MetricDesc& d : kServerMetrics) want.push_back(d.name);
  want.push_back("shards");
  EXPECT_EQ(JsonKeysAtDepth(json, 1), want);
  std::vector<std::string> rows;
  for (int r = 0; r < 3; ++r) {
    for (const MetricDesc& d : kShardHealthFields) rows.push_back(d.name);
  }
  EXPECT_EQ(JsonKeysAtDepth(json, 3), rows);

  // Text: one line per metric and label, in list order, then one per
  // shard row.
  std::vector<std::string> prefixes;
  for (const MetricDesc& d : kServerMetrics) {
    if (d.num_labels == 0) prefixes.push_back(std::string(d.name) + " ");
    for (std::size_t i = 0; i < d.num_labels; ++i) {
      prefixes.push_back(std::string(d.name) + "{" + d.label_key + "=" + d.labels[i] + "} ");
    }
  }
  for (int r = 0; r < 3; ++r) prefixes.push_back("shards[" + std::to_string(r) + "] ");
  std::istringstream text(FormatStatsText(s));
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), prefixes.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind(prefixes[i], 0), 0u) << lines[i];
  }
}

PathEstimate SamplePathEstimate() {
  PathEstimate pe{};
  for (std::size_t b = 0; b < pe.counts.size(); ++b) {
    pe.counts[b] = 1.0 + static_cast<double>(b);
    for (std::size_t q = 0; q < pe.pct[b].size(); ++q) {
      pe.pct[b][q] = static_cast<double>(b * 100 + q) * 0.5;
    }
  }
  return pe;
}

struct Payload {
  std::string name;
  std::string bytes;
  // Decodes a payload and encodes the decoded message again.
  std::function<StatusOr<std::string>(const std::string&)> reencode;

  Status decode(const std::string& p) const { return reencode(p).status(); }
};

template <typename T>
Payload Make(std::string name, const T& msg, std::string (*encode)(const T&),
             StatusOr<T> (*decode)(const std::string&)) {
  return {std::move(name), encode(msg),
          [encode, decode](const std::string& p) -> StatusOr<std::string> {
            const StatusOr<T> got = decode(p);
            if (!got.ok()) return got.status();
            return encode(*got);
          }};
}

ShardQueryResponse SampleShardResponse() {
  ShardQueryResponse sr;
  sr.status = Status::Degraded("slot 3 degraded");
  sr.degradation = SampleDegradation();
  sr.model_version = 2;
  sr.model_crc = 0xfeed;
  sr.estimates.push_back({3, SamplePathEstimate()});
  return sr;
}

// One fully populated payload of every message type (ping requests and
// stats requests are version-only bodies a server never decodes).
std::vector<Payload> EveryMessage() {
  ShardQueryRequest sq;
  sq.query = SampleRequest();
  sq.slots = {0, 3, 6};
  ReloadRequest rq;
  rq.checkpoint_path = "models/next.ckpt";
  ReloadResponse rp;
  rp.status = Status::DataLoss("crc mismatch");
  rp.model_version = 7;
  rp.model_crc = 0xabc;
  PingResponse ping;
  ping.ready = true;
  ping.worker_mode = true;
  ping.model_version = 3;
  ping.workers_alive = 2;
  ping.router_mode = true;
  ping.shards_healthy = 2;
  ping.shards_total = 3;
  ping.model_crc = 0x5eed;
  return {
      Make("QueryRequest", SampleRequest(), EncodeQueryRequest, DecodeQueryRequest),
      Make("QueryResponse", SampleResponse(), EncodeQueryResponse, DecodeQueryResponse),
      Make("Stats", DistinctStats(3), EncodeStats, DecodeStats),
      Make("ReloadRequest", rq, EncodeReloadRequest, DecodeReloadRequest),
      Make("ReloadResponse", rp, EncodeReloadResponse, DecodeReloadResponse),
      Make("PingResponse", ping, EncodePingResponse, DecodePingResponse),
      Make("ShardQueryRequest", sq, EncodeShardQueryRequest, DecodeShardQueryRequest),
      Make("ShardQueryResponse", SampleShardResponse(), EncodeShardQueryResponse,
           DecodeShardQueryResponse),
  };
}

// The bytes of every fully populated message, pinned: a codec change that
// moves a field, or changes its width or a length prefix, changes a hash
// here (and would make a peer of another build at this wire version
// mis-parse it).
TEST(Wire, EncodingsArePinned) {
  const std::map<std::string, std::string> want = {
      {"QueryRequest", "69f4419bf71b27fea2227240ec0ee82b"},
      {"QueryResponse", "770ae7f30c5efe1ba418b2bcc8fcba49"},
      {"Stats", "fdc9ecdd60eb95163a9379ae929be28f"},
      {"ReloadRequest", "45ccfe1245e43b6555b0cea4de274c35"},
      {"ReloadResponse", "81139a1b02c6c4554ce2938a2b4860ea"},
      {"PingResponse", "b30386a14f7d246f7497fd3fda109e73"},
      {"ShardQueryRequest", "791ab0e2fa1c24b784742af9d2aaf9d1"},
      {"ShardQueryResponse", "b05ff753b1878dc20179b517f18a99ec"},
  };
  const std::vector<Payload> all = EveryMessage();
  ASSERT_EQ(all.size(), want.size());
  for (const Payload& m : all) {
    EXPECT_EQ(HashBytes(m.bytes.data(), m.bytes.size()).ToHex(), want.at(m.name)) << m.name;
  }
}

TEST(Wire, EveryTruncationIsRejectedWithoutCrashing) {
  for (const Payload& m : EveryMessage()) {
    for (std::size_t len = 0; len < m.bytes.size(); ++len) {
      ASSERT_FALSE(m.decode(m.bytes.substr(0, len)).ok())
          << m.name << ": prefix of " << len << " bytes decoded";
    }
    EXPECT_TRUE(m.decode(m.bytes).ok()) << m.name;
  }
}

// Decoding is canonical: a payload the decoder accepts is the one encoding
// of the message it returns, so no two byte strings decode to one message
// and no byte is read past or skipped.
TEST(Wire, EveryAcceptedBitFlipReencodesToTheSameBytes) {
  for (const Payload& m : EveryMessage()) {
    std::size_t accepted = 0;
    for (std::size_t bit = 0; bit < 8 * m.bytes.size(); ++bit) {
      std::string flipped = m.bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      const StatusOr<std::string> again = m.reencode(flipped);
      if (!again.ok()) continue;
      ++accepted;
      ASSERT_TRUE(*again == flipped) << m.name << ": flipped bit " << bit;
    }
    EXPECT_GT(accepted, 0u) << m.name;
  }
}

TEST(Wire, EveryDecoderAcceptsOnlyTheCurrentVersion) {
  for (const Payload& m : EveryMessage()) {
    for (const std::uint32_t v : {0u, kWireVersion - 1, kWireVersion + 1}) {
      std::string bytes = m.bytes;
      std::memcpy(&bytes[0], &v, 4);  // little-endian u32 version tag
      const Status st = m.decode(bytes);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << m.name << " v" << v;
      // The message names both the offered and the spoken version.
      EXPECT_NE(st.message().find("version " + std::to_string(v)), std::string::npos)
          << st.ToString();
      EXPECT_NE(st.message().find(std::to_string(kWireVersion)), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(Wire, TrailingBytesAndBadVersionAreRejected) {
  for (const Payload& m : EveryMessage()) {
    EXPECT_EQ(m.decode(m.bytes + "x").code(), StatusCode::kInvalidArgument) << m.name;
    std::string wrong = m.bytes;
    wrong[0] = static_cast<char>(kWireVersion + 1);  // little-endian u32 version
    EXPECT_EQ(m.decode(wrong).code(), StatusCode::kInvalidArgument) << m.name;
  }
}

// A count whose product with `record` wraps past 2^64 to the smallest value
// it can reach (record = odd * 2^k: the inverse of `odd` modulo 2^(64-k),
// raised by 2^(64-k) so the product really wraps). A multiplying bounds
// check passes it. A record of one byte cannot wrap; it gets the largest
// count instead.
std::uint64_t WrappingCount(std::uint64_t record) {
  int k = 0;
  for (; record % 2 == 0; record /= 2) ++k;
  if (record == 1 && k == 0) return ~std::uint64_t{0};
  std::uint64_t inv = 1;  // Newton iteration: each step doubles the good bits
  for (int i = 0; i < 6; ++i) inv *= 2 - record * inv;
  if (k == 0) return inv;
  const std::uint64_t wrap = std::uint64_t{1} << (64 - k);
  return (inv & (wrap - 1)) + wrap;
}

// One length field of one message: a valid payload, where its u64 count
// sits, the bytes of the smallest record it counts, and the code a hostile
// count must fail with.
struct CountField {
  std::string what;
  std::string bytes;
  std::size_t offset;
  std::uint64_t record;
  Payload codec;
  StatusCode want;
};

// Every length field of every message, one row each.
std::vector<CountField> EveryCountField() {
  std::vector<CountField> rows;
  // A count that is the last length field of its message sits 8 bytes
  // before the end of the same message with no records; one default
  // record more gives the record size.
  const auto last = [&rows](std::string what, auto with, auto none, auto add_one, auto encode,
                            auto decode) {
    const std::string empty = encode(none);
    add_one(none);
    const std::uint64_t record = encode(none).size() - empty.size();
    Payload codec = Make(what, with, encode, decode);
    const std::string bytes = codec.bytes;
    rows.push_back({std::move(what), bytes, empty.size() - 8, record, std::move(codec),
                    StatusCode::kDataLoss});
  };

  QueryRequest q = SampleRequest();
  QueryRequest q0 = q;
  q0.flows.clear();
  last("flows", q, q0, [](QueryRequest& r) { r.flows.emplace_back(); }, EncodeQueryRequest,
       DecodeQueryRequest);

  ShardQueryRequest sq;
  sq.query = SampleRequest();
  ShardQueryRequest sq0 = sq;
  sq.slots = {1, 2, 3};
  last("slots", sq, sq0, [](ShardQueryRequest& r) { r.slots.push_back(0); },
       EncodeShardQueryRequest, DecodeShardQueryRequest);

  ShardQueryResponse sr0 = SampleShardResponse();
  sr0.estimates.clear();
  last("slot estimates", SampleShardResponse(), sr0,
       [](ShardQueryResponse& r) { r.estimates.emplace_back(); }, EncodeShardQueryResponse,
       DecodeShardQueryResponse);

  QueryResponse qr0 = SampleResponse();
  qr0.shards.clear();
  last("shard reports", SampleResponse(), qr0,
       [](QueryResponse& r) { r.shards.emplace_back(); }, EncodeQueryResponse,
       DecodeQueryResponse);

  last("stats shard rows", DistinctStats(3), DistinctStats(0),
       [](ServerStatsWire& s) { s.shards.emplace_back(); }, EncodeStats, DecodeStats);

  // The first percentile vector follows the version, an OK status code and
  // its empty message: u32 + i32 + u64.
  QueryResponse ok = SampleResponse();
  ok.status = Status::Ok();
  rows.push_back({"percentile vector", EncodeQueryResponse(ok), 4 + 4 + 8, 8,
                  Make("QueryResponse", ok, EncodeQueryResponse, DecodeQueryResponse),
                  StatusCode::kInvalidArgument});
  // The shard request's embedded query is bounded only by the payload:
  // its u64 length follows the version.
  rows.push_back({"embedded query", EncodeShardQueryRequest(sq), 4, 1,
                  Make("ShardQueryRequest", sq, EncodeShardQueryRequest, DecodeShardQueryRequest),
                  StatusCode::kDataLoss});
  ReloadRequest rq;
  rq.checkpoint_path = "models/next.ckpt";
  rows.push_back({"checkpoint path", EncodeReloadRequest(rq), 4, 1,
                  Make("ReloadRequest", rq, EncodeReloadRequest, DecodeReloadRequest),
                  StatusCode::kInvalidArgument});
  return rows;
}

CountField CountFieldNamed(const std::string& what) {
  for (CountField& row : EveryCountField()) {
    if (row.what == what) return std::move(row);
  }
  ADD_FAILURE() << "no count field " << what;
  return {};
}

// The field, set to a huge count and to one whose product with the record
// size wraps, must fail before anything is sized from it: a resize from a
// hostile count would throw std::length_error through the daemon's
// connection thread (one frame would kill m3d), or allocate without bound.
void ExpectHostileCountsRejected(const CountField& row) {
  ASSERT_TRUE(row.codec.decode(row.bytes).ok()) << row.what;
  for (const std::uint64_t n : {std::uint64_t{1} << 60, WrappingCount(row.record)}) {
    std::string bytes = row.bytes;
    std::memcpy(&bytes[row.offset], &n, 8);
    const Status st = row.codec.decode(bytes);
    EXPECT_EQ(st.code(), row.want) << row.what << " count " << n << ": " << st.ToString();
  }
}

TEST(Wire, HostileCountsAreRejectedWithoutAllocating) {
  const std::vector<CountField> rows = EveryCountField();
  ASSERT_EQ(rows.size(), 8u);
  for (const CountField& row : rows) ExpectHostileCountsRejected(row);
}

// The flow record (3 x u32, 2 x u64, 1 x u8) is odd, so its wrapping count
// is the exact inverse: the product wraps all the way round to 1.
TEST(Wire, WrappingFlowCountIsRejected) {
  const CountField row = CountFieldNamed("flows");
  ASSERT_EQ(row.record, 3u * 4 + 2 * 8 + 1);
  EXPECT_EQ(WrappingCount(row.record) * row.record, 1u);
  ExpectHostileCountsRejected(row);
}

// A slot is one u32 word: the wrapping count's product comes back to 4.
TEST(ShardWire, HostileSlotCountIsRejectedWithoutAllocating) {
  const CountField row = CountFieldNamed("slots");
  ASSERT_EQ(row.record, 4u);
  EXPECT_EQ(WrappingCount(row.record) * row.record, 4u);
  ExpectHostileCountsRejected(row);
}

// An estimate carries a slot word beside the percentile grid, so its
// record is far larger than the slot's but still wraps to a small product.
TEST(ShardWire, HostileEstimateCountIsRejectedWithoutAllocating) {
  const CountField row = CountFieldNamed("slot estimates");
  ASSERT_GT(row.record, 4u * 100 * 8);
  EXPECT_LE(WrappingCount(row.record) * row.record, row.record);
  ExpectHostileCountsRejected(row);
}

// -------------------------------------------------------------- cache keys --

TEST(CacheKey, SensitiveToEveryQueryField) {
  const QueryRequest base = SampleRequest();
  const Hash128 digest = HashBytes("model-a", 7);
  const Hash128 k0 = QueryCacheKey(base, digest);
  EXPECT_EQ(k0, QueryCacheKey(base, digest));  // stable

  const auto differs = [&](auto mutate, const char* what) {
    QueryRequest r = base;
    mutate(r);
    EXPECT_NE(QueryCacheKey(r, digest), k0) << what;
  };
  differs([](QueryRequest& r) { r.oversub = 8.0; }, "oversub");
  differs([](QueryRequest& r) { r.num_paths += 1; }, "num_paths");
  differs([](QueryRequest& r) { r.seed += 1; }, "seed");
  differs([](QueryRequest& r) { r.use_context = !r.use_context; }, "use_context");
  differs([](QueryRequest& r) { r.flows.pop_back(); }, "flow count");
  differs([](QueryRequest& r) { r.flows[1].id += 1; }, "flow id");
  differs([](QueryRequest& r) { r.flows[1].src_host += 1; }, "flow src");
  differs([](QueryRequest& r) { r.flows[1].dst_host += 1; }, "flow dst");
  differs([](QueryRequest& r) { r.flows[1].size += 1; }, "flow size");
  differs([](QueryRequest& r) { r.flows[1].arrival += 1; }, "flow arrival");
  differs([](QueryRequest& r) { r.flows[1].priority ^= 1; }, "flow priority");
  differs([](QueryRequest& r) { r.cfg.cc = CcType::kHpcc; }, "cfg.cc");
  differs([](QueryRequest& r) { r.cfg.init_window += 1; }, "cfg.init_window");
  differs([](QueryRequest& r) { r.cfg.buffer += 1; }, "cfg.buffer");
  differs([](QueryRequest& r) { r.cfg.pfc = !r.cfg.pfc; }, "cfg.pfc");
  differs([](QueryRequest& r) { r.cfg.dctcp_k += 1; }, "cfg.dctcp_k");
  differs([](QueryRequest& r) { r.cfg.hpcc_eta += 0.01; }, "cfg.hpcc_eta");
  differs([](QueryRequest& r) { r.cfg.mtu += 1; }, "cfg.mtu");
  differs([](QueryRequest& r) { r.cfg.seed += 1; }, "cfg.seed");

  // A different model digest is a different address (hot-reload safety).
  EXPECT_NE(QueryCacheKey(base, HashBytes("model-b", 7)), k0);

  // Fault-handling knobs shape *how* the answer is computed, not what the
  // fault-free answer is; they are deliberately not part of the address.
  const auto same = [&](auto mutate, const char* what) {
    QueryRequest r = base;
    mutate(r);
    EXPECT_EQ(QueryCacheKey(r, digest), k0) << what;
  };
  same([](QueryRequest& r) { r.strict = !r.strict; }, "strict");
  same([](QueryRequest& r) { r.deadline_seconds += 1.0; }, "deadline");
  same([](QueryRequest& r) { r.max_attempts += 1; }, "max_attempts");
  same([](QueryRequest& r) { r.no_cache = !r.no_cache; }, "no_cache");
}

TEST(CacheKey, PathKeySensitiveToScenarioContentNotSampling) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = 200;
  wspec.seed = 3;
  std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  const PathDecomposition decomp(ft.topo(), flows);
  ASSERT_GE(decomp.num_paths(), 2u);

  const NetConfig cfg;
  const Hash128 digest = HashBytes("m", 1);
  PathScenario s0 = BuildPathScenario(ft.topo(), flows, decomp, 0);
  const Hash128 k0 = PathCacheKey(s0, cfg, true, digest);
  {
    // Rebuilding the same scenario yields the same address.
    PathScenario again = BuildPathScenario(ft.topo(), flows, decomp, 0);
    EXPECT_EQ(PathCacheKey(again, cfg, true, digest), k0);
  }
  {
    PathScenario other = BuildPathScenario(ft.topo(), flows, decomp, 1);
    EXPECT_NE(PathCacheKey(other, cfg, true, digest), k0);
  }
  {
    // One flow's size differing anywhere in the network must separate the
    // scenarios it appears in.
    std::vector<Flow> tweaked = flows;
    tweaked[0].size += 1;
    const PathDecomposition d2(ft.topo(), tweaked);
    PathScenario s2 = BuildPathScenario(ft.topo(), tweaked, d2, 0);
    const bool contains_flow0 = [&] {
      for (std::size_t i = 0; i < s0.orig_id.size(); ++i) {
        if (s0.orig_id[i] == flows[0].id) return true;
      }
      return false;
    }();
    if (contains_flow0) {
      EXPECT_NE(PathCacheKey(s2, cfg, true, digest), k0);
    }
  }
  {
    NetConfig cfg2;
    cfg2.buffer += 1;
    EXPECT_NE(PathCacheKey(s0, cfg2, true, digest), k0);
  }
  EXPECT_NE(PathCacheKey(s0, cfg, false, digest), k0);
  EXPECT_NE(PathCacheKey(s0, cfg, true, HashBytes("n", 1)), k0);
}

// --------------------------------------------------------------------- LRU --

Hash128 Key(const char* s) { return HashBytes(s, std::strlen(s)); }

TEST(LruCache, EvictsLeastRecentlyUsedAndCounts) {
  LruCache<int> cache(2);
  cache.Insert(Key("a"), 1);
  cache.Insert(Key("b"), 2);
  EXPECT_EQ(cache.Lookup(Key("a")), std::optional<int>(1));  // promotes "a"
  cache.Insert(Key("c"), 3);                                 // evicts "b"
  EXPECT_EQ(cache.Lookup(Key("b")), std::nullopt);
  EXPECT_EQ(cache.Lookup(Key("a")), std::optional<int>(1));
  EXPECT_EQ(cache.Lookup(Key("c")), std::optional<int>(3));

  const std::vector<Hash128> order = cache.KeysByRecency();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], Key("c"));
  EXPECT_EQ(order[1], Key("a"));

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(LruCache, DuplicateInsertRefreshesRecencyKeepsValue) {
  LruCache<int> cache(2);
  cache.Insert(Key("a"), 1);
  cache.Insert(Key("b"), 2);
  cache.Insert(Key("a"), 99);  // same address => same content by construction
  cache.Insert(Key("c"), 3);   // evicts "b", not "a"
  EXPECT_EQ(cache.Lookup(Key("a")), std::optional<int>(1));
  EXPECT_EQ(cache.Lookup(Key("b")), std::nullopt);
}

TEST(LruCache, ZeroCapacityDisables) {
  LruCache<int> cache(0);
  cache.Insert(Key("a"), 1);
  EXPECT_EQ(cache.Lookup(Key("a")), std::nullopt);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

TEST(LruCache, LookupFaultSiteIsInjectable) {
  FaultGuard guard;
  LruCache<int> cache(4, "serve/cache_lookup");
  cache.Insert(Key("a"), 1);
  EXPECT_EQ(cache.Lookup(Key("a")), std::optional<int>(1));
  FaultRegistry::Instance().Arm("serve/cache_lookup");
  EXPECT_THROW(cache.Lookup(Key("a")), FaultInjected);
  FaultRegistry::Instance().Reset();
  EXPECT_EQ(cache.Lookup(Key("a")), std::optional<int>(1));
}

// ---------------------------------------------------------------- fixture --

M3ModelConfig SmallModel() {
  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  return mcfg;
}

std::string SmallCheckpoint() {
  static const std::string path = [] {
    const std::string p = TempPath("serve_small_model.ckpt");
    M3Model model(SmallModel());
    model.Save(p);
    return p;
  }();
  return path;
}

// A second valid checkpoint with different weights (hot-reload target).
std::string SmallCheckpointB() {
  static const std::string path = [] {
    const std::string p = TempPath("serve_small_model_b.ckpt");
    M3ModelConfig mcfg = SmallModel();
    mcfg.init_seed = 777;
    M3Model model(mcfg);
    model.Save(p);
    return p;
  }();
  return path;
}

std::string CorruptCheckpoint() {
  static const std::string path = [] {
    const std::string p = TempPath("serve_corrupt.ckpt");
    std::ofstream f(p, std::ios::binary);
    f << "this is not a checkpoint";
    return p;
  }();
  return path;
}

ServiceOptions SmallServiceOptions() {
  ServiceOptions so;
  so.model_config = SmallModel();
  so.num_workers = 2;
  so.threads_per_query = 1;
  return so;
}

QueryRequest SmallQuery(std::uint64_t wl_seed = 3, int num_flows = 300) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = num_flows;
  wspec.seed = wl_seed;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  QueryRequest req;
  req.oversub = 2.0;
  req.num_paths = 3;
  req.flows.reserve(flows.size());
  for (const Flow& f : flows) {
    WireFlow wf;
    wf.id = f.id;
    wf.src_host = ft.HostIndexOf(f.src);
    wf.dst_host = ft.HostIndexOf(f.dst);
    wf.size = f.size;
    wf.arrival = f.arrival;
    wf.priority = f.priority;
    req.flows.push_back(wf);
  }
  return req;
}

// Bitwise comparison of the answer payload (not metadata like wall time).
void ExpectBitwiseEqual(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.bucket_pct, b.bucket_pct);
  EXPECT_EQ(a.total_counts, b.total_counts);
  EXPECT_EQ(a.combined_pct, b.combined_pct);
}

// ---------------------------------------------------------------- registry --

TEST(ModelRegistry, ReloadPublishesAndFailureKeepsServing) {
  ModelRegistry reg(SmallModel());
  EXPECT_EQ(reg.Current(), nullptr);

  ASSERT_TRUE(reg.Reload(SmallCheckpoint()).ok());
  const auto v1 = reg.Current();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->checkpoint_path, SmallCheckpoint());

  // Distinct weights get a distinct digest and a bumped version.
  ASSERT_TRUE(reg.Reload(SmallCheckpointB()).ok());
  const auto v2 = reg.Current();
  EXPECT_EQ(v2->version, 2u);
  EXPECT_NE(v2->digest, v1->digest);
  EXPECT_NE(v2->param_crc, v1->param_crc);

  // Corrupt reload: error returned, v2 keeps serving, counters tell the story.
  const Status bad = reg.Reload(CorruptCheckpoint());
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss) << bad.ToString();
  EXPECT_EQ(reg.Current(), v2);
  EXPECT_EQ(reg.reloads_ok(), 2u);
  EXPECT_EQ(reg.reloads_failed(), 1u);

  // Missing file: same degradation contract.
  EXPECT_EQ(reg.Reload("/nonexistent/m.ckpt").code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.Current(), v2);
}

TEST(ModelRegistry, InjectedReloadFaultKeepsOldSnapshot) {
  FaultGuard guard;
  ModelRegistry reg(SmallModel());
  ASSERT_TRUE(reg.Reload(SmallCheckpoint()).ok());
  const auto before = reg.Current();

  FaultRegistry::Instance().Arm("serve/registry_reload");
  const Status st = reg.Reload(SmallCheckpointB());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(reg.Current(), before);
  EXPECT_EQ(reg.reloads_failed(), 1u);

  FaultRegistry::Instance().Reset();
  EXPECT_TRUE(reg.Reload(SmallCheckpointB()).ok());
  EXPECT_EQ(reg.Current()->version, 2u);
}

TEST(ModelRegistry, ConcurrentReloadsPublishConsistently) {
  // Reloads are serialized: publication order equals call order, so racing
  // reloads can never leave older weights serving under a newer version.
  // Externally observable invariant: every load gets a unique version and
  // the final snapshot's (path, digest) pair is mutually consistent.
  ModelRegistry reg(SmallModel());
  ASSERT_TRUE(reg.Reload(SmallCheckpoint()).ok());
  const Hash128 digest_a = reg.Current()->digest;
  ASSERT_TRUE(reg.Reload(SmallCheckpointB()).ok());
  const Hash128 digest_b = reg.Current()->digest;

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        const Status st =
            reg.Reload((t + i) % 2 == 0 ? SmallCheckpoint() : SmallCheckpointB());
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const auto snap = reg.Current();
  EXPECT_EQ(snap->version, 22u);  // 2 setup + 20 concurrent, none lost
  EXPECT_EQ(reg.reloads_ok(), 22u);
  const bool is_a = snap->digest == digest_a;
  EXPECT_TRUE(is_a || snap->digest == digest_b);
  EXPECT_EQ(snap->checkpoint_path, is_a ? SmallCheckpoint() : SmallCheckpointB());
}

// ----------------------------------------------------------------- service --

TEST(Service, NoModelLoadedIsUnavailable) {
  EstimationService service(SmallServiceOptions());
  const QueryResponse resp = service.ExecuteInline(SmallQuery());
  EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable) << resp.status.ToString();
  EXPECT_EQ(service.Stats().queries_failed, 1u);
}

TEST(Service, ValidationRejectsHostileFlows) {
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());

  QueryRequest req = SmallQuery();
  req.flows[5].dst_host = 1 << 20;  // out of range for the 256-host tree
  QueryResponse resp = service.ExecuteInline(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument) << resp.status.ToString();
  EXPECT_NE(resp.status.message().find("flows[5]"), std::string::npos)
      << resp.status.ToString();

  req = SmallQuery();
  req.oversub = 1e9;
  resp = service.ExecuteInline(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
}

TEST(Service, CacheHitIsBitwiseIdenticalToRecompute) {
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  const QueryRequest req = SmallQuery();

  const QueryResponse first = service.ExecuteInline(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.query_cache_hit);

  const QueryResponse hit = service.ExecuteInline(req);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.query_cache_hit);
  ExpectBitwiseEqual(hit, first);

  // Ground truth: an uncached recompute of the same request.
  QueryRequest fresh = req;
  fresh.no_cache = true;
  const QueryResponse recompute = service.ExecuteInline(fresh);
  ASSERT_TRUE(recompute.status.ok());
  EXPECT_FALSE(recompute.query_cache_hit);
  ExpectBitwiseEqual(recompute, first);

  const ServerStatsWire s = service.Stats();
  EXPECT_EQ(s.query_cache[0], 1u);  // hits
  EXPECT_GE(s.query_cache[2], 1u);  // inserts
}

TEST(Service, CacheHitsMatchAcrossThreadCounts) {
  // The pipeline is bitwise deterministic across thread counts (PR 1), so
  // a cache populated by a 1-thread-per-query service must be bitwise
  // interchangeable with a 4-thread recompute.
  ServiceOptions so1 = SmallServiceOptions();
  so1.threads_per_query = 1;
  EstimationService s1(so1);
  ASSERT_TRUE(s1.ReloadModel(SmallCheckpoint()).ok());

  ServiceOptions so4 = SmallServiceOptions();
  so4.threads_per_query = 4;
  EstimationService s4(so4);
  ASSERT_TRUE(s4.ReloadModel(SmallCheckpoint()).ok());

  const QueryRequest req = SmallQuery();
  const QueryResponse r1 = s1.ExecuteInline(req);
  const QueryResponse r4 = s4.ExecuteInline(req);
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r4.status.ok()) << r4.status.ToString();
  ExpectBitwiseEqual(r1, r4);
}

TEST(Service, CacheOutageDegradesToRecomputeNotFailure) {
  FaultGuard guard;
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  const QueryRequest req = SmallQuery();

  const QueryResponse warm = service.ExecuteInline(req);  // populates the cache
  ASSERT_TRUE(warm.status.ok());

  // Every cache lookup now throws; the service must swallow it.
  FaultRegistry::Instance().Arm("serve/cache_lookup");
  const QueryResponse resp = service.ExecuteInline(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.query_cache_hit);
  EXPECT_EQ(resp.degradation.paths_degraded, 0);  // full quality, no reuse
  ExpectBitwiseEqual(resp, warm);
}

TEST(Service, TopologyMemoIsBounded) {
  // Oversub arrives as a client-supplied double: every in-range bit
  // pattern is admissible, so the topology memo must be a bounded LRU,
  // not grow-forever. A flow with src == dst fails validation *after* the
  // topology is materialized, which makes each probe cheap.
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  QueryRequest req;
  req.flows.push_back(WireFlow{});  // src_host == dst_host == 0
  for (int i = 0; i < 20; ++i) {
    req.oversub = 1.0 + 0.125 * i;
    const QueryResponse resp = service.ExecuteInline(req);
    EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument) << resp.status.ToString();
  }
  const std::size_t bound = service.TopologyCacheSize();
  EXPECT_LE(bound, 8u);
  // A repeated ratio refreshes recency instead of inserting a duplicate.
  service.ExecuteInline(req);
  EXPECT_EQ(service.TopologyCacheSize(), bound);
}

TEST(Service, DeadlineIncludesQueueWait) {
  // A request's deadline starts at admission, not at worker pickup: time
  // spent queued behind other work must count against it, so a request
  // whose deadline expires in the queue answers kDeadlineExceeded instead
  // of computing long past the client's intent.
  ServiceOptions so = SmallServiceOptions();
  so.num_workers = 1;
  EstimationService service(so);
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(service.Start().ok());

  // Park the only worker inside its done-callback.
  std::promise<void> entered, release;
  ASSERT_TRUE(service
                  .Submit(SmallQuery(),
                          [&](QueryResponse) {
                            entered.set_value();
                            release.get_future().wait();
                          })
                  .ok());
  entered.get_future().wait();

  QueryRequest late = SmallQuery();
  late.no_cache = true;  // the deadline is excluded from the cache key
  late.deadline_seconds = 0.02;
  std::promise<QueryResponse> done;
  ASSERT_TRUE(
      service.Submit(late, [&](QueryResponse r) { done.set_value(std::move(r)); }).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // > deadline
  release.set_value();
  const QueryResponse resp = done.get_future().get();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded) << resp.status.ToString();
  service.Stop();
}

// received = ok + rejected + failed + shed, the serving invariant.
void ExpectServiceInvariant(const ServerStatsWire& s) {
  EXPECT_EQ(s.queries_received,
            s.queries_ok + s.queries_rejected + s.queries_failed + s.queries_shed)
      << "received=" << s.queries_received << " ok=" << s.queries_ok
      << " rejected=" << s.queries_rejected << " failed=" << s.queries_failed
      << " shed=" << s.queries_shed;
}

// Holds the worker thread that dequeues the first no_cache request inside
// the pre-execute hook until Release(); every other request passes.
class NoCacheGate {
 public:
  void Install(EstimationService& service) {
    service.set_pre_execute_hook([this](const QueryRequest& req) {
      if (!req.no_cache || held_.exchange(true)) return;
      entered_.set_value();
      released_.wait();
    });
  }
  void AwaitHeld() { entered_.get_future().wait(); }
  void Release() { release_.set_value(); }

 private:
  std::atomic<bool> held_{false};
  std::promise<void> entered_, release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

// The Query path's counterpart of DeadlineIncludesQueueWait: Query's queue
// entry borrows the caller's request, and the budget it executes with is
// the deadline minus the wait, although the request itself is never
// rewritten. The wait is about one compute time C and the deadline 1.25 C,
// so only the queue-wait shrink leaves too little budget to finish.
TEST(Service, QueryDeadlineIncludesQueueWait) {
  ServiceOptions so = SmallServiceOptions();
  so.num_workers = 1;
  EstimationService service(so);
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  QueryRequest late = SmallQuery(9, 4000);
  late.num_paths = 1000;
  late.no_cache = true;  // the deadline is excluded from the cache key
  const QueryResponse clean = service.ExecuteInline(late);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  const double compute = clean.wall_seconds;

  NoCacheGate gate;
  gate.Install(service);
  ASSERT_TRUE(service.Start().ok());
  QueryRequest blocker = SmallQuery(5);
  blocker.no_cache = true;
  std::promise<QueryResponse> blocker_done;
  ASSERT_TRUE(service
                  .Submit(blocker,
                          [&](QueryResponse r) { blocker_done.set_value(std::move(r)); })
                  .ok());
  gate.AwaitHeld();

  late.deadline_seconds = 1.25 * compute;
  std::future<QueryResponse> answer =
      std::async(std::launch::async, [&] { return service.Query(late); });
  std::this_thread::sleep_for(std::chrono::duration<double>(compute));
  gate.Release();
  const QueryResponse resp = answer.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded) << resp.status.ToString();
  EXPECT_EQ(late.deadline_seconds, 1.25 * compute);  // the caller's request is untouched
  EXPECT_TRUE(blocker_done.get_future().get().status.ok());
  service.Stop();
  ExpectServiceInvariant(service.Stats());
}

// Query answers a cached query on the calling thread: a hit needs no
// worker, so it is answered while the only worker is held.
TEST(Service, CacheHitIsAnsweredWhileTheOnlyWorkerIsBusy) {
  ServiceOptions so = SmallServiceOptions();
  so.num_workers = 1;
  EstimationService service(so);
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  NoCacheGate gate;
  gate.Install(service);
  ASSERT_TRUE(service.Start().ok());

  const QueryRequest req = SmallQuery();
  const QueryResponse first = service.Query(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_FALSE(first.query_cache_hit);

  QueryRequest blocker = SmallQuery(5);
  blocker.no_cache = true;
  std::promise<QueryResponse> blocker_done;
  ASSERT_TRUE(service
                  .Submit(blocker,
                          [&](QueryResponse r) { blocker_done.set_value(std::move(r)); })
                  .ok());
  gate.AwaitHeld();

  std::future<QueryResponse> hit =
      std::async(std::launch::async, [&] { return service.Query(req); });
  const bool answered = hit.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gate.Release();
  ASSERT_TRUE(answered) << "the cached query waited for the held worker";
  const QueryResponse h = hit.get();
  ASSERT_TRUE(h.status.ok()) << h.status.ToString();
  EXPECT_TRUE(h.query_cache_hit);
  ExpectBitwiseEqual(h, first);
  EXPECT_TRUE(blocker_done.get_future().get().status.ok());
  service.Stop();

  const ServerStatsWire s = service.Stats();
  EXPECT_EQ(s.queries_received, 3u);
  EXPECT_EQ(s.queries_ok, 3u);
  ExpectServiceInvariant(s);
  // One cache count per query: the first query's miss is counted once,
  // though both its caller and its worker probed.
  EXPECT_EQ(s.query_cache[0], 1u);  // hits
  EXPECT_EQ(s.query_cache[1], 1u);  // misses
}

// A query keyed under model A that a reload to B overtakes in the queue
// executes on B and must be cached under B's key, not A's: the worker
// rekeys it when the digest changed.
TEST(Service, ReloadWhileQueuedCachesUnderTheExecutingModel) {
  ServiceOptions so = SmallServiceOptions();
  so.num_workers = 1;
  EstimationService service(so);
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  NoCacheGate gate;
  gate.Install(service);
  ASSERT_TRUE(service.Start().ok());

  QueryRequest blocker = SmallQuery(5);
  blocker.no_cache = true;
  std::promise<QueryResponse> blocker_done;
  ASSERT_TRUE(service
                  .Submit(blocker,
                          [&](QueryResponse r) { blocker_done.set_value(std::move(r)); })
                  .ok());
  gate.AwaitHeld();

  const QueryRequest req = SmallQuery();
  std::future<QueryResponse> queued =
      std::async(std::launch::async, [&] { return service.Query(req); });
  while (service.Stats().queue_depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Status reloaded = service.ReloadModel(SmallCheckpointB());
  gate.Release();
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();

  const QueryResponse resp = queued.get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.query_cache_hit);
  EXPECT_EQ(resp.model_version, 2u);
  QueryRequest fresh = req;
  fresh.no_cache = true;
  ExpectBitwiseEqual(resp, service.ExecuteInline(fresh));

  const QueryResponse again = service.Query(req);
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_TRUE(again.query_cache_hit) << "the answer was not cached under model B's key";
  EXPECT_EQ(again.model_version, 2u);
  ExpectBitwiseEqual(again, resp);
  EXPECT_TRUE(blocker_done.get_future().get().status.ok());
  service.Stop();
  ExpectServiceInvariant(service.Stats());
}

TEST(Service, AdmissionControlRejectsWhenQueueFull) {
  ServiceOptions so = SmallServiceOptions();
  so.num_workers = 1;
  so.queue_capacity = 1;
  EstimationService service(so);
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(service.Start().ok());

  const QueryRequest req = SmallQuery();
  // Occupy the only worker: its done-callback parks until we release it.
  std::promise<void> entered, release;
  ASSERT_TRUE(service
                  .Submit(req,
                          [&](QueryResponse) {
                            entered.set_value();
                            release.get_future().wait();
                          })
                  .ok());
  entered.get_future().wait();

  // Queue slot 1 of 1.
  std::promise<void> second_done;
  ASSERT_TRUE(
      service.Submit(req, [&](QueryResponse) { second_done.set_value(); }).ok());

  // Queue full: rejected, callback never invoked.
  const Status st = service.Submit(req, [](QueryResponse) { FAIL(); });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(st.message().find("queue full"), std::string::npos) << st.ToString();

  release.set_value();
  second_done.get_future().wait();
  service.Stop();

  const ServerStatsWire s = service.Stats();
  EXPECT_EQ(s.queries_received, 3u);
  EXPECT_EQ(s.queries_rejected, 1u);
  EXPECT_EQ(s.queries_ok, 2u);
}

TEST(Service, StopDrainsAcceptedQueries) {
  ServiceOptions so = SmallServiceOptions();
  so.num_workers = 1;
  so.queue_capacity = 8;
  EstimationService service(so);
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(service.Start().ok());

  std::atomic<int> done{0};
  const QueryRequest req = SmallQuery();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service
                    .Submit(req,
                            [&](QueryResponse r) {
                              EXPECT_TRUE(r.status.ok()) << r.status.ToString();
                              done.fetch_add(1);
                            })
                    .ok());
  }
  service.Stop();  // must answer all four before returning
  EXPECT_EQ(done.load(), 4);

  // After Stop, Submit rejects and Query falls back to inline execution.
  EXPECT_EQ(service.Submit(req, [](QueryResponse) {}).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(service.Query(req).status.ok());
}

TEST(Service, HotReloadUnderLoadNeverTearsAndNeverFailsQueries) {
  // The TSan centerpiece: queries race model reloads (including corrupt
  // ones). Every query must be answered from a consistent snapshot and
  // failed reloads must leave the last good model serving.
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(service.Start().ok());

  QueryRequest req = SmallQuery();
  req.num_paths = 2;
  req.no_cache = true;  // force full compute so queries overlap reloads

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&] {
      for (int q = 0; q < 5 && !stop.load(); ++q) {
        const QueryResponse resp = service.Query(req);
        if (!resp.status.ok()) {
          failures.fetch_add(1);
          ADD_FAILURE() << resp.status.ToString();
        }
        // The snapshot identity must be one of the published versions.
        if (resp.model_version == 0) failures.fetch_add(1);
      }
    });
  }
  const std::string reload_paths[3] = {SmallCheckpointB(), CorruptCheckpoint(),
                                       SmallCheckpoint()};
  for (int r = 0; r < 9; ++r) {
    const Status st = service.ReloadModel(reload_paths[r % 3]);
    if (r % 3 == 1) {
      EXPECT_FALSE(st.ok());  // corrupt reload must fail...
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_NE(service.registry().Current(), nullptr);  // ...but never unpublish
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  service.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.Stats().reloads_failed, 3u);
}

TEST(Service, ShrinkingThenGrowingRequestsMatchADirectRun) {
  // Each worker thread builds its queries' flows in place into one reused
  // workspace (serve/exec.cc). Requests whose flow counts shrink and then
  // grow must each answer exactly what a fresh build and a direct 1-thread
  // RunM3 give.
  M3Model model(SmallModel());
  model.Load(SmallCheckpoint());
  const FatTree ft(FatTreeConfig::Small(2.0));
  const int flow_counts[] = {400, 250, 60, 25, 180, 420};
  std::vector<QueryRequest> reqs;
  std::vector<QueryResponse> direct;
  for (int k = 0; k < 6; ++k) {
    QueryRequest req = SmallQuery(100 + static_cast<std::uint64_t>(k), flow_counts[k]);
    req.seed = 7 + static_cast<std::uint64_t>(k);
    reqs.push_back(req);
    std::vector<Flow> flows;
    ASSERT_TRUE(BuildRequestFlows(req, ft, &flows).ok());
    M3Options opts;
    opts.num_paths = req.num_paths;
    opts.seed = req.seed;
    opts.use_context = req.use_context;
    opts.num_threads = 1;
    NetworkEstimate est = RunM3(ft.topo(), flows, req.cfg, model, opts);
    ASSERT_TRUE(est.status.ok()) << est.status.ToString();
    QueryResponse want;
    want.bucket_pct = std::move(est.bucket_pct);
    want.total_counts = est.total_counts;
    want.combined_pct = std::move(est.combined_pct);
    direct.push_back(std::move(want));
  }
  for (int workers : {1, 2}) {
    SCOPED_TRACE("num_workers " + std::to_string(workers));
    ServiceOptions so = SmallServiceOptions();
    so.num_workers = workers;
    EstimationService service(so);
    ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
    ASSERT_TRUE(service.Start().ok());
    // Twice through, so each worker's workspace last held some other request.
    for (int round = 0; round < 2; ++round) {
      for (std::size_t k = 0; k < reqs.size(); ++k) {
        SCOPED_TRACE("request " + std::to_string(k) + ", round " + std::to_string(round));
        QueryRequest req = reqs[k];
        req.no_cache = true;
        const QueryResponse got = service.Query(req);
        ASSERT_TRUE(got.status.ok()) << got.status.ToString();
        ExpectBitwiseEqual(got, direct[k]);
      }
    }
    service.Stop();
  }
}

TEST(Service, OversizedRequestReleasesTheThreadsFlowWorkspace) {
  // The calling thread keeps its request-flow workspace between queries,
  // but gives it back after a query larger than kMaxKeptRequestFlows, on
  // the full and the shard execution path alike.
  ModelRegistry reg(SmallModel());
  ASSERT_TRUE(reg.Reload(SmallCheckpoint()).ok());
  const std::shared_ptr<const ModelSnapshot> snap = reg.Current();
  ASSERT_NE(snap, nullptr);
  TopoMemo topos;
  ExecContext ctx;
  ctx.topos = &topos;

  const QueryRequest small = SmallQuery(12, 300);
  ShardQueryRequest big;
  big.query = SmallQuery(13, static_cast<int>(kMaxKeptRequestFlows) + 1);
  big.query.num_paths = 1;
  big.slots = {0};

  ASSERT_TRUE(ExecuteQueryOnSnapshot(small, 0.0, *snap, ctx).status.ok());
  const std::size_t kept = RequestFlowWorkspaceCapacity();
  EXPECT_GE(kept, small.flows.size());
  EXPECT_LE(kept, kMaxKeptRequestFlows);

  // Rejected before anything is built: the workspace stays as it was.
  QueryRequest rejected = big.query;
  rejected.flows.back().priority = kNumPriorities;
  EXPECT_EQ(ExecuteQueryOnSnapshot(rejected, 0.0, *snap, ctx).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RequestFlowWorkspaceCapacity(), kept);

  const QueryResponse full = ExecuteQueryOnSnapshot(big.query, 0.0, *snap, ctx);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_EQ(RequestFlowWorkspaceCapacity(), 0u);

  ASSERT_TRUE(ExecuteQueryOnSnapshot(small, 0.0, *snap, ctx).status.ok());
  EXPECT_GE(RequestFlowWorkspaceCapacity(), small.flows.size());
  const ShardQueryResponse shard = ExecuteShardOnSnapshot(big, *snap, ctx);
  ASSERT_TRUE(shard.status.ok()) << shard.status.ToString();
  EXPECT_EQ(RequestFlowWorkspaceCapacity(), 0u);
}

// ----------------------------------------------------------- request flows --

void ExpectSameFlows(const std::vector<Flow>& got, const std::vector<Flow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].dst, want[i].dst);
    EXPECT_EQ(got[i].size, want[i].size);
    EXPECT_EQ(got[i].arrival, want[i].arrival);
    EXPECT_EQ(got[i].path, want[i].path);
    EXPECT_EQ(got[i].priority, want[i].priority);
  }
}

TEST(RequestFlows, InPlaceBuildMatchesAFreshBuild) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const QueryRequest target = SmallQuery(5, 200);
  std::vector<Flow> fresh;
  ASSERT_TRUE(BuildRequestFlows(target, ft, &fresh).ok());

  QueryRequest failing = SmallQuery(6, 150);
  failing.flows[70].priority = kNumPriorities;
  const QueryRequest larger = SmallQuery(7, 500);
  const QueryRequest smaller = SmallQuery(8, 40);
  struct Before {
    const char* name;
    std::vector<const QueryRequest*> builds;  // run into the buffer first
  };
  const Before befores[] = {
      {"larger", {&larger}},
      {"smaller", {&smaller}},
      {"failed", {&larger, &failing}},
      {"failed on empty", {&failing}},
  };
  for (const Before& before : befores) {
    SCOPED_TRACE(before.name);
    std::vector<Flow> buf;
    for (const QueryRequest* r : before.builds) {
      const Status st = BuildRequestFlows(*r, ft, &buf);
      EXPECT_EQ(st.ok(), r != &failing) << st.ToString();
    }
    ASSERT_TRUE(BuildRequestFlows(target, ft, &buf).ok());
    ExpectSameFlows(buf, fresh);
  }
}

TEST(RequestFlows, BadFlowReturnsItsStatusAndLeavesTheOutputUntouched) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const QueryRequest earlier = SmallQuery(9, 120);
  std::vector<Flow> kept;
  ASSERT_TRUE(BuildRequestFlows(earlier, ft, &kept).ok());

  struct Case {
    std::size_t index;
    std::function<void(WireFlow&)> spoil;
    std::string message;
  };
  const Case cases[] = {
      {0, [](WireFlow& f) { f.src_host = -1; },
       "flows[0].src: -1 (host index in [0, 256))"},
      {150, [](WireFlow& f) { f.src_host = f.dst_host = 17; },
       "flows[150].dst: 17 (must differ from src)"},
      {299, [](WireFlow& f) { f.priority = kNumPriorities; },
       "flows[299].priority: 3 (class in [0, 3))"},
      {299, [](WireFlow& f) { f.dst_host = 256; },
       "flows[299].dst: 256 (host index in [0, 256))"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    QueryRequest req = SmallQuery();
    c.spoil(req.flows[c.index]);
    std::vector<Flow> out = kept;
    const Status st = BuildRequestFlows(req, ft, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), c.message);
    ExpectSameFlows(out, kept);
  }
}

TEST(RequestFlows, InPlaceRouteMatchesTheValueForm) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const int hosts_per_rack = ft.config().hosts_per_rack;
  const int hosts_per_pod = hosts_per_rack * ft.config().racks_per_pod;
  struct Pair {
    int src, dst;
    std::size_t links;
  };
  const Pair pairs[] = {
      {0, 1, 2},                                // same rack
      {0, hosts_per_rack + 3, 4},               // same pod
      {hosts_per_pod + 5, 2, 6},                // cross pod
      {ft.num_hosts() - 1, hosts_per_rack, 6},  // cross pod, the other way
  };
  Route out(9, kInvalidLink);  // a longer route left by an earlier call
  for (const Pair& p : pairs) {
    for (std::uint64_t key = 0; key < 64; ++key) {
      SCOPED_TRACE("pair " + std::to_string(p.src) + "->" + std::to_string(p.dst) + " key " +
                   std::to_string(key));
      ft.RouteBetween(p.src, p.dst, key, &out);
      EXPECT_EQ(out, ft.RouteBetween(p.src, p.dst, key));
      EXPECT_EQ(out.size(), p.links);
    }
  }
}

// ------------------------------------------------------------ socket server --

TEST(SocketServer, EndToEndQueryStatsAndReload) {
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(service.Start().ok());
  SocketServer server(service);
  const std::string sock = TempPath("serve_test.sock");
  ASSERT_TRUE(server.Start(sock).ok());

  StatusOr<UnixFd> fd = ConnectUnix(sock);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  // Query through the socket...
  const QueryRequest req = SmallQuery();
  ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kQueryRequest),
                        EncodeQueryRequest(req))
                  .ok());
  StatusOr<Frame> frame = RecvFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, static_cast<std::uint32_t>(MsgType::kQueryResponse));
  StatusOr<QueryResponse> resp = DecodeQueryResponse(frame->payload);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();

  // ...must be bitwise identical to an in-process uncached recompute.
  QueryRequest fresh = req;
  fresh.no_cache = true;
  ExpectBitwiseEqual(*resp, service.ExecuteInline(fresh));

  // Stats round-trip over the socket.
  ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kStatsRequest), "").ok());
  frame = RecvFrame(*fd);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, static_cast<std::uint32_t>(MsgType::kStatsResponse));
  StatusOr<ServerStatsWire> stats = DecodeStats(frame->payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->queries_received, 2u);
  EXPECT_EQ(stats->model_version, 1u);

  // Corrupt hot-reload over the socket: error reported, version unchanged.
  ReloadRequest rr;
  rr.checkpoint_path = CorruptCheckpoint();
  ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kReloadRequest),
                        EncodeReloadRequest(rr))
                  .ok());
  frame = RecvFrame(*fd);
  ASSERT_TRUE(frame.ok());
  StatusOr<ReloadResponse> rresp = DecodeReloadResponse(frame->payload);
  ASSERT_TRUE(rresp.ok());
  EXPECT_EQ(rresp->status.code(), StatusCode::kDataLoss) << rresp->status.ToString();
  EXPECT_EQ(rresp->model_version, 1u);

  // Good hot-reload bumps the version.
  rr.checkpoint_path = SmallCheckpointB();
  ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kReloadRequest),
                        EncodeReloadRequest(rr))
                  .ok());
  frame = RecvFrame(*fd);
  ASSERT_TRUE(frame.ok());
  rresp = DecodeReloadResponse(frame->payload);
  ASSERT_TRUE(rresp.ok());
  EXPECT_TRUE(rresp->status.ok());
  EXPECT_EQ(rresp->model_version, 2u);

  server.Stop();
  service.Stop();
}

TEST(SocketServer, MalformedQueryGetsErrorResponseUnknownTypeHangsUp) {
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  SocketServer server(service);
  const std::string sock = TempPath("serve_test2.sock");
  ASSERT_TRUE(server.Start(sock).ok());

  {
    StatusOr<UnixFd> fd = ConnectUnix(sock);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kQueryRequest),
                          "garbage payload")
                    .ok());
    StatusOr<Frame> frame = RecvFrame(*fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    StatusOr<QueryResponse> resp = DecodeQueryResponse(frame->payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp->status.ok());
    EXPECT_NE(resp->status.message().find("decoding query request"), std::string::npos)
        << resp->status.ToString();
  }
  {
    StatusOr<UnixFd> fd = ConnectUnix(sock);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(SendFrame(*fd, 0xdeadu, "x").ok());
    const StatusOr<Frame> frame = RecvFrame(*fd);
    EXPECT_FALSE(frame.ok());  // server hung up
  }
  server.Stop();

  // The socket file is unlinked on Stop.
  EXPECT_EQ(ConnectUnix(sock).status().code(), StatusCode::kNotFound);
}

TEST(SocketServer, ServesUnixAndTcpListenersSimultaneously) {
  // m3d --listen-tcp: one server, two listeners, identical answers on both
  // transports (the framing layer is transport-agnostic by design).
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  SocketServer server(service);
  const std::string sock = TempPath("serve_test_dual.sock");
  ASSERT_TRUE(server.Start(sock).ok());
  Endpoint tcp;
  tcp.kind = Endpoint::Kind::kTcp;
  tcp.host = "127.0.0.1";
  tcp.port = 0;  // kernel-assigned would be ideal; probe a few fixed ports
  Status tcp_start = Status::Unavailable("no port tried");
  for (std::uint16_t port = 39451; port < 39481; ++port) {
    tcp.port = port;
    tcp_start = server.Start(tcp);
    if (tcp_start.ok()) break;
  }
  ASSERT_TRUE(tcp_start.ok()) << tcp_start.ToString();

  const auto ping_via = [](StatusOr<UnixFd> fd) {
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kPingRequest),
                          EncodePingRequest())
                    .ok());
    StatusOr<Frame> frame = RecvFrame(*fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, static_cast<std::uint32_t>(MsgType::kPingResponse));
    const StatusOr<PingResponse> resp = DecodePingResponse(frame->payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->ready);
    EXPECT_EQ(resp->model_version, 1u);
  };
  ping_via(ConnectUnix(sock));
  ping_via(ConnectTcpTimeout("127.0.0.1", tcp.port, 2.0));

  server.Stop();
  // Both listeners are down after one Stop.
  EXPECT_EQ(ConnectUnix(sock).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(ConnectTcpTimeout("127.0.0.1", tcp.port, 0.5).ok());
}

TEST(SocketServer, EmptyHooksAnswerUnavailableNotCrash) {
  // A router exposes no reload and a plain shard no shard-query handler;
  // both must answer a clean typed kUnavailable instead of hanging up.
  SocketServer server(ServerHooks{});  // every hook empty
  const std::string sock = TempPath("serve_test_hookless.sock");
  ASSERT_TRUE(server.Start(sock).ok());
  StatusOr<UnixFd> fd = ConnectUnix(sock);
  ASSERT_TRUE(fd.ok());

  ReloadRequest rr;
  rr.checkpoint_path = "x.ckpt";
  ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kReloadRequest),
                        EncodeReloadRequest(rr))
                  .ok());
  StatusOr<Frame> frame = RecvFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, static_cast<std::uint32_t>(MsgType::kReloadResponse));
  const StatusOr<ReloadResponse> rresp = DecodeReloadResponse(frame->payload);
  ASSERT_TRUE(rresp.ok());
  EXPECT_EQ(rresp->status.code(), StatusCode::kUnavailable);

  ShardQueryRequest sq;
  sq.query = SmallQuery();
  ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kShardQueryRequest),
                        EncodeShardQueryRequest(sq))
                  .ok());
  frame = RecvFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, static_cast<std::uint32_t>(MsgType::kShardQueryResponse));
  const StatusOr<ShardQueryResponse> sresp = DecodeShardQueryResponse(frame->payload);
  ASSERT_TRUE(sresp.ok());
  EXPECT_EQ(sresp->status.code(), StatusCode::kUnavailable);
  server.Stop();
}

TEST(SocketServer, ShardQueryOverSocketMatchesInProcessExecution) {
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  SocketServer server(service);
  const std::string sock = TempPath("serve_test_shardq.sock");
  ASSERT_TRUE(server.Start(sock).ok());

  ShardQueryRequest sq;
  sq.query = SmallQuery();
  sq.query.no_cache = true;
  sq.slots = {0, 2};
  StatusOr<UnixFd> fd = ConnectUnix(sock);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kShardQueryRequest),
                        EncodeShardQueryRequest(sq))
                  .ok());
  StatusOr<Frame> frame = RecvFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, static_cast<std::uint32_t>(MsgType::kShardQueryResponse));
  const StatusOr<ShardQueryResponse> wire_resp = DecodeShardQueryResponse(frame->payload);
  ASSERT_TRUE(wire_resp.ok()) << wire_resp.status().ToString();
  ASSERT_TRUE(wire_resp->status.ok()) << wire_resp->status.ToString();

  const ShardQueryResponse direct = service.ExecuteShard(sq);
  ASSERT_TRUE(direct.status.ok());
  ASSERT_EQ(wire_resp->estimates.size(), direct.estimates.size());
  for (std::size_t i = 0; i < direct.estimates.size(); ++i) {
    EXPECT_EQ(wire_resp->estimates[i].slot, direct.estimates[i].slot);
    EXPECT_EQ(wire_resp->estimates[i].estimate.pct, direct.estimates[i].estimate.pct);
    EXPECT_EQ(wire_resp->estimates[i].estimate.counts,
              direct.estimates[i].estimate.counts);
  }
  server.Stop();
  service.Stop();
}

TEST(SocketServer, FinishedConnectionThreadsAreReaped) {
  // A long-running daemon serving short-lived connections must join exited
  // handler threads as it goes (a joinable thread keeps its stack until
  // join); without reaping this test would end with 16 threads accrued.
  EstimationService service(SmallServiceOptions());
  ASSERT_TRUE(service.ReloadModel(SmallCheckpoint()).ok());
  SocketServer server(service);
  const std::string sock = TempPath("serve_test3.sock");
  ASSERT_TRUE(server.Start(sock).ok());

  for (int i = 0; i < 16; ++i) {
    StatusOr<UnixFd> fd = ConnectUnix(sock);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(
        SendFrame(*fd, static_cast<std::uint32_t>(MsgType::kStatsRequest), "").ok());
    ASSERT_TRUE(RecvFrame(*fd).ok());
  }  // each fd closes here; its handler exits on EOF

  // Reaping happens on the acceptor thread after each accept; the last
  // handlers' exits race this check, so poke-and-poll briefly.
  std::size_t live = server.connection_threads();
  for (int spin = 0; spin < 200 && live > 2; ++spin) {
    StatusOr<UnixFd> fd = ConnectUnix(sock);  // wakes the acceptor -> reap
    ASSERT_TRUE(fd.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    live = server.connection_threads();
  }
  EXPECT_LE(live, 2u) << "exited connection threads were not reaped";
  server.Stop();
}

}  // namespace
}  // namespace m3::serve
