#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "pathdecomp/path_topology.h"

namespace m3::serve {
namespace {

// Cache-key schema tags: bump when the hashed field set or its hashing
// changes so old and new processes can never alias keys. v2 query key: +
// topology shape; v3: the flow table is one FlowDigest.
constexpr const char* kQueryKeySchema = "m3d/query-key/v3";
constexpr const char* kPathKeySchema = "m3d/path-key/v1";
// Bytes per lot link (src, dst: i32; rate: f64; delay: i64) and per flow
// before its route (src, dst: i32; size, arrival: i64; priority, is_fg: u8;
// entry, exit hop: i32; route length: u64) in the path key (wire.h).
constexpr std::size_t kPathKeyLinkBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kPathKeyFlowBytes = 4 + 4 + 8 + 8 + 1 + 1 + 4 + 4 + 8;

// Unchecked little-endian field writer and reader over a block whose size
// is settled before the first field: PathCacheKey computes the exact size,
// and a vector of FixedWidth records is sized (or bounds-checked) from its
// count once. They offer only the fixed-width field kinds, so a record
// whose field list gains a Str, Vec, Enum or Bool stops compiling here
// instead of skipping that field's check.
struct RawWriter {
  unsigned char* p;
  template <typename T>
  void Put(T v) {
    std::memcpy(p, &v, sizeof(T));
    p += sizeof(T);
  }
  void U8(std::uint8_t v) { Put(v); }
  void U32(std::uint32_t v) { Put(v); }
  void I32(std::int32_t v) { Put(v); }
  void I64(std::int64_t v) { Put(v); }
  void F64(double v) { Put(v); }
};

struct RawReader {
  const char* p;
  template <typename T>
  void Get(T& v) {
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
  }
  void U8(std::uint8_t& v) { Get(v); }
  void U32(std::uint32_t& v) { Get(v); }
  void I32(std::int32_t& v) { Get(v); }
  void I64(std::int64_t& v) { Get(v); }
  void F64(double& v) { Get(v); }
};

// The hasher as the field lists see it: an enum is absorbed as its wire
// bytes, unchecked.
struct KeyHasher : Hasher {
  template <typename E>
  void Enum(E v, int /*limit*/) {
    Bytes(&v, sizeof(E));
  }
};

// Upper bounds on decoded percentile-vector and string lengths (vectors are
// 100 wide, strings are names and messages; this is pure overread/OOM
// protection). The shard request's embedded query is no Str: only the rest
// of its payload, which RecvFrame caps, bounds it.
constexpr std::uint64_t kMaxVecLen = 1u << 20;
constexpr std::uint64_t kMaxStrLen = 1u << 20;

template <class M, class T>
concept Is = std::is_same_v<std::remove_const_t<M>, T>;

// The records a vector moves as one block through RawWriter / RawReader:
// every field in their lists is fixed-width.
template <class T>
concept FixedWidth = Is<T, std::uint32_t> || Is<T, WireFlow> || Is<T, SlotEstimateWire>;

// Bytes of T's smallest encoding (empty strings and vectors): the record
// size a count of T is checked against, and a FixedWidth record's width.
template <typename T>
std::uint64_t MinBytes();

// One metric-list member (serve/metrics.h), by type.
template <class Io, class T>
void Field(Io& io, T& v) {
  using V = std::remove_const_t<T>;
  if constexpr (std::is_same_v<V, std::uint64_t>) {
    io.U64(v);
  } else if constexpr (std::is_same_v<V, std::uint32_t>) {
    io.U32(v);
  } else if constexpr (std::is_same_v<V, bool>) {
    io.Bool(v);
  } else if constexpr (std::is_same_v<V, std::string>) {
    io.Str(v);
  } else {
    for (auto& e : v) Field(io, e);  // a labelled metric's array
  }
}

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Raw(&v, 4); }
  void U64(std::uint64_t v) { Raw(&v, 8); }
  void I32(std::int32_t v) { Raw(&v, 4); }
  void I64(std::int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }  // bit pattern
  void Bool(bool v) { U8(v ? 1 : 0); }
  template <typename E>
  void Enum(E v, int /*limit*/) {  // written raw; only the reader checks
    Raw(&v, sizeof(E));
  }
  void Str(const std::string& s) {
    U64(s.size());
    out_.append(s);
  }
  void VecF64(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) F64(d);
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    U64(v.size());
    if constexpr (FixedWidth<T>) {
      const std::size_t at = out_.size();
      out_.resize(at + v.size() * MinBytes<T>());
      RawWriter w{reinterpret_cast<unsigned char*>(out_.data() + at)};
      for (const T& e : v) Fields(w, e);
    } else {
      for (const T& e : v) Fields(*this, e);
    }
  }
  // The shard request's query travels as its own versioned payload behind
  // a u64 length, written in place; `deadline_seconds` stands in for the
  // query's own.
  void Embedded(const QueryRequest& q, double deadline_seconds);
  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);  // little-endian hosts
  }
  std::string out_;
};

template <typename T>
std::uint64_t MinBytes() {
  static const std::uint64_t bytes = [] {
    Writer w;
    const T empty{};
    Fields(w, empty);
    return static_cast<std::uint64_t>(w.Take().size());
  }();
  return bytes;
}

// Bounds-checked reader with a sticky error: the first failure is kept and
// every later read is a no-op that yields zero, so a field list reads
// straight through and the caller checks status() once. Past the bounds
// check on every read, Count and Enum are the only places input is checked.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  void U8(std::uint8_t& v) { Raw(&v, 1); }
  void U32(std::uint32_t& v) { Raw(&v, 4); }
  void U64(std::uint64_t& v) { Raw(&v, 8); }
  void I32(std::int32_t& v) { Raw(&v, 4); }
  template <typename T>  // std::int64_t, or DegradationReport's long long
  void I64(T& v) {
    static_assert(std::is_integral_v<T> && sizeof(T) == 8);
    Raw(&v, 8);
  }
  void F64(double& v) { Raw(&v, 8); }
  void Bool(bool& v) {
    std::uint8_t b = 0;
    Enum(b, 2);
    v = b != 0;
  }
  // An enum (or enum-valued byte) read at its own width; at or past `limit`
  // is kInvalidArgument.
  template <typename E>
  void Enum(E& v, int limit) {
    using Int = typename std::conditional_t<std::is_enum_v<E>, std::underlying_type<E>,
                                            std::type_identity<E>>::type;
    Int x{};
    Raw(&x, sizeof(Int));
    if (std::cmp_less(x, 0) || std::cmp_greater_equal(x, limit)) {
      Fail(Status::InvalidArgument("wire: value " + std::to_string(x) + " at offset " +
                                   std::to_string(pos_ - sizeof(Int)) + " is outside [0, " +
                                   std::to_string(limit) + ")"));
      x = 0;
    }
    v = static_cast<E>(x);
  }
  // A u64 record count: over `cap` is kInvalidArgument; more records of
  // `record_bytes` than the rest of the payload holds is kDataLoss (in
  // division form, so a hostile count cannot wrap past the check). 0 after
  // any failure, so nothing is ever sized from bad input.
  std::size_t Count(std::uint64_t record_bytes,
                    std::uint64_t cap = std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t n = 0;
    U64(n);
    if (n > cap) {
      Fail(Status::InvalidArgument("wire: length " + std::to_string(n) + " over the cap of " +
                                   std::to_string(cap)));
    } else if (n > remaining() / record_bytes) {
      Fail(Status::DataLoss("wire: count " + std::to_string(n) + " at offset " +
                            std::to_string(pos_ - 8) + " exceeds the remaining payload"));
    }
    return st_.ok() ? static_cast<std::size_t>(n) : 0;
  }
  void Str(std::string& v) {
    const std::size_t n = Count(1, kMaxStrLen);
    v.assign(s_.substr(pos_, n));
    pos_ += n;
  }
  void VecF64(std::vector<double>& v) {
    v.resize(Count(8, kMaxVecLen));
    for (double& d : v) F64(d);
  }
  template <typename T>
  void Vec(std::vector<T>& v) {
    v.resize(Count(MinBytes<T>()));
    if constexpr (FixedWidth<T>) {
      // Count has checked that the whole block lies within the payload.
      RawReader r{s_.data() + pos_};
      for (T& e : v) Fields(r, e);
      pos_ = static_cast<std::size_t>(r.p - s_.data());
    } else {
      for (T& e : v) Fields(*this, e);
    }
  }
  // The embedded query, decoded in place by a reader over its own bytes
  // (its own version and end checks).
  void Embedded(QueryRequest& q);

  void Version() {
    std::uint32_t v = 0;
    U32(v);
    if (st_.ok() && v != kWireVersion) {
      Fail(Status::InvalidArgument("wire: protocol version " + std::to_string(v) +
                                   " (this build speaks only " +
                                   std::to_string(kWireVersion) + ")"));
    }
  }
  void ExpectEnd() {
    if (st_.ok() && pos_ != s_.size()) {
      Fail(Status::InvalidArgument("wire: " + std::to_string(remaining()) +
                                   " trailing bytes after message"));
    }
  }
  const Status& status() const { return st_; }

 private:
  std::size_t remaining() const { return s_.size() - pos_; }
  void Fail(Status st) {
    if (st_.ok()) st_ = std::move(st);
  }
  void Raw(void* p, std::size_t n) {
    if (st_.ok() && n <= remaining()) {
      std::memcpy(p, s_.data() + pos_, n);
      pos_ += n;
      return;
    }
    if (st_.ok()) {
      Fail(Status::DataLoss("wire: truncated message (need " + std::to_string(n) +
                            " bytes at offset " + std::to_string(pos_) + ", have " +
                            std::to_string(remaining()) + ")"));
    }
    std::memset(p, 0, n);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  Status st_;
};

// ----- field lists: each message's fields, in wire order, written once -----
//
// `M` is the struct, const when encoding or hashing. Every Io (Writer,
// Reader, KeyHasher, and RawWriter / RawReader for FixedWidth records)
// walks the same list.

template <class Io, Is<std::uint32_t> M>
void Fields(Io& io, M& v) {  // a slot index
  io.U32(v);
}

template <class Io, Is<NetConfig> M>
void Fields(Io& io, M& m) {
  io.Enum(m.cc, kNumCcTypes);
  io.I64(m.init_window);
  io.I64(m.buffer);
  io.Bool(m.pfc);
  io.I64(m.dctcp_k);
  io.I64(m.dcqcn_kmin);
  io.I64(m.dcqcn_kmax);
  io.F64(m.hpcc_eta);
  io.F64(m.hpcc_rate_ai_gbps);
  io.I64(m.timely_tlow);
  io.I64(m.timely_thigh);
  io.I64(m.mtu);
  io.I64(m.hdr);
  io.U64(m.seed);
}

template <class Io, Is<WireTopo> M>
void Fields(Io& io, M& m) {
  io.I32(m.pods);
  io.I32(m.racks_per_pod);
  io.I32(m.hosts_per_rack);
  io.I32(m.fabric_per_pod);
  io.I32(m.spines_per_plane);
}

// constexpr so FlowWords can check at compile time that the list fits.
template <class Io, Is<WireFlow> M>
constexpr void Fields(Io& io, M& m) {
  io.I32(m.id);
  io.I32(m.src_host);
  io.I32(m.dst_host);
  io.I64(m.size);
  io.I64(m.arrival);
  io.U8(m.priority);
}

template <class Io, Is<Status> M>
void Fields(Io& io, M& m) {
  StatusCode code = m.code();
  std::string message = m.message();
  io.Enum(code, kNumStatusCodes);
  io.Str(message);
  if constexpr (!std::is_const_v<M>) m = Status(code, std::move(message));
}

template <class Io, Is<DegradationReport> M>
void Fields(Io& io, M& m) {
  io.I32(m.paths_ok);
  io.I32(m.paths_retried);
  io.I32(m.paths_degraded);
  io.I32(m.paths_dropped);
  io.I32(m.errors_exception);
  io.I32(m.errors_nonfinite);
  io.I32(m.errors_deadline);
  io.I32(m.errors_validation);
  io.I64(m.clamped_values);
  io.Str(m.first_error);
}

template <class Io, Is<PathEstimate> M>
void Fields(Io& io, M& m) {
  for (auto& bucket : m.pct) {
    for (auto& v : bucket) io.F64(v);
  }
  for (auto& c : m.counts) io.F64(c);
}

template <class Io, Is<ShardReportWire> M>
void Fields(Io& io, M& m) {
  io.Str(m.shard);
  io.U32(m.slots_assigned);
  io.U32(m.slots_ok);
  io.U32(m.slots_fallback);
  io.U32(m.slots_dropped);
  io.U32(m.retries);
}

template <class Io, Is<SlotEstimateWire> M>
void Fields(Io& io, M& m) {
  io.U32(m.slot);
  Fields(io, m.estimate);
}

// The stats schema is the metric list (serve/metrics.h): fields in list
// order, then the shard rows.
template <class Io, Is<ShardHealthWire> M>
void Fields(Io& io, M& m) {
  ForEachShardField(m, [&io](const MetricDesc&, auto& v) { Field(io, v); });
}

template <class Io, Is<ServerStatsWire> M>
void Fields(Io& io, M& m) {
  ForEachMetric(m, [&io](const MetricDesc&, auto& v) { Field(io, v); });
  io.Vec(m.shards);
}

// `deadline_seconds` and `priority` are m's own, except where a scatter
// re-budgets the query or the service's scheduler sends it as it runs it.
template <class Io, Is<QueryRequest> M, class D, class P>
void QueryFields(Io& io, M& m, D& deadline_seconds, P& priority) {
  io.F64(m.oversub);
  Fields(io, m.topo);
  Fields(io, m.cfg);
  io.I32(m.num_paths);
  io.U64(m.seed);
  io.Bool(m.use_context);
  io.Bool(m.strict);
  io.F64(deadline_seconds);
  io.I32(m.max_attempts);
  io.Bool(m.no_cache);
  io.Enum(priority, kNumPriorityClasses);
  io.Vec(m.flows);
}

template <class Io, Is<QueryRequest> M>
void Fields(Io& io, M& m) {
  QueryFields(io, m, m.deadline_seconds, m.priority);
}

template <class Io, Is<QueryResponse> M>
void Fields(Io& io, M& m) {
  Fields(io, m.status);
  for (auto& pct : m.bucket_pct) io.VecF64(pct);
  for (auto& c : m.total_counts) io.F64(c);
  io.VecF64(m.combined_pct);
  io.F64(m.wall_seconds);
  Fields(io, m.degradation);
  io.U64(m.model_version);
  io.U32(m.model_crc);
  io.Bool(m.query_cache_hit);
  io.Enum(m.shed_reason, kNumShedReasons);
  io.Vec(m.shards);
}

template <class Io, Is<ReloadRequest> M>
void Fields(Io& io, M& m) {
  io.Str(m.checkpoint_path);
}

template <class Io, Is<ReloadResponse> M>
void Fields(Io& io, M& m) {
  Fields(io, m.status);
  io.U64(m.model_version);
  io.U32(m.model_crc);
}

template <class Io, Is<PingResponse> M>
void Fields(Io& io, M& m) {
  io.Bool(m.ready);
  io.Bool(m.worker_mode);
  io.U64(m.model_version);
  io.U32(m.workers_alive);
  io.Bool(m.router_mode);
  io.U32(m.shards_healthy);
  io.U32(m.shards_total);
  io.U32(m.model_crc);
}

// The encoder writes this list in the two parts a scatter sends
// (EncodeShardQueryHead, EncodeShardQuerySlots).
template <class Io, Is<ShardQueryRequest> M>
void Fields(Io& io, M& m) {
  io.Embedded(m.query);
  io.Vec(m.slots);
}

template <class Io, Is<ShardQueryResponse> M>
void Fields(Io& io, M& m) {
  Fields(io, m.status);
  Fields(io, m.degradation);
  io.U64(m.model_version);
  io.U32(m.model_crc);
  io.Vec(m.estimates);
}

void Writer::Embedded(const QueryRequest& q, double deadline_seconds) {
  const std::size_t at = out_.size();
  U64(0);  // the length, patched once the query is written
  U32(kWireVersion);
  QueryFields(*this, q, deadline_seconds, q.priority);
  const std::uint64_t n = out_.size() - at - 8;
  std::memcpy(out_.data() + at, &n, 8);
}

void Reader::Embedded(QueryRequest& q) {
  const std::size_t n = Count(1);
  if (!st_.ok()) return;
  Reader sub(s_.substr(pos_, n));
  sub.Version();
  Fields(sub, q);
  sub.ExpectEnd();
  if (!sub.status().ok()) return Fail(sub.status().Annotate("wire: embedded shard query"));
  pos_ += n;
}

// Every payload leads with the one version this build speaks.
Writer Versioned() {
  Writer w;
  w.U32(kWireVersion);
  return w;
}

template <class M>
std::string Encode(const M& m) {
  Writer w = Versioned();
  Fields(w, m);
  return w.Take();
}

template <class M>
StatusOr<M> Decode(std::string_view payload) {
  Reader r(payload);
  M m;
  r.Version();
  Fields(r, m);
  r.ExpectEnd();
  if (!r.status().ok()) return r.status();
  return m;
}

}  // namespace

std::string EncodeQueryRequest(const QueryRequest& req) { return Encode(req); }
std::string EncodeScheduledQuery(const QueryRequest& req, double deadline_seconds) {
  Writer w = Versioned();
  const auto priority = std::min<std::uint8_t>(req.priority, kNumPriorityClasses - 1);
  QueryFields(w, req, deadline_seconds, priority);
  return w.Take();
}
StatusOr<QueryRequest> DecodeQueryRequest(const std::string& p) { return Decode<QueryRequest>(p); }

std::string EncodeQueryResponse(const QueryResponse& resp) { return Encode(resp); }
StatusOr<QueryResponse> DecodeQueryResponse(const std::string& p) {
  return Decode<QueryResponse>(p);
}

std::string EncodePingRequest() { return Versioned().Take(); }
std::string EncodeStatsRequest() { return Versioned().Take(); }

std::string EncodeStats(const ServerStatsWire& stats) { return Encode(stats); }
StatusOr<ServerStatsWire> DecodeStats(const std::string& p) { return Decode<ServerStatsWire>(p); }

std::string EncodeReloadRequest(const ReloadRequest& req) { return Encode(req); }
StatusOr<ReloadRequest> DecodeReloadRequest(const std::string& p) {
  return Decode<ReloadRequest>(p);
}

std::string EncodeReloadResponse(const ReloadResponse& resp) { return Encode(resp); }
StatusOr<ReloadResponse> DecodeReloadResponse(const std::string& p) {
  return Decode<ReloadResponse>(p);
}

std::string EncodePingResponse(const PingResponse& resp) { return Encode(resp); }
StatusOr<PingResponse> DecodePingResponse(const std::string& p) {
  return Decode<PingResponse>(p);
}

std::string EncodeShardQueryHead(const QueryRequest& query, double deadline_seconds) {
  Writer w = Versioned();
  w.Embedded(query, deadline_seconds);
  return w.Take();
}
std::string EncodeShardQuerySlots(const std::vector<std::uint32_t>& slots) {
  Writer w;
  w.Vec(slots);
  return w.Take();
}
std::string EncodeShardQueryRequest(const ShardQueryRequest& req) {
  return EncodeShardQueryHead(req.query, req.query.deadline_seconds) +
         EncodeShardQuerySlots(req.slots);
}
StatusOr<ShardQueryRequest> DecodeShardQueryRequest(const std::string& p) {
  return Decode<ShardQueryRequest>(p);
}

std::string EncodeShardQueryResponse(const ShardQueryResponse& resp) { return Encode(resp); }
StatusOr<ShardQueryResponse> DecodeShardQueryResponse(const std::string& p) {
  return Decode<ShardQueryResponse>(p);
}

// ----- the query key's flow table -----
//
// A paper-scale query's flows are nearly all of its key's input (20k flows
// of 29 bytes). MurmurHash3 takes 16 bytes per step and each step waits on
// the one before, so the flows go through FlowDigest instead, one flow per
// step in the shape of XXH3's accumulate: two 64x64->128 multiplies per
// flow, neither of which waits on an accumulator. The 128-bit result is
// absorbed into the key's MurmurHash3 stream. Like the rest of the key, it
// separates honest requests, not crafted ones.

namespace {

// Where each field of a WireFlow's list lands in four 64-bit words. Each
// field takes the first word with room for it, so no field straddles two
// words and distinct flows give distinct words: id | src, dst | priority,
// size, arrival. Worked out at compile time by walking the list.
struct FlowLayout {
  struct Place {
    unsigned word = 0, shift = 0;
  };
  std::array<unsigned, 4> used{};  // bits taken in each word
  std::array<Place, 8> places{};
  std::size_t fields = 0;
  bool fits = true;  // every field found room

  constexpr void Put(unsigned bits) {
    for (unsigned i = 0; i < used.size(); ++i) {
      if (fields < places.size() && used[i] + bits <= 64) {
        places[fields++] = Place{i, used[i]};
        used[i] += bits;
        return;
      }
    }
    fits = false;
  }
  constexpr void U8(std::uint8_t) { Put(8); }
  constexpr void I32(std::int32_t) { Put(32); }
  constexpr void I64(std::int64_t) { Put(64); }
};

constexpr FlowLayout kFlowLayout = [] {
  FlowLayout layout;
  const WireFlow flow{};
  Fields(layout, flow);
  return layout;
}();
static_assert(kFlowLayout.fits, "a WireFlow field would miss the query key's flow words");

// One flow's words, filled by walking its field list. The k-th field's
// place is a constant, so the walk compiles to loads, shifts and ORs.
struct FlowWords {
  std::array<std::uint64_t, 4> w{};
  std::size_t k = 0;

  void Put(std::uint64_t v) {
    const FlowLayout::Place p = kFlowLayout.places[k++];
    w[p.word] |= v << p.shift;
  }
  void U8(std::uint8_t v) { Put(v); }
  void I32(std::int32_t v) { Put(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { Put(static_cast<std::uint64_t>(v)); }
};

// The 128-bit product of a and b, its halves XORed. The halves are read
// through memcpy: GCC keeps them in registers that way, where `p >> 64`
// sends them through the stack.
inline std::uint64_t MulFold64(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  std::uint64_t halves[2];
  std::memcpy(halves, &p, sizeof p);
  return halves[0] ^ halves[1];
}

// Each of a flow's two 16-byte halves is XORed with secret words, one of
// them offset by the flow's position, then multiplied and folded into its
// own accumulator; the half's raw words go into the other accumulator, so
// a multiply whose partner word equals its secret still leaves its word in
// the digest (XXH3 adds its input back to the neighbouring lane for the
// same reason). The position term makes the digest depend on flow order.
Hash128 FlowDigest(const std::vector<WireFlow>& flows) {
  constexpr std::uint64_t kSecret0 = 0xa0761d6478bd642fULL;
  constexpr std::uint64_t kSecret1 = 0xe7037ed1a0b428dbULL;
  constexpr std::uint64_t kSecret2 = 0x8ebc6af09c88c6e3ULL;
  constexpr std::uint64_t kPosition = 0x9e3779b97f4a7c15ULL;  // odd: distinct per position
  std::uint64_t lo = 0, hi = 0;
  std::uint64_t key = kSecret1;  // kSecret1 + i * kPosition at flow i
  for (const WireFlow& flow : flows) {
    FlowWords f;
    Fields(f, flow);
    lo += MulFold64(f.w[0] ^ kSecret0, f.w[1] ^ key) + (f.w[2] + f.w[3]);
    hi += MulFold64(f.w[2] ^ kSecret2, f.w[3] ^ key) + (f.w[0] + f.w[1]);
    key += kPosition;
  }
  return Hash128{hi, lo};
}

}  // namespace

Hash128 QueryCacheKey(const QueryRequest& req, const Hash128& model_digest) {
  KeyHasher h;
  h.Str(kQueryKeySchema);
  h.U64(model_digest.hi).U64(model_digest.lo);
  h.Bool(req.use_context);
  h.F64(req.oversub);
  Fields(h, req.topo);
  Fields(h, req.cfg);
  h.I32(req.num_paths);
  h.U64(req.seed);
  h.U64(req.flows.size());
  const Hash128 flows = FlowDigest(req.flows);
  h.U64(flows.hi).U64(flows.lo);
  return h.Finish();
}

Hash128 PathCacheKey(const PathScenario& scenario, const NetConfig& cfg,
                     bool use_context, const Hash128& model_digest) {
  KeyHasher h;
  h.Str(kPathKeySchema);
  h.U64(model_digest.hi).U64(model_digest.lo);
  h.Bool(use_context);
  Fields(h, cfg);
  h.I32(scenario.num_links);

  // The lot-link and flow section (layout in wire.h), serialized into one
  // buffer and absorbed by a single Bytes call. MurmurHash3's stream does
  // not depend on how the bytes are split across calls, so this equals
  // absorbing each field on its own. Lot node/link numbering is
  // deterministic in construction order, so hashing every link pins rates,
  // delays, and wiring.
  const Topology& topo = scenario.lot->topo();
  const std::size_t num_links = topo.num_links();
  std::size_t size = 8 + kPathKeyLinkBytes * num_links + 8;
  for (const Flow& f : scenario.flows) size += kPathKeyFlowBytes + 4 * f.path.size();
  thread_local std::vector<unsigned char> buf;
  buf.resize(size);

  RawWriter w{buf.data()};
  w.Put<std::uint64_t>(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    w.Put<std::int32_t>(link.src);
    w.Put<std::int32_t>(link.dst);
    w.Put<double>(link.rate);
    w.Put<std::int64_t>(link.delay);
  }
  w.Put<std::uint64_t>(scenario.flows.size());
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const Flow& f = scenario.flows[i];
    w.Put<std::int32_t>(f.src);
    w.Put<std::int32_t>(f.dst);
    w.Put<std::int64_t>(f.size);
    w.Put<std::int64_t>(f.arrival);
    w.Put<std::uint8_t>(f.priority);
    w.Put<std::uint8_t>(scenario.is_fg[i] != 0 ? 1 : 0);
    w.Put<std::int32_t>(scenario.entry_hop[i]);
    w.Put<std::int32_t>(scenario.exit_hop[i]);
    w.Put<std::uint64_t>(f.path.size());
    static_assert(sizeof(LinkId) == 4, "route hops are hashed as i32");
    if (!f.path.empty()) {
      std::memcpy(w.p, f.path.data(), 4 * f.path.size());
      w.p += 4 * f.path.size();
    }
  }
  h.Bytes(buf.data(), size);
  return h.Finish();
}

}  // namespace m3::serve
