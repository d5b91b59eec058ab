#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "pathdecomp/path_topology.h"

namespace m3::serve {
namespace {

// Cache-key schema tags: bump when the hashed field set changes so old and
// new processes can never alias keys. v2 query key: + topology shape.
constexpr const char* kQueryKeySchema = "m3d/query-key/v2";
constexpr const char* kPathKeySchema = "m3d/path-key/v1";
// Bytes per lot link (src, dst: i32; rate: f64; delay: i64) and per flow
// before its route (src, dst: i32; size, arrival: i64; priority, is_fg: u8;
// entry, exit hop: i32; route length: u64) in the path key (wire.h).
constexpr std::size_t kPathKeyLinkBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kPathKeyFlowBytes = 4 + 4 + 8 + 8 + 1 + 1 + 4 + 4 + 8;

// Little-endian field writer over a buffer sized up front (no bounds checks:
// PathCacheKey computes the exact size, QueryCacheKey fills a fixed chunk).
struct KeyBytes {
  unsigned char* p;
  template <typename T>
  void Put(T v) {
    std::memcpy(p, &v, sizeof(T));
    p += sizeof(T);
  }
};

// Upper bound on decoded vector lengths (percentile vectors are 100 wide;
// this is pure overread/OOM protection).
constexpr std::uint64_t kMaxVecLen = 1u << 20;
constexpr std::uint64_t kMaxStrLen = 1u << 20;
// Bytes per wire flow record (id, src, dst: i32; size, arrival: i64; prio: u8).
constexpr std::uint64_t kWireFlowBytes = 3 * 4 + 2 * 8 + 1;
// Bytes per slot estimate (slot u32 + 4x100 pct doubles + 4 count doubles).
constexpr std::uint64_t kSlotEstimateBytes =
    4 + std::uint64_t{kNumOutputBuckets} * kNumPercentiles * 8 + kNumOutputBuckets * 8;
// Minimum bytes per shard report (empty shard string: u64 len + 6 u32 + bool).
constexpr std::uint64_t kMinShardReportBytes = 8 + 6 * 4 + 1;

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Raw(&v, 4); }
  void U64(std::uint64_t v) { Raw(&v, 8); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    out_.append(s);
  }
  void VecF64(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) F64(d);
  }
  // Metric fields (serve/metrics.h), by member type.
  void Field(std::uint64_t v) { U64(v); }
  void Field(std::uint32_t v) { U32(v); }
  void Field(bool v) { Bool(v); }
  void Field(const std::string& v) { Str(v); }
  template <typename T, std::size_t N>
  void Field(const std::array<T, N>& a) {
    for (const T& v : a) Field(v);
  }
  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);  // little-endian hosts
  }
  std::string out_;
};

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  Status U8(std::uint8_t* v) {
    M3_RETURN_IF_ERROR(Need(1));
    *v = static_cast<std::uint8_t>(s_[pos_++]);
    return Status::Ok();
  }
  Status U32(std::uint32_t* v) { return Raw(v, 4); }
  Status U64(std::uint64_t* v) { return Raw(v, 8); }
  Status I32(std::int32_t* v) { return Raw(v, 4); }
  Status I64(std::int64_t* v) { return Raw(v, 8); }
  Status Bool(bool* v) {
    std::uint8_t b;
    M3_RETURN_IF_ERROR(U8(&b));
    if (b > 1) return Status::InvalidArgument("wire: bool byte " + std::to_string(b));
    *v = b != 0;
    return Status::Ok();
  }
  Status F64(double* v) {
    std::uint64_t bits;
    M3_RETURN_IF_ERROR(U64(&bits));
    std::memcpy(v, &bits, 8);
    return Status::Ok();
  }
  Status Str(std::string* v) {
    std::uint64_t len;
    M3_RETURN_IF_ERROR(U64(&len));
    if (len > kMaxStrLen) {
      return Status::InvalidArgument("wire: string length " + std::to_string(len));
    }
    M3_RETURN_IF_ERROR(Need(len));
    v->assign(s_, pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return Status::Ok();
  }
  Status VecF64(std::vector<double>* v) {
    std::uint64_t len;
    M3_RETURN_IF_ERROR(U64(&len));
    if (len > kMaxVecLen) {
      return Status::InvalidArgument("wire: vector length " + std::to_string(len));
    }
    M3_RETURN_IF_ERROR(Need(len * 8));
    v->resize(static_cast<std::size_t>(len));
    for (double& d : *v) M3_RETURN_IF_ERROR(F64(&d));
    return Status::Ok();
  }
  Status Field(std::uint64_t* v) { return U64(v); }
  Status Field(std::uint32_t* v) { return U32(v); }
  Status Field(bool* v) { return Bool(v); }
  Status Field(std::string* v) { return Str(v); }
  template <typename T, std::size_t N>
  Status Field(std::array<T, N>* a) {
    for (T& v : *a) M3_RETURN_IF_ERROR(Field(&v));
    return Status::Ok();
  }

  std::size_t remaining() const { return s_.size() - pos_; }

  Status ExpectEnd() const {
    if (pos_ != s_.size()) {
      return Status::InvalidArgument("wire: " + std::to_string(remaining()) +
                                     " trailing bytes after message");
    }
    return Status::Ok();
  }

 private:
  Status Need(std::uint64_t n) const {
    if (n > remaining()) {
      return Status::DataLoss("wire: truncated message (need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(pos_) + ", have " +
                              std::to_string(remaining()) + ")");
    }
    return Status::Ok();
  }
  Status Raw(void* p, std::size_t n) {
    M3_RETURN_IF_ERROR(Need(n));
    std::memcpy(p, s_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Every payload leads with the one version this build speaks.
Writer Versioned() {
  Writer w;
  w.U32(kWireVersion);
  return w;
}

Status ReadVersion(Reader& r) {
  std::uint32_t v;
  M3_RETURN_IF_ERROR(r.U32(&v));
  if (v != kWireVersion) {
    return Status::InvalidArgument("wire: protocol version " + std::to_string(v) +
                                   " (this build speaks only " +
                                   std::to_string(kWireVersion) + ")");
  }
  return Status::Ok();
}

void EncodeNetConfig(Writer& w, const NetConfig& cfg) {
  w.U8(static_cast<std::uint8_t>(cfg.cc));
  w.I64(cfg.init_window);
  w.I64(cfg.buffer);
  w.Bool(cfg.pfc);
  w.I64(cfg.dctcp_k);
  w.I64(cfg.dcqcn_kmin);
  w.I64(cfg.dcqcn_kmax);
  w.F64(cfg.hpcc_eta);
  w.F64(cfg.hpcc_rate_ai_gbps);
  w.I64(cfg.timely_tlow);
  w.I64(cfg.timely_thigh);
  w.I64(cfg.mtu);
  w.I64(cfg.hdr);
  w.U64(cfg.seed);
}

Status DecodeNetConfig(Reader& r, NetConfig* cfg) {
  std::uint8_t cc;
  M3_RETURN_IF_ERROR(r.U8(&cc));
  if (cc >= kNumCcTypes) {
    return Status::InvalidArgument("wire: cc protocol " + std::to_string(cc));
  }
  cfg->cc = static_cast<CcType>(cc);
  M3_RETURN_IF_ERROR(r.I64(&cfg->init_window));
  M3_RETURN_IF_ERROR(r.I64(&cfg->buffer));
  M3_RETURN_IF_ERROR(r.Bool(&cfg->pfc));
  M3_RETURN_IF_ERROR(r.I64(&cfg->dctcp_k));
  M3_RETURN_IF_ERROR(r.I64(&cfg->dcqcn_kmin));
  M3_RETURN_IF_ERROR(r.I64(&cfg->dcqcn_kmax));
  M3_RETURN_IF_ERROR(r.F64(&cfg->hpcc_eta));
  M3_RETURN_IF_ERROR(r.F64(&cfg->hpcc_rate_ai_gbps));
  M3_RETURN_IF_ERROR(r.I64(&cfg->timely_tlow));
  M3_RETURN_IF_ERROR(r.I64(&cfg->timely_thigh));
  M3_RETURN_IF_ERROR(r.I64(&cfg->mtu));
  M3_RETURN_IF_ERROR(r.I64(&cfg->hdr));
  M3_RETURN_IF_ERROR(r.U64(&cfg->seed));
  return Status::Ok();
}

void HashNetConfig(Hasher& h, const NetConfig& cfg) {
  h.U8(static_cast<std::uint8_t>(cfg.cc));
  h.I64(cfg.init_window);
  h.I64(cfg.buffer);
  h.Bool(cfg.pfc);
  h.I64(cfg.dctcp_k);
  h.I64(cfg.dcqcn_kmin);
  h.I64(cfg.dcqcn_kmax);
  h.F64(cfg.hpcc_eta);
  h.F64(cfg.hpcc_rate_ai_gbps);
  h.I64(cfg.timely_tlow);
  h.I64(cfg.timely_thigh);
  h.I64(cfg.mtu);
  h.I64(cfg.hdr);
  h.U64(cfg.seed);
}

void EncodeTopo(Writer& w, const WireTopo& t) {
  w.I32(t.pods);
  w.I32(t.racks_per_pod);
  w.I32(t.hosts_per_rack);
  w.I32(t.fabric_per_pod);
  w.I32(t.spines_per_plane);
}

Status DecodeTopo(Reader& r, WireTopo* t) {
  M3_RETURN_IF_ERROR(r.I32(&t->pods));
  M3_RETURN_IF_ERROR(r.I32(&t->racks_per_pod));
  M3_RETURN_IF_ERROR(r.I32(&t->hosts_per_rack));
  M3_RETURN_IF_ERROR(r.I32(&t->fabric_per_pod));
  M3_RETURN_IF_ERROR(r.I32(&t->spines_per_plane));
  return Status::Ok();
}

void EncodePathEstimate(Writer& w, const PathEstimate& pe) {
  for (const auto& bucket : pe.pct) {
    for (double v : bucket) w.F64(v);
  }
  for (double c : pe.counts) w.F64(c);
}

Status DecodePathEstimate(Reader& r, PathEstimate* pe) {
  for (auto& bucket : pe->pct) {
    for (double& v : bucket) M3_RETURN_IF_ERROR(r.F64(&v));
  }
  for (double& c : pe->counts) M3_RETURN_IF_ERROR(r.F64(&c));
  return Status::Ok();
}

void EncodeShardReports(Writer& w, const std::vector<ShardReportWire>& shards) {
  w.U64(shards.size());
  for (const ShardReportWire& s : shards) {
    w.Str(s.shard);
    w.U32(s.slots_assigned);
    w.U32(s.slots_ok);
    w.U32(s.slots_fallback);
    w.U32(s.slots_dropped);
    w.U32(s.retries);
    w.U32(s.hedges);
    w.Bool(s.breaker_open);
  }
}

Status DecodeShardReports(Reader& r, std::vector<ShardReportWire>* shards) {
  std::uint64_t n;
  M3_RETURN_IF_ERROR(r.U64(&n));
  // Division form so a hostile 64-bit count cannot wrap past the check.
  if (n > r.remaining() / kMinShardReportBytes) {
    return Status::DataLoss("wire: shard report count " + std::to_string(n) +
                            " exceeds the remaining payload");
  }
  shards->resize(static_cast<std::size_t>(n));
  for (ShardReportWire& s : *shards) {
    M3_RETURN_IF_ERROR(r.Str(&s.shard));
    M3_RETURN_IF_ERROR(r.U32(&s.slots_assigned));
    M3_RETURN_IF_ERROR(r.U32(&s.slots_ok));
    M3_RETURN_IF_ERROR(r.U32(&s.slots_fallback));
    M3_RETURN_IF_ERROR(r.U32(&s.slots_dropped));
    M3_RETURN_IF_ERROR(r.U32(&s.retries));
    M3_RETURN_IF_ERROR(r.U32(&s.hedges));
    M3_RETURN_IF_ERROR(r.Bool(&s.breaker_open));
  }
  return Status::Ok();
}

void EncodeStatus(Writer& w, const Status& st) {
  w.I32(static_cast<std::int32_t>(st.code()));
  w.Str(st.message());
}

Status DecodeStatus(Reader& r, Status* st) {
  std::int32_t code;
  std::string msg;
  M3_RETURN_IF_ERROR(r.I32(&code));
  M3_RETURN_IF_ERROR(r.Str(&msg));
  if (code < 0 || code >= kNumStatusCodes) {
    return Status::InvalidArgument("wire: status code " + std::to_string(code));
  }
  *st = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::Ok();
}

void EncodeDegradation(Writer& w, const DegradationReport& d) {
  w.I32(d.paths_ok);
  w.I32(d.paths_cached);
  w.I32(d.paths_retried);
  w.I32(d.paths_degraded);
  w.I32(d.paths_dropped);
  w.I32(d.errors_exception);
  w.I32(d.errors_nonfinite);
  w.I32(d.errors_deadline);
  w.I32(d.errors_validation);
  w.I64(d.clamped_values);
  w.Str(d.first_error);
}

Status DecodeDegradation(Reader& r, DegradationReport* d) {
  M3_RETURN_IF_ERROR(r.I32(&d->paths_ok));
  M3_RETURN_IF_ERROR(r.I32(&d->paths_cached));
  M3_RETURN_IF_ERROR(r.I32(&d->paths_retried));
  M3_RETURN_IF_ERROR(r.I32(&d->paths_degraded));
  M3_RETURN_IF_ERROR(r.I32(&d->paths_dropped));
  M3_RETURN_IF_ERROR(r.I32(&d->errors_exception));
  M3_RETURN_IF_ERROR(r.I32(&d->errors_nonfinite));
  M3_RETURN_IF_ERROR(r.I32(&d->errors_deadline));
  M3_RETURN_IF_ERROR(r.I32(&d->errors_validation));
  std::int64_t clamped = 0;  // DegradationReport uses `long long`
  M3_RETURN_IF_ERROR(r.I64(&clamped));
  d->clamped_values = clamped;
  M3_RETURN_IF_ERROR(r.Str(&d->first_error));
  return Status::Ok();
}

// The stats schema is the metric list (serve/metrics.h): fields go out in
// list order, then the shard rows. Neither function names a field.
void EncodeShardRow(Writer& w, const ShardHealthWire& row) {
  ForEachShardField(row, [&w](const MetricDesc&, const auto& v) { w.Field(v); });
}

void EncodeStatsBody(Writer& w, const ServerStatsWire& s) {
  ForEachMetric(s, [&w](const MetricDesc&, const auto& v) { w.Field(v); });
  w.U64(s.shards.size());
  for (const ShardHealthWire& row : s.shards) EncodeShardRow(w, row);
}

Status DecodeStatsBody(Reader& r, ServerStatsWire* s) {
  Status st;
  const auto get = [&r, &st](const MetricDesc&, auto& v) {
    if (st.ok()) st = r.Field(&v);
  };
  ForEachMetric(*s, get);
  M3_RETURN_IF_ERROR(st);
  std::uint64_t n;
  M3_RETURN_IF_ERROR(r.U64(&n));
  // Division form against the smallest row (an empty address).
  static const std::uint64_t kMinShardHealthBytes = [] {
    Writer w;
    EncodeShardRow(w, ShardHealthWire{});
    return static_cast<std::uint64_t>(w.Take().size());
  }();
  if (n > r.remaining() / kMinShardHealthBytes) {
    return Status::DataLoss("wire: shard health count " + std::to_string(n) +
                            " exceeds the remaining payload");
  }
  s->shards.resize(static_cast<std::size_t>(n));
  for (ShardHealthWire& row : s->shards) {
    ForEachShardField(row, get);
    M3_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeQueryRequest(const QueryRequest& req) {
  Writer w = Versioned();
  w.F64(req.oversub);
  EncodeTopo(w, req.topo);
  EncodeNetConfig(w, req.cfg);
  w.I32(req.num_paths);
  w.U64(req.seed);
  w.Bool(req.use_context);
  w.Bool(req.strict);
  w.F64(req.deadline_seconds);
  w.I32(req.max_attempts);
  w.Bool(req.no_cache);
  w.U8(req.priority);
  w.U64(req.flows.size());
  for (const WireFlow& f : req.flows) {
    w.I32(f.id);
    w.I32(f.src_host);
    w.I32(f.dst_host);
    w.I64(f.size);
    w.I64(f.arrival);
    w.U8(f.priority);
  }
  return w.Take();
}

StatusOr<QueryRequest> DecodeQueryRequest(const std::string& payload) {
  Reader r(payload);
  QueryRequest req;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  M3_RETURN_IF_ERROR(r.F64(&req.oversub));
  M3_RETURN_IF_ERROR(DecodeTopo(r, &req.topo));
  M3_RETURN_IF_ERROR(DecodeNetConfig(r, &req.cfg));
  M3_RETURN_IF_ERROR(r.I32(&req.num_paths));
  M3_RETURN_IF_ERROR(r.U64(&req.seed));
  M3_RETURN_IF_ERROR(r.Bool(&req.use_context));
  M3_RETURN_IF_ERROR(r.Bool(&req.strict));
  M3_RETURN_IF_ERROR(r.F64(&req.deadline_seconds));
  M3_RETURN_IF_ERROR(r.I32(&req.max_attempts));
  M3_RETURN_IF_ERROR(r.Bool(&req.no_cache));
  M3_RETURN_IF_ERROR(r.U8(&req.priority));
  if (req.priority >= kNumPriorityClasses) {
    return Status::InvalidArgument("wire: priority class " + std::to_string(req.priority));
  }
  std::uint64_t n;
  M3_RETURN_IF_ERROR(r.U64(&n));
  // Division form: `n * kWireFlowBytes` can wrap for a hostile 64-bit count
  // (the record size is odd, so every product value is reachable mod 2^64),
  // which would let the resize below throw past the bounds check.
  if (n > r.remaining() / kWireFlowBytes) {
    return Status::DataLoss("wire: flow count " + std::to_string(n) +
                            " exceeds the remaining payload");
  }
  req.flows.resize(static_cast<std::size_t>(n));
  for (WireFlow& f : req.flows) {
    M3_RETURN_IF_ERROR(r.I32(&f.id));
    M3_RETURN_IF_ERROR(r.I32(&f.src_host));
    M3_RETURN_IF_ERROR(r.I32(&f.dst_host));
    M3_RETURN_IF_ERROR(r.I64(&f.size));
    M3_RETURN_IF_ERROR(r.I64(&f.arrival));
    M3_RETURN_IF_ERROR(r.U8(&f.priority));
  }
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

std::string EncodeQueryResponse(const QueryResponse& resp) {
  Writer w = Versioned();
  EncodeStatus(w, resp.status);
  for (const auto& pct : resp.bucket_pct) w.VecF64(pct);
  for (double c : resp.total_counts) w.F64(c);
  w.VecF64(resp.combined_pct);
  w.F64(resp.wall_seconds);
  EncodeDegradation(w, resp.degradation);
  w.U64(resp.model_version);
  w.U32(resp.model_crc);
  w.Bool(resp.query_cache_hit);
  w.U8(resp.shed_reason);
  EncodeShardReports(w, resp.shards);
  return w.Take();
}

StatusOr<QueryResponse> DecodeQueryResponse(const std::string& payload) {
  Reader r(payload);
  QueryResponse resp;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  M3_RETURN_IF_ERROR(DecodeStatus(r, &resp.status));
  for (auto& pct : resp.bucket_pct) M3_RETURN_IF_ERROR(r.VecF64(&pct));
  for (double& c : resp.total_counts) M3_RETURN_IF_ERROR(r.F64(&c));
  M3_RETURN_IF_ERROR(r.VecF64(&resp.combined_pct));
  M3_RETURN_IF_ERROR(r.F64(&resp.wall_seconds));
  M3_RETURN_IF_ERROR(DecodeDegradation(r, &resp.degradation));
  M3_RETURN_IF_ERROR(r.U64(&resp.model_version));
  M3_RETURN_IF_ERROR(r.U32(&resp.model_crc));
  M3_RETURN_IF_ERROR(r.Bool(&resp.query_cache_hit));
  M3_RETURN_IF_ERROR(r.U8(&resp.shed_reason));
  if (resp.shed_reason >= kNumShedReasons) {
    return Status::InvalidArgument("wire: shed reason " + std::to_string(resp.shed_reason));
  }
  M3_RETURN_IF_ERROR(DecodeShardReports(r, &resp.shards));
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return resp;
}

std::string EncodePingRequest() { return Versioned().Take(); }

std::string EncodeStatsRequest() { return Versioned().Take(); }

std::string EncodeStats(const ServerStatsWire& stats) {
  Writer w = Versioned();
  EncodeStatsBody(w, stats);
  return w.Take();
}

StatusOr<ServerStatsWire> DecodeStats(const std::string& payload) {
  Reader r(payload);
  ServerStatsWire s;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  M3_RETURN_IF_ERROR(DecodeStatsBody(r, &s));
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return s;
}

std::string EncodeReloadRequest(const ReloadRequest& req) {
  Writer w = Versioned();
  w.Str(req.checkpoint_path);
  return w.Take();
}

StatusOr<ReloadRequest> DecodeReloadRequest(const std::string& payload) {
  Reader r(payload);
  ReloadRequest req;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  M3_RETURN_IF_ERROR(r.Str(&req.checkpoint_path));
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

std::string EncodeReloadResponse(const ReloadResponse& resp) {
  Writer w = Versioned();
  EncodeStatus(w, resp.status);
  w.U64(resp.model_version);
  w.U32(resp.model_crc);
  return w.Take();
}

StatusOr<ReloadResponse> DecodeReloadResponse(const std::string& payload) {
  Reader r(payload);
  ReloadResponse resp;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  M3_RETURN_IF_ERROR(DecodeStatus(r, &resp.status));
  M3_RETURN_IF_ERROR(r.U64(&resp.model_version));
  M3_RETURN_IF_ERROR(r.U32(&resp.model_crc));
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return resp;
}

std::string EncodePingResponse(const PingResponse& resp) {
  Writer w = Versioned();
  w.Bool(resp.ready);
  w.Bool(resp.worker_mode);
  w.U64(resp.model_version);
  w.U32(resp.workers_alive);
  w.Bool(resp.router_mode);
  w.U32(resp.shards_healthy);
  w.U32(resp.shards_total);
  w.U32(resp.model_crc);
  return w.Take();
}

StatusOr<PingResponse> DecodePingResponse(const std::string& payload) {
  Reader r(payload);
  PingResponse resp;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  M3_RETURN_IF_ERROR(r.Bool(&resp.ready));
  M3_RETURN_IF_ERROR(r.Bool(&resp.worker_mode));
  M3_RETURN_IF_ERROR(r.U64(&resp.model_version));
  M3_RETURN_IF_ERROR(r.U32(&resp.workers_alive));
  M3_RETURN_IF_ERROR(r.Bool(&resp.router_mode));
  M3_RETURN_IF_ERROR(r.U32(&resp.shards_healthy));
  M3_RETURN_IF_ERROR(r.U32(&resp.shards_total));
  M3_RETURN_IF_ERROR(r.U32(&resp.model_crc));
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return resp;
}

std::string EncodeShardQueryRequest(const ShardQueryRequest& req) {
  Writer w = Versioned();
  // The embedded query reuses its own codec (version tag and all) as a
  // length-prefixed blob, so the two stay in lockstep by construction.
  w.Str(EncodeQueryRequest(req.query));
  w.U64(req.slots.size());
  for (std::uint32_t s : req.slots) w.U32(s);
  return w.Take();
}

StatusOr<ShardQueryRequest> DecodeShardQueryRequest(const std::string& payload) {
  Reader r(payload);
  ShardQueryRequest req;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  std::string query_blob;
  M3_RETURN_IF_ERROR(r.Str(&query_blob));
  StatusOr<QueryRequest> q = DecodeQueryRequest(query_blob);
  if (!q.ok()) return q.status().Annotate("wire: embedded shard query");
  req.query = std::move(*q);
  std::uint64_t n;
  M3_RETURN_IF_ERROR(r.U64(&n));
  if (n > r.remaining() / 4) {
    return Status::DataLoss("wire: slot count " + std::to_string(n) +
                            " exceeds the remaining payload");
  }
  req.slots.resize(static_cast<std::size_t>(n));
  for (std::uint32_t& s : req.slots) M3_RETURN_IF_ERROR(r.U32(&s));
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

std::string EncodeShardQueryResponse(const ShardQueryResponse& resp) {
  Writer w = Versioned();
  EncodeStatus(w, resp.status);
  EncodeDegradation(w, resp.degradation);
  w.U64(resp.model_version);
  w.U32(resp.model_crc);
  w.F64(resp.wall_seconds);
  w.U64(resp.estimates.size());
  for (const SlotEstimateWire& se : resp.estimates) {
    w.U32(se.slot);
    EncodePathEstimate(w, se.estimate);
  }
  return w.Take();
}

StatusOr<ShardQueryResponse> DecodeShardQueryResponse(const std::string& payload) {
  Reader r(payload);
  ShardQueryResponse resp;
  M3_RETURN_IF_ERROR(ReadVersion(r));
  M3_RETURN_IF_ERROR(DecodeStatus(r, &resp.status));
  M3_RETURN_IF_ERROR(DecodeDegradation(r, &resp.degradation));
  M3_RETURN_IF_ERROR(r.U64(&resp.model_version));
  M3_RETURN_IF_ERROR(r.U32(&resp.model_crc));
  M3_RETURN_IF_ERROR(r.F64(&resp.wall_seconds));
  std::uint64_t n;
  M3_RETURN_IF_ERROR(r.U64(&n));
  // Division form: the record size is fixed, so a hostile count that would
  // wrap `n * kSlotEstimateBytes` fails here instead of in resize().
  if (n > r.remaining() / kSlotEstimateBytes) {
    return Status::DataLoss("wire: estimate count " + std::to_string(n) +
                            " exceeds the remaining payload");
  }
  resp.estimates.resize(static_cast<std::size_t>(n));
  for (SlotEstimateWire& se : resp.estimates) {
    M3_RETURN_IF_ERROR(r.U32(&se.slot));
    M3_RETURN_IF_ERROR(DecodePathEstimate(r, &se.estimate));
  }
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return resp;
}

Hash128 QueryCacheKey(const QueryRequest& req, const Hash128& model_digest) {
  Hasher h;
  h.Str(kQueryKeySchema);
  h.U64(model_digest.hi).U64(model_digest.lo);
  h.Bool(req.use_context);
  h.F64(req.oversub);
  h.I32(req.topo.pods).I32(req.topo.racks_per_pod).I32(req.topo.hosts_per_rack);
  h.I32(req.topo.fabric_per_pod).I32(req.topo.spines_per_plane);
  HashNetConfig(h, req.cfg);
  h.I32(req.num_paths);
  h.U64(req.seed);
  h.U64(req.flows.size());
  // Each flow's fields, packed as a run of i32 id, src, dst; i64 size,
  // arrival; u8 priority, go through a fixed chunk absorbed by one Bytes call
  // per kChunkFlows flows. The hash does not depend on how the stream is
  // split across calls, so this equals absorbing each field on its own.
  constexpr std::size_t kChunkFlows = 256;
  std::array<unsigned char, kChunkFlows * kWireFlowBytes> chunk;
  for (std::size_t begin = 0; begin < req.flows.size(); begin += kChunkFlows) {
    const std::size_t end = std::min(req.flows.size(), begin + kChunkFlows);
    KeyBytes w{chunk.data()};
    for (std::size_t i = begin; i < end; ++i) {
      const WireFlow& f = req.flows[i];
      w.Put<std::int32_t>(f.id);
      w.Put<std::int32_t>(f.src_host);
      w.Put<std::int32_t>(f.dst_host);
      w.Put<std::int64_t>(f.size);
      w.Put<std::int64_t>(f.arrival);
      w.Put<std::uint8_t>(f.priority);
    }
    h.Bytes(chunk.data(), static_cast<std::size_t>(w.p - chunk.data()));
  }
  return h.Finish();
}

Hash128 PathCacheKey(const PathScenario& scenario, const NetConfig& cfg,
                     bool use_context, const Hash128& model_digest) {
  Hasher h;
  h.Str(kPathKeySchema);
  h.U64(model_digest.hi).U64(model_digest.lo);
  h.Bool(use_context);
  HashNetConfig(h, cfg);
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

  KeyBytes w{buf.data()};
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
