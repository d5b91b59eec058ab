#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "ml/kernels.h"
#include "serve/exec.h"
#include "util/cpu_features.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace perfbench {

using namespace m3;
using namespace m3::serve;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MsSince(Clock::time_point t0) { return Seconds(t0, Clock::now()) * 1000.0; }

QueryRequest MakeQuery(const FatTree& ft, int num_flows, int num_paths, std::uint64_t wl_seed) {
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec spec;
  spec.num_flows = num_flows;
  spec.max_load = 0.5;
  spec.seed = wl_seed;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, spec).flows;
  QueryRequest req;
  req.oversub = 2.0;  // default topo shape = FatTreeConfig::Small(2.0)
  req.num_paths = num_paths;
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

std::uint64_t WorkloadSeed(std::uint64_t run_seed, std::uint64_t index) {
  std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1;  // never 0
}

namespace {

template <typename A, typename B>
bool BitwiseEqual(const A& a, const B& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

template <typename Bucketed, typename Totals, typename Combined>
bool SameFields(const QueryResponse& a, const Bucketed& bucket_pct, const Totals& total_counts,
                const Combined& combined_pct) {
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    if (!BitwiseEqual(a.bucket_pct[static_cast<std::size_t>(b)],
                      bucket_pct[static_cast<std::size_t>(b)])) {
      return false;
    }
  }
  return BitwiseEqual(a.total_counts, total_counts) && BitwiseEqual(a.combined_pct, combined_pct);
}

double CpuOf(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double MaxRssMbOf(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  return SameFields(a, b.bucket_pct, b.total_counts, b.combined_pct);
}

bool SameAnswer(const QueryResponse& a, const NetworkEstimate& e) {
  return SameFields(a, e.bucket_pct, e.total_counts, e.combined_pct);
}

NetworkEstimate ReferenceRunM3(const QueryRequest& req, M3Model& model) {
  TopoMemo memo;
  StatusOr<std::shared_ptr<const FatTree>> ft = TopoForRequest(req, &memo);
  NetworkEstimate est;
  if (!ft.ok()) {
    est.status = ft.status();
    return est;
  }
  std::vector<Flow> flows;
  if (Status st = BuildRequestFlows(req, **ft, &flows); !st.ok()) {
    est.status = st;
    return est;
  }
  M3Options opts;
  opts.num_paths = req.num_paths;
  opts.seed = req.seed;
  opts.use_context = req.use_context;
  opts.max_attempts = req.max_attempts;
  opts.num_threads = 1;
  return RunM3((*ft)->topo(), flows, req.cfg, model, opts);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double ProcessCpuSeconds() { return CpuOf(RUSAGE_SELF); }
double ChildrenCpuSeconds() { return CpuOf(RUSAGE_CHILDREN); }
double PeakRssMb() { return MaxRssMbOf(RUSAGE_SELF); }
double ChildrenPeakRssMb() { return MaxRssMbOf(RUSAGE_CHILDREN); }

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
  }
  return out + "}";
}

void Metrics::PrintTable() const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("#   %-32s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
}

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 14); }

std::int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

int Tracer::Begin(const std::string& name, int parent, int query) {
  const std::int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{id, parent, query, name, now, now});
  return id;
}

void Tracer::End(int id) {
  const std::int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int Tracer::Add(const std::string& name, int parent, int query, Clock::time_point start,
                Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{id, parent, query, name, Ns(start), Ns(end)});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::PrintSelfTimes() const {
  const std::vector<Span> all = spans();
  std::vector<double> child_ns(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += double(s.end_ns - s.start_ns);
  }
  struct Row {
    long count = 0;
    double total_ms = 0.0, self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : all) {
    Row& r = rows[s.name];
    const double dur = double(s.end_ns - s.start_ns);
    r.count++;
    r.total_ms += dur * 1e-6;
    r.self_ms += std::max(0.0, dur - child_ns[static_cast<std::size_t>(s.id)]) * 1e-6;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.self_ms > b.second.self_ms; });
  std::printf("# span self times (%zu spans):\n", all.size());
  std::printf("#   %-30s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, r] : sorted) {
    std::printf("#   %-30s %8ld %12.3f %12.3f\n", name.c_str(), r.count, r.total_ms, r.self_ms);
  }
}

bool Tracer::WriteJson(const std::string& path, const std::string& header_json) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"header\": %s,\n\"spans\": [\n", header_json.c_str());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\": %d, \"parent\": %d, \"query\": %d, \"name\": \"%s\", "
                 "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64 "}%s\n",
                 s.id, s.parent, s.query, s.name.c_str(), s.start_ns, s.end_ns,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string HostFingerprint(const Config& c) {
  const char* kernel_env = std::getenv("M3_KERNEL");
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "nproc=%u isa='%s' kernel=%s M3_KERNEL=%s M3_KERNEL_NATIVE=%s seed=%llu "
                "workload=%s flows=%d paths=%d",
                c.nproc, CpuFeatureSummary().c_str(),
                ml::kernels::KernelImplName(ml::kernels::GetKernelImpl()),
                kernel_env != nullptr && *kernel_env ? kernel_env : "(unset)",
                PERFBENCH_KERNEL_NATIVE ? "ON" : "OFF",
                static_cast<unsigned long long>(c.seed), c.workload.c_str(), c.num_flows,
                c.num_paths);
  return buf;
}

}  // namespace perfbench
