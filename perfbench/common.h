// Shared pieces of the paper-scale benchmark: run configuration, reference
// query inputs, answer checks, resource probes, the metric sink, and the
// in-memory span recorder used by traced runs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using m3::serve::QueryRequest;
using m3::serve::QueryResponse;

double Seconds(Clock::time_point a, Clock::time_point b);
double MsSince(Clock::time_point t0);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool toy = false;       // tiny inputs, for the benchmark's own smoke test
  std::string work_dir;   // this run's checkpoint and sockets
  std::string trace_path; // where a traced run writes its spans
  std::string self_exe;   // path of this binary (shard daemons run it too)
  unsigned nproc = 1;     // usable cores; every pool width derives from it
  int num_flows = 20000;  // reference query: 20k flows
  int num_paths = 100;    // reference query: 100 sampled paths
};

/// The paper's reference query: FatTreeConfig::Small(2.0) (256 hosts),
/// traffic matrix B, WebServer sizes, load 0.5, DCTCP NetConfig defaults.
QueryRequest MakeQuery(const m3::FatTree& ft, int num_flows, int num_paths,
                       std::uint64_t wl_seed);

/// Workload seed of the index-th input of a run (splitmix64 of both), so
/// the same --seed always yields the same inputs.
std::uint64_t WorkloadSeed(std::uint64_t run_seed, std::uint64_t index);
/// Input index reserved for the untimed warm-up query (never timed).
constexpr std::uint64_t kWarmupIndex = 1ull << 40;

/// Bitwise equality of the aggregate answer (bucket percentiles, counts,
/// network-wide percentiles).
bool SameAnswer(const QueryResponse& a, const QueryResponse& b);
bool SameAnswer(const QueryResponse& a, const m3::NetworkEstimate& e);

/// Direct 1-thread RunM3 on the request's inputs (the answer reference).
m3::NetworkEstimate ReferenceRunM3(const QueryRequest& req, m3::M3Model& model);

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

double ProcessCpuSeconds();   // this process, user + system
double ChildrenCpuSeconds();  // reaped children (workers, shards), user + system
double PeakRssMb();           // ru_maxrss of this process
double ChildrenPeakRssMb();   // ru_maxrss over reaped children

/// Operation accounting for one run.
struct Counts {
  long attempted = 0;
  long ok = 0;
  long failed = 0;
  bool correct = true;

  /// Records one operation. `good` = kOk status and every answer check held.
  void Record(bool good) {
    ++attempted;
    good ? ++ok : ++failed;
    if (!good) correct = false;
  }
};

/// Ordered name -> (value, unit) sink; printed as the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  void PrintTable() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One recorded interval. Spans of one query share `query`; `parent` is the
/// id of the span that caused it (-1 for a root).
struct Span {
  int id = 0;
  int parent = -1;
  int query = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span recorder; written out once at the end.
class Tracer {
 public:
  Tracer();
  int Begin(const std::string& name, int parent, int query);
  void End(int id);
  /// Records an interval measured elsewhere (e.g. across a service hook).
  int Add(const std::string& name, int parent, int query, Clock::time_point start,
          Clock::time_point end);
  std::vector<Span> spans() const;

  /// Per-name total and self time (duration minus the children's), ms.
  void PrintSelfTimes() const;
  bool WriteJson(const std::string& path, const std::string& header_json) const;

 private:
  std::int64_t Ns(Clock::time_point t) const;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int parent, int query)
      : t_(t), id_(t.Begin(name, parent, query)) {}
  ~ScopedSpan() { t_.End(id_); }
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// One-line host description printed beside every number: cores, ISA, the
/// resolved kernel tier, the kernel build flag, and the seed.
std::string HostFingerprint(const Config& c);

}  // namespace perfbench
