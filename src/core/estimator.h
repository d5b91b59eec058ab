// End-to-end m3 (§3.1): decompose the network into paths, sample them by
// foreground flow count, run flowSim + the ML model on each, and aggregate
// into network-wide slowdown distributions. Also provides the "ns-3-path"
// estimator (packet-level simulation of each sampled path, §2.1) used for
// the paper's decomposition-error ablations.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/model.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/sampling.h"
#include "pktsim/config.h"
#include "util/status.h"

namespace m3 {

struct M3Options {
  int num_paths = 100;       // paper: 500 bounds p99 error to ~10% (Fig. 5)
  std::uint64_t seed = 1;
  bool use_context = true;   // Fig. 16 ablation switch
  unsigned num_threads = 0;  // path-level parallelism (0 = hardware)

  // --- resilience ---
  // strict: the first path fault cancels the query and is surfaced as a
  // non-OK NetworkEstimate::status instead of being degraded around.
  bool strict = false;
  // Wall-clock budget for the whole query; 0 = unbounded. When it expires,
  // remaining paths are cooperatively cancelled and the partial estimate is
  // returned with status kDeadlineExceeded.
  double deadline_seconds = 0.0;
  // Attempts of the primary estimator per path before degrading (2 = one
  // retry, the default degradation ladder).
  int max_attempts = 2;

  // --- distributed serving ---
  // When non-null, only these sample slots (positions in the deterministic
  // SamplePaths order, each in [0, num_paths)) are estimated; every other
  // slot is skipped outright — zero bucket counts and absent from the
  // degradation report, unlike a drop. NetworkEstimate::paths keeps full
  // num_paths length, so a scatter-gather front-end can merge disjoint slot
  // sets from different shards positionally and re-aggregate. Duplicate or
  // out-of-range slots are rejected as kInvalidArgument. Not owned; must
  // outlive the call.
  const std::vector<std::uint32_t>* sample_slots = nullptr;
};

/// Answer-quality accounting for one estimation run. Every sampled path
/// lands in exactly one of ok / degraded / dropped; `paths_retried` counts
/// paths that needed more than one primary attempt (whatever the outcome).
struct DegradationReport {
  int paths_ok = 0;        // primary estimator produced the estimate
  int paths_cached = 0;    // always 0: no per-path reuse; kept for the wire format
  int paths_retried = 0;   // needed >= 1 retry (may still be ok)
  int paths_degraded = 0;  // fell back to the flowSim-only estimate
  int paths_dropped = 0;   // no estimate; aggregation reweights around them

  // Per-class counts of failed attempts (an attempt is one primary or
  // fallback execution of a path estimator).
  int errors_exception = 0;  // a path worker threw
  int errors_nonfinite = 0;  // model forward produced NaN/inf outputs
  int errors_deadline = 0;   // path cancelled by the wall-clock budget
  int errors_validation = 0; // inputs rejected before any compute

  // Non-finite or non-positive slowdown values clamped to the 1.0 floor by
  // the aggregation guard (accepted estimates only; a clamp never poisons
  // combined_pct).
  long long clamped_values = 0;

  // First failure observed (lowest path index), as "path 12: INTERNAL: ...".
  std::string first_error;

  // Brownout attribution (serving overload control, DESIGN.md §13): level 0
  // means full quality; level 1 means the path sample was reduced; level 2
  // means flowSim substituted for the model. `paths_brownout` counts paths
  // whose quality the brownout reduced (the skipped sample slots at level
  // 1; every estimated path at level 2). A browned-out answer is never
  // silent: Degraded() is true and the serving layer forces kDegraded.
  int brownout_level = 0;
  int paths_brownout = 0;

  bool Degraded() const {
    return paths_degraded > 0 || paths_dropped > 0 || clamped_values > 0 ||
           brownout_level > 0 || paths_brownout > 0;
  }
  /// One-line summary, e.g. "paths: 98 ok, 1 retried, 1 degraded, 1 dropped
  /// (2 exceptions, 0 non-finite, 1 deadline); 0 values clamped".
  std::string ToString() const;
};

struct NetworkEstimate {
  std::vector<PathEstimate> paths;
  std::array<std::vector<double>, kNumOutputBuckets> bucket_pct;  // 100 each
  std::array<double, kNumOutputBuckets> total_counts{};
  std::vector<double> combined_pct;  // network-wide mixture, 100 points
  double wall_seconds = 0.0;

  // kOk: full-quality answer. kDegraded / kDeadlineExceeded: a populated
  // partial answer; see `degradation` for what was lost. kInvalidArgument:
  // inputs rejected, no compute ran. In strict mode, the first path fault's
  // own code.
  Status status;
  DegradationReport degradation;

  double CombinedP99() const { return combined_pct.empty() ? 0.0 : combined_pct[98]; }
  std::array<double, kNumOutputBuckets> BucketP99() const;
};

/// Full m3 pipeline with a trained model.
NetworkEstimate RunM3(const Topology& topo, const std::vector<Flow>& flows,
                      const NetConfig& cfg, const M3Model& model, const M3Options& opts);

/// ns-3-path: identical sampling/aggregation, but each path is simulated at
/// packet level (the decomposition-only upper bound on m3's accuracy).
NetworkEstimate RunNs3Path(const Topology& topo, const std::vector<Flow>& flows,
                           const NetConfig& cfg, const M3Options& opts);

/// flowSim-only variant (no ML correction): the Fig. 16 baseline.
NetworkEstimate RunFlowSimOnly(const Topology& topo, const std::vector<Flow>& flows,
                               const NetConfig& cfg, const M3Options& opts);

/// Ground-truth network-wide distribution from full packet simulation
/// results (for comparisons): bucket percentiles + combined percentiles.
NetworkEstimate SummarizeGroundTruth(const std::vector<FlowResult>& results);

/// Aggregation guard: clamps non-finite or non-positive slowdown values in
/// the populated buckets of `paths` to the 1.0 floor so a stray NaN can
/// never poison combined_pct. Finite values in (0, 1) pass through: flowSim
/// emits slowdowns a few ulps below 1.0 (fct/ideal rounding), and clamping
/// those would break bitwise reproducibility of fault-free runs. Returns
/// the number of values clamped. Called by the pipeline before aggregation;
/// exposed for tests.
long long ClampPathEstimates(std::vector<PathEstimate>& paths);

}  // namespace m3
