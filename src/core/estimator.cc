#include "core/estimator.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <optional>

#include "core/dataset.h"
#include "core/validate.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace m3 {
namespace {

using Clock = std::chrono::steady_clock;

// Raised by a path estimator when the model forward emitted NaN/inf raw
// outputs; classified separately from generic exceptions in the report.
class NonFiniteOutput : public std::runtime_error {
 public:
  explicit NonFiniteOutput(int count)
      : std::runtime_error("non-finite model output (" + std::to_string(count) +
                           " of " + std::to_string(kNumOutputBuckets * kNumPercentiles) +
                           " values)") {}
};

std::array<double, kNumOutputBuckets> FgBucketCounts(const PathScenario& scenario) {
  std::array<double, kNumOutputBuckets> counts{};
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    if (scenario.is_fg[i]) {
      counts[static_cast<std::size_t>(OutputBucketOf(scenario.flows[i].size))] += 1.0;
    }
  }
  return counts;
}

PathEstimate FromTarget(const TargetDist& t) {
  PathEstimate pe;
  pe.pct = t.pct;
  pe.counts = t.counts;
  return pe;
}

// Post-success check for estimates built from raw simulator slowdowns (the
// model path reports non-finite raw outputs itself, pre-clamp).
int CountNonFinite(const PathEstimate& pe) {
  int n = 0;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    if (pe.counts[static_cast<std::size_t>(b)] <= 0.0) continue;
    for (int p = 0; p < kNumPercentiles; ++p) {
      if (!std::isfinite(pe.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)])) ++n;
    }
  }
  return n;
}

using PathFn = std::function<PathEstimate(const PathScenario&)>;

// Runs sampling + per-path estimation + aggregation with per-path fault
// isolation. Each path climbs the degradation ladder independently:
// primary attempt -> retry (opts.max_attempts total) -> `fallback` (when
// provided; nullptr means failures drop the path) -> dropped. Dropped paths
// keep zero bucket counts, so aggregation reweights around them.
NetworkEstimate RunPathPipeline(const Topology& topo, const std::vector<Flow>& flows,
                                const NetConfig& cfg, const M3Options& opts,
                                const PathFn& estimate_path, const PathFn& fallback) {
  const auto t0 = Clock::now();
  NetworkEstimate est;

  if (Status v = ValidateEstimatorInputs(topo, flows, cfg, opts); !v.ok()) {
    est.status = v;
    est.degradation.errors_validation = 1;
    est.degradation.first_error = v.ToString();
    est.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return est;
  }

  PathDecomposition decomp(topo, flows);
  Rng rng(opts.seed);
  const std::vector<std::size_t> sample = SamplePaths(decomp, opts.num_paths, rng);
  est.paths.resize(sample.size());

  // Slot filter (distributed serving): `work` lists the sample slots this
  // run estimates — all of them by default, or the caller's subset. The
  // sampling above stays identical either way, so shards given disjoint
  // subsets of the same (seed, num_paths) query reproduce exactly the slots
  // a single host would have computed.
  std::vector<std::size_t> work;
  if (opts.sample_slots != nullptr) {
    std::vector<bool> seen(sample.size(), false);
    work.reserve(opts.sample_slots->size());
    for (std::uint32_t slot : *opts.sample_slots) {
      if (slot >= sample.size() || seen[slot]) {
        est.status = Status::InvalidArgument(
            "sample_slots: " + std::to_string(slot) +
            (slot < sample.size() ? " duplicated" : " out of range [0, " +
                                                        std::to_string(sample.size()) + ")"));
        est.degradation.errors_validation = 1;
        est.degradation.first_error = est.status.ToString();
        est.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
        return est;
      }
      seen[slot] = true;
      work.push_back(slot);
    }
  } else {
    work.resize(sample.size());
    for (std::size_t i = 0; i < work.size(); ++i) work[i] = i;
  }

  // Shared failure bookkeeping. Outcomes are computed lock-free per path;
  // the report is updated under one short lock per path.
  std::mutex mu;
  DegradationReport rep;
  std::size_t first_error_idx = sample.size();
  Status first_error_status;
  enum CancelCause : int { kNone = 0, kStrict = 1, kDeadline = 2 };
  std::atomic<int> cancel{kNone};

  const bool has_deadline = opts.deadline_seconds > 0.0;
  auto past_deadline = [&] {
    return has_deadline &&
           std::chrono::duration<double>(Clock::now() - t0).count() >= opts.deadline_seconds;
  };

  ParallelFor(
      work.size(),
      [&](std::size_t w) {
        const std::size_t i = work[w];
        // Cooperative cancellation: a strict-mode fault or an expired
        // deadline stops remaining paths before they start.
        if (cancel.load(std::memory_order_relaxed) != kNone || past_deadline()) {
          const bool deadline = cancel.load(std::memory_order_relaxed) != kStrict;
          if (deadline) cancel.store(kDeadline, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mu);
          rep.paths_dropped += 1;
          if (deadline) rep.errors_deadline += 1;
          return;
        }

        // Built at most once per path, into this thread's workspace (a
        // thread runs one path body at a time; nested ParallelFor calls
        // from the estimator run inline and build no scenario).
        thread_local PathScenario workspace;
        const PathScenario* scenario = nullptr;
        auto ensure_scenario = [&]() -> const PathScenario& {
          if (scenario == nullptr) {
            BuildPathScenario(topo, flows, decomp, sample[i], &workspace);
            if (Status v = ValidatePathScenario(workspace); !v.ok()) {
              throw std::runtime_error(v.ToString());
            }
            scenario = &workspace;
          }
          return *scenario;
        };

        PathEstimate result{};
        int exceptions = 0, nonfinite = 0;
        Status last_fail;
        auto attempt = [&](const PathFn& fn) {
          try {
            PathEstimate pe = fn(ensure_scenario());
            if (const int bad = CountNonFinite(pe); bad > 0) throw NonFiniteOutput(bad);
            result = pe;
            return true;
          } catch (const NonFiniteOutput& e) {
            nonfinite += 1;
            last_fail = Status::DataLoss(e.what());
          } catch (const std::exception& e) {
            exceptions += 1;
            last_fail = Status::Internal(e.what());
          }
          return false;
        };

        // Per-path reuse: a cache hit bypasses the whole ladder. Hook
        // failures are swallowed — the cache accelerates, it never fails a
        // path (see PathCacheHooks).
        const PathCacheHooks* cache = opts.path_cache;
        std::optional<Hash128> key;
        bool cached = false;
        if (cache != nullptr && cache->key) {
          try {
            key = cache->key(ensure_scenario());
            if (cache->lookup) {
              if (std::optional<PathEstimate> hit = cache->lookup(*key)) {
                result = *hit;
                cached = true;
              }
            }
          } catch (...) {
          }
        }

        bool ok = cached;
        int attempts = 0;
        for (; attempts < opts.max_attempts && !ok; ++attempts) ok = attempt(estimate_path);
        if (ok && !cached && key.has_value() && cache->insert) {
          try {
            cache->insert(*key, result);
          } catch (...) {
          }
        }
        bool degraded = false, dropped = false;
        if (!ok) {
          if (opts.strict) {
            cancel.store(kStrict, std::memory_order_relaxed);
            dropped = true;
          } else if (fallback != nullptr && !past_deadline()) {
            degraded = attempt(fallback);
            dropped = !degraded;
          } else {
            dropped = true;
          }
        }
        est.paths[i] = dropped ? PathEstimate{} : result;

        std::lock_guard<std::mutex> lock(mu);
        rep.paths_ok += ok ? 1 : 0;
        rep.paths_cached += cached ? 1 : 0;
        rep.paths_retried += attempts > 1 ? 1 : 0;
        rep.paths_degraded += degraded ? 1 : 0;
        rep.paths_dropped += dropped ? 1 : 0;
        rep.errors_exception += exceptions;
        rep.errors_nonfinite += nonfinite;
        if (!last_fail.ok() && i < first_error_idx) {
          first_error_idx = i;
          first_error_status = last_fail;
        }
      },
      opts.num_threads);

  if (first_error_idx < sample.size()) {
    rep.first_error = "path " + std::to_string(first_error_idx) + ": " +
                      first_error_status.ToString();
  }

  rep.clamped_values = ClampPathEstimates(est.paths);
  est.bucket_pct = AggregateBuckets(est.paths);
  for (const PathEstimate& pe : est.paths) {
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      est.total_counts[static_cast<std::size_t>(b)] += pe.counts[static_cast<std::size_t>(b)];
    }
  }
  est.combined_pct = CombineBuckets(est.bucket_pct, est.total_counts);

  est.degradation = rep;
  const int cause = cancel.load(std::memory_order_relaxed);
  if (opts.strict && cause == kStrict) {
    est.status = first_error_status.Annotate(
        "strict: path " + std::to_string(first_error_idx) + " failed");
  } else if (cause == kDeadline) {
    est.status = Status::DeadlineExceeded(
        "deadline of " + std::to_string(opts.deadline_seconds) + "s expired; " +
        rep.ToString());
  } else if (rep.Degraded()) {
    est.status = Status::Degraded(rep.ToString());
  }
  est.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return est;
}

}  // namespace

std::string DegradationReport::ToString() const {
  std::string s = "paths: " + std::to_string(paths_ok) + " ok" +
                  (paths_cached > 0 ? " (" + std::to_string(paths_cached) + " cached)"
                                    : std::string()) +
                  ", " +
                  std::to_string(paths_retried) + " retried, " +
                  std::to_string(paths_degraded) + " degraded, " +
                  std::to_string(paths_dropped) + " dropped (" +
                  std::to_string(errors_exception) + " exceptions, " +
                  std::to_string(errors_nonfinite) + " non-finite, " +
                  std::to_string(errors_deadline) + " deadline); " +
                  std::to_string(clamped_values) + " values clamped";
  if (brownout_level > 0 || paths_brownout > 0) {
    s += "; brownout level " + std::to_string(brownout_level) + " (" +
         std::to_string(paths_brownout) + " paths reduced)";
  }
  return s;
}

long long ClampPathEstimates(std::vector<PathEstimate>& paths) {
  long long clamped = 0;
  for (PathEstimate& pe : paths) {
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      if (pe.counts[static_cast<std::size_t>(b)] <= 0.0) continue;
      for (int p = 0; p < kNumPercentiles; ++p) {
        double& v = pe.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
        // flowSim legitimately emits slowdowns a few ulps below 1.0
        // (fct/ideal rounding), so finite values in (0, 1) pass through
        // unchanged — clamping them would break bitwise reproducibility of
        // fault-free runs. Only non-finite and physically impossible
        // (<= 0) values are corrupt.
        if (!std::isfinite(v) || v <= 0.0) {
          v = 1.0;
          ++clamped;
        }
      }
    }
  }
  return clamped;
}

std::array<double, kNumOutputBuckets> NetworkEstimate::BucketP99() const {
  std::array<double, kNumOutputBuckets> out{};
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const auto& pct = bucket_pct[static_cast<std::size_t>(b)];
    if (!pct.empty()) out[static_cast<std::size_t>(b)] = pct[98];
  }
  return out;
}

NetworkEstimate RunM3(const Topology& topo, const std::vector<Flow>& flows,
                      const NetConfig& cfg, M3Model& model, const M3Options& opts) {
  const PathFn primary = [&](const PathScenario& scenario) {
    M3_FAULT_POINT("estimator/path_forward");
    const std::vector<FlowResult> fluid = RunPathFlowSim(scenario);
    const ScenarioFeatures feats = ExtractFeatures(scenario, fluid);
    const ml::Tensor spec = EncodeSpec(cfg, ComputePathSpec(scenario, cfg));
    const ml::Tensor baseline = TargetToTensor(feats.flowsim_fg);
    PathEstimate pe;
    int bad_raw = 0;
    pe.pct = model.Predict(feats.fg_feat, feats.bg_seq, spec, opts.use_context, &baseline,
                           &bad_raw);
    if (bad_raw > 0) throw NonFiniteOutput(bad_raw);
    pe.counts = FgBucketCounts(scenario);
    return pe;
  };
  // Degraded mode: the flowSim-only estimate (no ML correction) for this
  // path — strictly worse accuracy, but always an answer.
  const PathFn fallback = [&](const PathScenario& scenario) {
    const std::vector<FlowResult> res = RunPathFlowSim(scenario);
    return FromTarget(BuildTarget(ForegroundSlowdowns(scenario, res)));
  };
  return RunPathPipeline(topo, flows, cfg, opts, primary, fallback);
}

NetworkEstimate RunNs3Path(const Topology& topo, const std::vector<Flow>& flows,
                           const NetConfig& cfg, const M3Options& opts) {
  const PathFn primary = [&](const PathScenario& scenario) {
    M3_FAULT_POINT("estimator/path_pktsim");
    const std::vector<FlowResult> res = RunPathPktSim(scenario, cfg);
    return FromTarget(BuildTarget(ForegroundSlowdowns(scenario, res)));
  };
  const PathFn fallback = [&](const PathScenario& scenario) {
    const std::vector<FlowResult> res = RunPathFlowSim(scenario);
    return FromTarget(BuildTarget(ForegroundSlowdowns(scenario, res)));
  };
  return RunPathPipeline(topo, flows, cfg, opts, primary, fallback);
}

NetworkEstimate RunFlowSimOnly(const Topology& topo, const std::vector<Flow>& flows,
                               const NetConfig& cfg, const M3Options& opts) {
  const PathFn primary = [&](const PathScenario& scenario) {
    const std::vector<FlowResult> res = RunPathFlowSim(scenario);
    return FromTarget(BuildTarget(ForegroundSlowdowns(scenario, res)));
  };
  // flowSim is itself the degradation floor: no further fallback.
  return RunPathPipeline(topo, flows, cfg, opts, primary, nullptr);
}

NetworkEstimate SummarizeGroundTruth(const std::vector<FlowResult>& results) {
  NetworkEstimate est;
  const auto buckets = BucketSlowdowns(results);
  std::vector<std::pair<double, double>> all;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    auto sorted = buckets[static_cast<std::size_t>(b)];
    est.total_counts[static_cast<std::size_t>(b)] = static_cast<double>(sorted.size());
    est.bucket_pct[static_cast<std::size_t>(b)] = PercentileVector100(std::move(sorted));
  }
  std::vector<double> slowdowns;
  slowdowns.reserve(results.size());
  for (const FlowResult& r : results) slowdowns.push_back(r.slowdown);
  est.combined_pct = PercentileVector100(std::move(slowdowns));
  return est;
}

}  // namespace m3
