#include "core/estimator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>

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

// A primary estimator split at the model forward, so that one stacked
// forward serves every path of a query (RunM3; DESIGN.md §8). `begin`
// receives the number of sample slots once the inputs are validated;
// `prepare` is the per-path work before the forward and keeps slot i's
// model inputs; `forward` runs one stacked forward over the listed slots;
// `finish` turns slot i's forward row into its estimate and throws
// NonFiniteOutput on a poisoned row.
struct SplitPrimary {
  std::function<void(std::size_t slots)> begin;
  std::function<void(std::size_t slot, const PathScenario&)> prepare;
  std::function<void(const std::vector<std::size_t>& slots)> forward;
  std::function<PathEstimate(std::size_t slot)> finish;
};

// Builds one path's scenario at most once, into this thread's workspace (a
// thread runs one path body at a time; nested ParallelFor calls from the
// estimator run inline and build no scenario). A build that throws is
// retried by the next get().
class LazyScenario {
 public:
  LazyScenario(const Topology& topo, const std::vector<Flow>& flows,
               const PathDecomposition& decomp, std::size_t path)
      : topo_(topo), flows_(flows), decomp_(decomp), path_(path) {}

  const PathScenario& get() {
    thread_local PathScenario workspace;
    if (!built_) {
      BuildPathScenario(topo_, flows_, decomp_, path_, &workspace);
      if (Status v = ValidatePathScenario(workspace); !v.ok()) {
        throw std::runtime_error(v.ToString());
      }
      built_ = true;
    }
    return workspace;
  }

 private:
  const Topology& topo_;
  const std::vector<Flow>& flows_;
  const PathDecomposition& decomp_;
  std::size_t path_;
  bool built_ = false;
};

// One path's climb up the degradation ladder.
struct PathRun {
  PathEstimate result{};
  int attempts = 0;  // primary attempts started
  int exceptions = 0, nonfinite = 0;
  Status last_fail;
};

// Runs one attempt; a failure is booked in `run` by class.
bool Attempt(PathRun& run, const std::function<void()>& body) {
  try {
    body();
    return true;
  } catch (const NonFiniteOutput& e) {
    run.nonfinite += 1;
    run.last_fail = Status::DataLoss(e.what());
  } catch (const std::exception& e) {
    run.exceptions += 1;
    run.last_fail = Status::Internal(e.what());
  }
  return false;
}

// One attempt of a one-phase estimator on the path's scenario.
bool AttemptEstimate(PathRun& run, const PathFn& fn, LazyScenario& scenario) {
  return Attempt(run, [&] {
    PathEstimate pe = fn(scenario.get());
    if (const int bad = CountNonFinite(pe); bad > 0) throw NonFiniteOutput(bad);
    run.result = pe;
  });
}

// Runs sampling + per-path estimation + aggregation with per-path fault
// isolation. Each path climbs the degradation ladder independently:
// primary attempt -> retry (opts.max_attempts total) -> `fallback` (when
// provided; nullptr means failures drop the path) -> dropped. Dropped paths
// keep zero bucket counts, so aggregation reweights around them.
//
// With `split`, the primary runs in two phases. Phase 1, per path under
// ParallelFor: scenario build and split->prepare, retried in place. Phase
// 2: one split->forward over every prepared path, then a finish step per
// prepared path in work order (path-index order unless opts.sample_slots
// lists slots out of order): split->finish, and on failure a retry of the
// whole one-phase `estimate_path` for that path, the fallback and the
// report.
NetworkEstimate RunPathPipeline(const Topology& topo, const std::vector<Flow>& flows,
                                const NetConfig& cfg, const M3Options& opts,
                                const PathFn& estimate_path, const PathFn& fallback,
                                const SplitPrimary* split = nullptr) {
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
  std::size_t strict_w = work.size();  // first work item that failed a strict query
  enum CancelCause : int { kNone = 0, kStrict = 1, kDeadline = 2 };
  std::atomic<int> cancel{kNone};

  const bool has_deadline = opts.deadline_seconds > 0.0;
  auto past_deadline = [&] {
    return has_deadline &&
           std::chrono::duration<double>(Clock::now() - t0).count() >= opts.deadline_seconds;
  };

  auto book = [&](std::size_t i, const PathRun& run, bool ok, bool degraded, bool dropped) {
    std::lock_guard<std::mutex> lock(mu);
    rep.paths_ok += ok ? 1 : 0;
    rep.paths_retried += run.attempts > 1 ? 1 : 0;
    rep.paths_degraded += degraded ? 1 : 0;
    rep.paths_dropped += dropped ? 1 : 0;
    rep.errors_exception += run.exceptions;
    rep.errors_nonfinite += run.nonfinite;
    if (!run.last_fail.ok() && i < first_error_idx) {
      first_error_idx = i;
      first_error_status = run.last_fail;
    }
  };

  // The end of work item w's ladder once its primary attempts are over:
  // on failure, strict cancel, fallback or drop; then the path's report.
  auto complete = [&](std::size_t w, PathRun& run, bool ok, LazyScenario& scenario) {
    const std::size_t i = work[w];
    bool degraded = false, dropped = false;
    if (!ok) {
      if (opts.strict) {
        cancel.store(kStrict, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        strict_w = std::min(strict_w, w);
        dropped = true;
      } else if (fallback != nullptr && !past_deadline()) {
        degraded = AttemptEstimate(run, fallback, scenario);
        dropped = !degraded;
      } else {
        dropped = true;
      }
    }
    est.paths[i] = dropped ? PathEstimate{} : run.result;
    book(i, run, ok, degraded, dropped);
  };

  std::vector<PathRun> runs(work.size());
  // Set when phase 1 prepared the work item: it finishes in phase 2, after
  // the stacked forward.
  std::vector<char> prepared(work.size(), 0);
  if (split != nullptr) split->begin(sample.size());
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
        PathRun& run = runs[w];
        LazyScenario scenario(topo, flows, decomp, sample[i]);
        bool ok = false;
        if (split != nullptr) {
          for (; run.attempts < opts.max_attempts && !ok; ++run.attempts) {
            ok = Attempt(run, [&] { split->prepare(i, scenario.get()); });
          }
          if (ok) {
            prepared[w] = 1;
            return;
          }
        }
        for (; run.attempts < opts.max_attempts && !ok; ++run.attempts) {
          ok = AttemptEstimate(run, estimate_path, scenario);
        }
        complete(w, run, ok, scenario);
      },
      opts.num_threads);

  if (split != nullptr) {
    std::vector<std::size_t> items;  // phase-2 work items, in work order
    std::vector<std::size_t> slots;
    for (std::size_t w = 0; w < work.size(); ++w) {
      if (!prepared[w]) continue;
      items.push_back(w);
      slots.push_back(work[w]);
    }
    Status forward_fail;
    if (!slots.empty()) {
      try {
        split->forward(slots);
      } catch (const std::exception& e) {
        forward_fail = Status::Internal(e.what());
      }
    }
    for (std::size_t w : items) {
      const std::size_t i = work[w];
      PathRun& run = runs[w];
      bool cancelled = false;
      if (cancel.load(std::memory_order_relaxed) == kStrict) {
        std::lock_guard<std::mutex> lock(mu);
        cancelled = strict_w < w;  // an earlier item already failed the query
      }
      if (cancelled) {
        est.paths[i] = PathEstimate{};
        book(i, run, false, false, true);
        continue;
      }
      LazyScenario scenario(topo, flows, decomp, sample[i]);
      bool ok = false;
      if (forward_fail.ok()) {
        ok = Attempt(run, [&] {
          PathEstimate pe = split->finish(i);
          if (const int bad = CountNonFinite(pe); bad > 0) throw NonFiniteOutput(bad);
          run.result = pe;
        });
      } else {
        run.exceptions += 1;
        run.last_fail = forward_fail;
      }
      for (; run.attempts < opts.max_attempts && !ok; ++run.attempts) {
        ok = AttemptEstimate(run, estimate_path, scenario);
      }
      complete(w, run, ok, scenario);
    }
  }

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
  std::string s = "paths: " + std::to_string(paths_ok) + " ok, " +
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
                      const NetConfig& cfg, const M3Model& model, const M3Options& opts) {
  // Everything a path needs from its scenario before the model forward.
  struct PathInputs {
    ml::Tensor fg_feat, bg_seq, spec, baseline;
    std::array<double, kNumOutputBuckets> counts{};
    M3Model::Input model_input() const { return {&fg_feat, &bg_seq, &spec, &baseline}; }
  };
  const auto prepare_inputs = [&](const PathScenario& scenario) {
    M3_FAULT_POINT("estimator/path_forward");
    const std::vector<FlowResult> fluid = RunPathFlowSim(scenario);
    ScenarioFeatures feats = ExtractFeatures(scenario, fluid);
    PathInputs in;
    in.spec = EncodeSpec(cfg, ComputePathSpec(scenario, cfg));
    in.baseline = TargetToTensor(feats.flowsim_fg);
    in.fg_feat = std::move(feats.fg_feat);
    in.bg_seq = std::move(feats.bg_seq);
    in.counts = FgBucketCounts(scenario);
    return in;
  };

  // One path on its own, with a one-row forward (the retry rung).
  const PathFn primary = [&](const PathScenario& scenario) {
    const PathInputs in = prepare_inputs(scenario);
    PathEstimate pe;
    int bad_raw = 0;
    pe.pct = model.Predict(in.fg_feat, in.bg_seq, in.spec, opts.use_context, &in.baseline,
                           &bad_raw);
    if (bad_raw > 0) throw NonFiniteOutput(bad_raw);
    pe.counts = in.counts;
    return pe;
  };

  // The same primary split at the forward: phase 1 keeps each path's
  // inputs, phase 2 stacks them into one forward whose row blocks are
  // spread over the pool (rows are independent, so any split of the batch
  // gives the same bits).
  const int out_dim = model.config().out_dim;
  std::vector<std::optional<PathInputs>> inputs;
  std::vector<std::size_t> row_of;
  std::vector<float> raw;
  SplitPrimary split;
  split.begin = [&](std::size_t slots) {
    inputs.resize(slots);
    row_of.resize(slots);
  };
  split.prepare = [&](std::size_t slot, const PathScenario& scenario) {
    PathInputs in = prepare_inputs(scenario);
    model.CheckInput(in.model_input(), opts.use_context);
    inputs[slot] = std::move(in);
  };
  split.forward = [&](const std::vector<std::size_t>& slots) {
    std::vector<M3Model::Input> batch;
    batch.reserve(slots.size());
    for (std::size_t slot : slots) {
      row_of[slot] = batch.size();
      batch.push_back(inputs[slot]->model_input());
    }
    raw.assign(batch.size() * static_cast<std::size_t>(out_dim), 0.0f);
    unsigned width = ThreadPool::Instance().num_threads();
    if (opts.num_threads != 0) width = std::min(width, opts.num_threads);
    const std::size_t blocks = std::min<std::size_t>(batch.size(), std::max(width, 1u));
    ParallelFor(
        blocks,
        [&](std::size_t b) {
          const std::size_t lo = batch.size() * b / blocks;
          const std::size_t hi = batch.size() * (b + 1) / blocks;
          model.Infer(std::span<const M3Model::Input>(batch).subspan(lo, hi - lo),
                      opts.use_context, raw.data() + lo * static_cast<std::size_t>(out_dim));
        },
        opts.num_threads);
  };
  split.finish = [&](std::size_t slot) {
    ml::Tensor row(1, out_dim);
    std::copy_n(raw.data() + row_of[slot] * static_cast<std::size_t>(out_dim), out_dim,
                row.data());
    if (M3_FAULT_POINT_NAN("model/forward")) {
      // Fault injection: a poisoned forward pass, as a diverged or
      // corrupted model would produce (the same site as in Predict).
      row.Fill(std::numeric_limits<float>::quiet_NaN());
    }
    PathEstimate pe;
    int bad_raw = 0;
    pe.pct = DecodeOutput(row, &bad_raw);
    if (bad_raw > 0) throw NonFiniteOutput(bad_raw);
    pe.counts = inputs[slot]->counts;
    inputs[slot].reset();
    return pe;
  };

  // Degraded mode: the flowSim-only estimate (no ML correction) for this
  // path — strictly worse accuracy, but always an answer.
  const PathFn fallback = [&](const PathScenario& scenario) {
    const std::vector<FlowResult> res = RunPathFlowSim(scenario);
    return FromTarget(BuildTarget(ForegroundSlowdowns(scenario, res)));
  };
  return RunPathPipeline(topo, flows, cfg, opts, primary, fallback, &split);
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
