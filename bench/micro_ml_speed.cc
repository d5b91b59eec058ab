// ML compute-backend microbenchmark: GEMM GFLOP/s for every available
// kernel implementation (naive seed loops, AVX2, AVX-512) on the
// model's hot shapes, the default model's forward pass over 100 paths
// (training graph per path vs graph-free per path vs one stacked
// M3Model::Infer), and end-to-end TrainModel samples/sec for
// data-parallel training vs. the serial seed baseline (reproduced
// in-process via the naive kernel tier + num_threads=1, so the comparison
// does not require checking out the seed revision).
//
// Every trainer row records both the *requested* thread count and the
// *effective* one (requested clamped to the pool width, which is sized
// from M3_NUM_THREADS / hardware_concurrency): on a 1-CPU host a
// "parallel8" row runs with effective_threads=1 and says so, instead of
// implying an 8-way measurement that never happened.
//
// Emits JSON on stdout; the checked-in snapshot lives in
// BENCH_ml_speed.json so the perf trajectory is tracked across PRs.
//
//   ./micro_ml_speed [trainer_samples] [trainer_epochs]
//   ./micro_ml_speed N E naive|avx2|avx512   (profiling mode: one serial
//                                             trainer run)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/model.h"
#include "core/trainer.h"
#include "ml/autograd.h"
#include "ml/kernels.h"
#include "ml/tensor.h"
#include "util/cpu_features.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace m3 {
namespace {

using bench::WallTimer;
using ml::kernels::KernelImpl;

std::vector<KernelImpl> AvailableImpls() {
  std::vector<KernelImpl> impls;
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    if (ml::kernels::KernelImplAvailable(impl)) impls.push_back(impl);
  }
  return impls;
}

// Times `fn` by doubling the repetition count until the measurement
// exceeds `min_seconds`, then returns seconds per repetition.
template <typename Fn>
double TimePerRep(const Fn& fn, double min_seconds = 0.2) {
  for (long reps = 1;; reps *= 2) {
    const WallTimer timer;
    for (long r = 0; r < reps; ++r) fn();
    const double elapsed = timer.Seconds();
    if (elapsed >= min_seconds) return elapsed / static_cast<double>(reps);
  }
}

struct GemmResult {
  std::string name;
  int m, k, n;
  // Parallel arrays: impl -> GFLOP/s (only available impls present).
  std::vector<KernelImpl> impls;
  std::vector<double> gflops;
};

GemmResult BenchGemm(const char* name, int m, int k, int n) {
  Rng rng(2024);
  ml::Tensor a = ml::Tensor::Randn(m, k, rng, 1.0f);
  ml::Tensor b = ml::Tensor::Randn(k, n, rng, 1.0f);
  ml::Tensor c(m, n);
  const double flops = 2.0 * m * k * n;
  GemmResult res;
  res.name = name;
  res.m = m;
  res.k = k;
  res.n = n;
  const KernelImpl prev = ml::kernels::GetKernelImpl();
  for (KernelImpl impl : AvailableImpls()) {
    ml::kernels::SetKernelImpl(impl);
    c.Fill(0.0f);
    // Best-of-5: the container shares its host, so single measurements
    // swing by 30%+; the minimum is the least-disturbed run.
    double sec = 1e30;
    for (int rep = 0; rep < 5; ++rep)
      sec = std::min(sec, TimePerRep([&] {
              ml::kernels::GemmAccum(a.data(), b.data(), c.data(), m, k, n);
            }));
    res.impls.push_back(impl);
    res.gflops.push_back(flops / sec * 1e-9);
  }
  ml::kernels::SetKernelImpl(prev);
  return res;
}

// Forward pass of the default model over 100 paths of 2, 4 and 6 hops
// (420 hop rows), one thread, milliseconds per 100 paths (best of 5):
// the autograd graph per path (the pre-Infer Predict), the graph-free
// Infer one path at a time (today's Predict), and one stacked Infer.
struct ForwardRow {
  KernelImpl impl;
  double graph_ms = 0.0, per_path_ms = 0.0, stacked_ms = 0.0;
};

std::vector<ForwardRow> BenchForwardX100() {
  const M3ModelConfig cfg;
  const M3Model model(cfg);
  M3Model graph_model(cfg);
  Rng rng(5);
  struct Path {
    ml::Tensor fg, bg, spec, baseline;
  };
  std::vector<Path> paths(100);
  std::vector<M3Model::Input> inputs;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Path& p = paths[i];
    p.fg = ml::Tensor::Randn(1, cfg.feat_dim, rng, 1.0f);
    p.bg = ml::Tensor::Randn(2 + 2 * static_cast<int>(i % 3), cfg.feat_dim, rng, 1.0f);
    p.spec = ml::Tensor::Randn(1, cfg.spec_dim, rng, 1.0f);
    p.baseline = ml::Tensor::Randn(1, cfg.out_dim, rng, 0.5f);
    inputs.push_back({&p.fg, &p.bg, &p.spec, &p.baseline});
  }
  std::vector<float> raw(paths.size() * static_cast<std::size_t>(cfg.out_dim));
  const auto best_ms = [](const auto& fn) {
    double sec = 1e30;
    for (int rep = 0; rep < 5; ++rep) sec = std::min(sec, TimePerRep(fn));
    return sec * 1e3;
  };
  std::vector<ForwardRow> rows;
  const KernelImpl prev = ml::kernels::GetKernelImpl();
  for (KernelImpl impl : AvailableImpls()) {
    ml::kernels::SetKernelImpl(impl);
    ForwardRow row;
    row.impl = impl;
    row.graph_ms = best_ms([&] {
      for (const Path& p : paths) {
        ml::Graph g;
        const ml::Var out = g.Add(graph_model.Forward(g, p.fg, p.bg, p.spec), g.Input(p.baseline));
        raw[0] = g.value(out).data()[0];
      }
    });
    row.per_path_ms = best_ms([&] {
      for (const M3Model::Input& in : inputs) model.Infer({&in, 1}, true, raw.data());
    });
    row.stacked_ms = best_ms([&] { model.Infer(inputs, true, raw.data()); });
    rows.push_back(row);
  }
  ml::kernels::SetKernelImpl(prev);
  return rows;
}

std::vector<Sample> SyntheticSamples(const M3ModelConfig& cfg, int count) {
  Rng rng(7);
  std::vector<Sample> samples(static_cast<std::size_t>(count));
  for (auto& s : samples) {
    const int hops = 1 + static_cast<int>(rng.NextBounded(
                             static_cast<std::size_t>(cfg.max_seq)));
    s.fg_feat = ml::Tensor::Randn(1, cfg.feat_dim, rng, 1.0f);
    s.bg_seq = ml::Tensor::Randn(hops, cfg.feat_dim, rng, 1.0f);
    s.spec = ml::Tensor::Randn(1, cfg.spec_dim, rng, 1.0f);
    s.target = ml::Tensor::Randn(1, cfg.out_dim, rng, 0.5f);
    s.baseline = ml::Tensor::Randn(1, cfg.out_dim, rng, 0.5f);
    s.mask = ml::Tensor::Zeros(1, cfg.out_dim);
    s.mask.Fill(1.0f);
  }
  return samples;
}

struct TrainerRow {
  std::string label;
  KernelImpl impl;
  unsigned requested_threads = 0;
  unsigned effective_threads = 0;
  double sec = 0.0;
  double samples_per_sec = 0.0;
};

double RunTrainerOnce(const M3ModelConfig& cfg, const std::vector<Sample>& samples,
                      int epochs, KernelImpl impl, unsigned threads) {
  const KernelImpl prev = ml::kernels::GetKernelImpl();
  ml::kernels::SetKernelImpl(impl);
  M3Model model(cfg);
  TrainOptions opts;
  opts.epochs = epochs;
  opts.batch_size = 16;
  opts.val_frac = 0.1;
  opts.seed = 5;
  opts.num_threads = threads;
  const WallTimer timer;
  TrainModel(model, samples, opts);
  const double sec = timer.Seconds();
  ml::kernels::SetKernelImpl(prev);
  return sec;
}

TrainerRow BenchTrainerRow(const char* label, const M3ModelConfig& cfg,
                           const std::vector<Sample>& samples, int epochs, KernelImpl impl,
                           unsigned threads, int repeats) {
  TrainerRow row;
  row.label = label;
  row.impl = impl;
  row.requested_threads = threads;
  row.effective_threads = std::min(threads, ThreadPool::Instance().num_threads());
  row.sec = 1e30;
  for (int r = 0; r < repeats; ++r)
    row.sec = std::min(row.sec, RunTrainerOnce(cfg, samples, epochs, impl, threads));
  const double samples_per_epoch =
      static_cast<double>(samples.size()) * 0.9;  // 10% val split
  row.samples_per_sec = samples_per_epoch * epochs / row.sec;
  return row;
}

}  // namespace

double BenchTrainerOnly(int num_samples, int epochs, ml::kernels::KernelImpl impl) {
  const M3ModelConfig cfg;
  const std::vector<Sample> samples = SyntheticSamples(cfg, num_samples);
  return RunTrainerOnce(cfg, samples, epochs, impl, /*threads=*/1);
}

}  // namespace m3

int main(int argc, char** argv) {
  const int trainer_samples = argc > 1 ? std::atoi(argv[1]) : 64;
  const int trainer_epochs = argc > 2 ? std::atoi(argv[2]) : 2;

  // Profiling mode: run only the requested trainer configuration so a
  // profiler sees one code path.
  if (argc > 3) {
    m3::ml::kernels::KernelImpl impl;
    if (!m3::ml::kernels::ParseKernelImpl(argv[3], &impl)) {
      std::fprintf(stderr, "unknown impl %s (want naive|avx2|avx512)\n", argv[3]);
      return 1;
    }
    const double sec = m3::BenchTrainerOnly(trainer_samples, trainer_epochs, impl);
    std::printf("{\"trainer_only\": {\"impl\": \"%s\", \"sec\": %.3f}}\n",
                m3::ml::kernels::KernelImplName(impl), sec);
    return 0;
  }

  using m3::ml::kernels::KernelImpl;
  const KernelImpl active = m3::ml::kernels::GetKernelImpl();

  std::vector<m3::GemmResult> gemms;
  // Forward shapes of the model (sequence projection, head layers) plus a
  // square blocked case.
  gemms.push_back(m3::BenchGemm("seq_in_proj", 8, 1010, 96));
  gemms.push_back(m3::BenchGemm("head_fc1", 1, 1127, 256));
  gemms.push_back(m3::BenchGemm("head_fc2", 1, 256, 400));
  gemms.push_back(m3::BenchGemm("square_256", 256, 256, 256));
  const std::vector<m3::ForwardRow> forward = m3::BenchForwardX100();

  const m3::M3ModelConfig cfg;
  const std::vector<m3::Sample> samples = m3::SyntheticSamples(cfg, trainer_samples);
  const int kRepeats = 3;  // best-of-3 per row to damp scheduler noise
  std::vector<m3::TrainerRow> rows;
  rows.push_back(m3::BenchTrainerRow("seed_serial", cfg, samples, trainer_epochs,
                                     KernelImpl::kNaive, 1, kRepeats));
  if (active != KernelImpl::kNaive) {
    std::string label = std::string(m3::ml::kernels::KernelImplName(active)) + "_serial";
    rows.push_back(m3::BenchTrainerRow(label.c_str(), cfg, samples, trainer_epochs, active,
                                       1, kRepeats));
  }
  {
    std::string label = std::string(m3::ml::kernels::KernelImplName(active)) + "_parallel8";
    rows.push_back(m3::BenchTrainerRow(label.c_str(), cfg, samples, trainer_epochs, active,
                                       8, kRepeats));
  }

  std::printf("{\n");
  std::printf("  \"host\": {\"hardware_concurrency\": %u, \"pool_threads\": %u, "
              "\"cpu_features\": \"%s\", \"active_impl\": \"%s\"},\n",
              std::thread::hardware_concurrency(),
              m3::ThreadPool::Instance().num_threads(),
              m3::CpuFeatureSummary().c_str(), m3::ml::kernels::KernelImplName(active));
  std::printf("  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const auto& g = gemms[i];
    std::printf("    {\"name\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d", g.name.c_str(),
                g.m, g.k, g.n);
    double naive_gf = 0.0, best_gf = 0.0;
    for (std::size_t t = 0; t < g.impls.size(); ++t) {
      std::printf(", \"%s_gflops\": %.3f", m3::ml::kernels::KernelImplName(g.impls[t]),
                  g.gflops[t]);
      if (g.impls[t] == KernelImpl::kNaive) naive_gf = g.gflops[t];
      best_gf = std::max(best_gf, g.gflops[t]);
    }
    std::printf(", \"best_speedup_vs_naive\": %.2f}%s\n",
                naive_gf > 0.0 ? best_gf / naive_gf : 0.0,
                i + 1 < gemms.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"forward_x100\": {\"paths\": 100, \"hop_rows\": 420, \"threads\": 1, "
              "\"rows\": [\n");
  for (std::size_t i = 0; i < forward.size(); ++i) {
    const auto& f = forward[i];
    std::printf("    {\"impl\": \"%s\", \"graph_ms\": %.3f, \"per_path_ms\": %.3f, "
                "\"stacked_ms\": %.3f}%s\n",
                m3::ml::kernels::KernelImplName(f.impl), f.graph_ms, f.per_path_ms,
                f.stacked_ms, i + 1 < forward.size() ? "," : "");
  }
  std::printf("  ]},\n");
  std::printf("  \"trainer\": {\n");
  std::printf("    \"num_samples\": %d, \"epochs\": %d,\n", trainer_samples,
              trainer_epochs);
  std::printf("    \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::printf("      {\"label\": \"%s\", \"impl\": \"%s\", \"requested_threads\": %u, "
                "\"effective_threads\": %u, \"sec\": %.3f, \"samples_per_sec\": %.1f}%s\n",
                r.label.c_str(), m3::ml::kernels::KernelImplName(r.impl),
                r.requested_threads, r.effective_threads, r.sec, r.samples_per_sec,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("    ],\n");
  const double seed_sec = rows.front().sec;
  std::printf("    \"speedup_serial_vs_seed\": %.2f,\n",
              seed_sec / rows[rows.size() >= 3 ? rows.size() - 2 : 1].sec);
  std::printf("    \"speedup_parallel8_vs_seed\": %.2f\n", seed_sec / rows.back().sec);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
