// Data-parallel training: determinism across thread counts, loss
// accounting, and the thread-pool ParallelFor contract.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/model.h"
#include "core/trainer.h"
#include "ml/kernels.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace m3 {
namespace {

using ml::kernels::KernelImpl;

// Restores the process-wide kernel implementation on scope exit.
struct ImplGuard {
  KernelImpl prev = ml::kernels::GetKernelImpl();
  ~ImplGuard() { ml::kernels::SetKernelImpl(prev); }
};

std::vector<KernelImpl> AvailableImpls() {
  std::vector<KernelImpl> impls;
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    if (ml::kernels::KernelImplAvailable(impl)) impls.push_back(impl);
  }
  return impls;
}

// A small model + synthetic tensor-only samples keep each train step cheap;
// TrainModel never touches the global feature constants, so reduced
// dimensions exercise the full code path.
M3ModelConfig SmallConfig() {
  M3ModelConfig cfg;
  cfg.feat_dim = 24;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ff_dim = 48;
  cfg.spec_dim = 5;
  cfg.mlp_hidden = 40;
  cfg.out_dim = 60;
  cfg.max_seq = 4;
  cfg.init_seed = 77;
  return cfg;
}

std::vector<Sample> SyntheticSamples(const M3ModelConfig& cfg, int count,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Sample> samples(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Sample& s = samples[static_cast<std::size_t>(i)];
    const int hops = 1 + static_cast<int>(rng.NextBounded(
                             static_cast<std::size_t>(cfg.max_seq)));
    s.fg_feat = ml::Tensor::Randn(1, cfg.feat_dim, rng, 1.0f);
    s.bg_seq = ml::Tensor::Randn(hops, cfg.feat_dim, rng, 1.0f);
    s.spec = ml::Tensor::Randn(1, cfg.spec_dim, rng, 1.0f);
    s.target = ml::Tensor::Randn(1, cfg.out_dim, rng, 0.5f);
    s.baseline = ml::Tensor::Randn(1, cfg.out_dim, rng, 0.5f);
    s.mask = ml::Tensor::Zeros(1, cfg.out_dim);
    for (int j = 0; j < cfg.out_dim; ++j) {
      s.mask.at(0, j) = rng.NextBounded(4) == 0 ? 0.0f : 1.0f;
    }
  }
  return samples;
}

TrainOptions SmallTrainOptions(unsigned num_threads) {
  TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 5;  // does not divide 23 samples: exercises the ragged tail batch
  opts.lr = 1e-3f;
  opts.val_frac = 0.2;
  opts.seed = 9;
  opts.num_threads = num_threads;
  return opts;
}

TEST(TrainerParallel, DeterministicAcrossThreadCountsForEveryKernelImpl) {
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 23, 42);
  ImplGuard guard;

  // Bitwise determinism must hold per implementation: for a fixed kernel
  // tier the slot layout and reduction order are thread-count invariant
  // (different tiers may round differently — that is cross-impl parity,
  // tested with tolerances in kernels_test).
  for (KernelImpl impl : AvailableImpls()) {
    ml::kernels::SetKernelImpl(impl);
    const char* impl_name = ml::kernels::KernelImplName(impl);

    M3Model serial_model(cfg);
    const TrainReport serial = TrainModel(serial_model, samples, SmallTrainOptions(1));

    for (unsigned threads : {2u, 8u}) {
      M3Model model(cfg);
      const TrainReport report = TrainModel(model, samples, SmallTrainOptions(threads));

      ASSERT_EQ(report.train_loss.size(), serial.train_loss.size());
      ASSERT_EQ(report.val_loss.size(), serial.val_loss.size());
      for (std::size_t e = 0; e < serial.train_loss.size(); ++e) {
        EXPECT_EQ(report.train_loss[e], serial.train_loss[e])
            << impl_name << ": train loss differs at epoch " << e << " with " << threads
            << " threads";
      }
      for (std::size_t e = 0; e < serial.val_loss.size(); ++e) {
        EXPECT_EQ(report.val_loss[e], serial.val_loss[e])
            << impl_name << ": val loss differs at epoch " << e << " with " << threads
            << " threads";
      }

      const std::vector<ml::Parameter*> want = serial_model.params();
      const std::vector<ml::Parameter*> got = model.params();
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t p = 0; p < want.size(); ++p) {
        ASSERT_EQ(want[p]->value.size(), got[p]->value.size());
        for (std::size_t i = 0; i < want[p]->value.size(); ++i) {
          ASSERT_EQ(want[p]->value.vec()[i], got[p]->value.vec()[i])
              << impl_name << ": parameter " << want[p]->name << " diverges at element "
              << i << " with " << threads << " threads";
        }
      }
    }
  }
}

TEST(TrainerParallel, EvaluateLossDeterministicAcrossThreadCounts) {
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 17, 43);
  M3Model model(cfg);
  const double serial = EvaluateLoss(model, samples, true, true, 1);
  EXPECT_EQ(serial, EvaluateLoss(model, samples, true, true, 4));
  EXPECT_EQ(serial, EvaluateLoss(model, samples, true, true, 0));
}

TEST(TrainerParallel, FirstEpochLossIsPerSampleMean) {
  // With one batch per epoch, the reported first-epoch train loss is the
  // per-sample mean at the initial parameters — exactly EvaluateLoss on a
  // freshly initialized model (ragged-batch weighting makes this hold for
  // any batch size; the shuffle only permutes the summands).
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 12, 44);
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 64;  // single batch
  opts.val_frac = 0.0;
  opts.seed = 3;
  M3Model trained(cfg);
  const TrainReport report = TrainModel(trained, samples, opts);
  M3Model fresh(cfg);
  const double expected = EvaluateLoss(fresh, samples, opts.use_context, opts.use_baseline);
  ASSERT_EQ(report.train_loss.size(), 1u);
  EXPECT_NEAR(report.train_loss[0], expected, 1e-12);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  EXPECT_THROW(
      ParallelFor(64,
                  [&](std::size_t i) {
                    if (i % 7 == 3) throw std::runtime_error("boom");
                  },
                  4),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  std::atomic<int> total{0};
  ParallelFor(8, [&](std::size_t) {
    ParallelFor(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ThreadCapRespectsRequest) {
  // num_threads=1 must run entirely on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> all_on_caller{true};
  ParallelFor(
      32,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) all_on_caller.store(false);
      },
      1);
  EXPECT_TRUE(all_on_caller.load());
}

}  // namespace
}  // namespace m3
