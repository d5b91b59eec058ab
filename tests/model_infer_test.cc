// Graph-free batched inference (M3Model::Infer): every row of a stacked
// batch must be bitwise equal to the training graph's forward of that path
// alone plus its baseline, and to the one-path Predict, on every kernel
// tier; bad shapes must be rejected before any compute; and neither
// Predict nor RunM3 may build an autograd graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "core/model.h"
#include "ml/arena.h"
#include "ml/autograd.h"
#include "ml/kernels.h"
#include "topo/fat_tree.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/traffic_matrix.h"

namespace m3 {
namespace {

using ml::kernels::KernelImpl;

class ImplGuard {
 public:
  explicit ImplGuard(KernelImpl impl) : prev_(ml::kernels::GetKernelImpl()) {
    ml::kernels::SetKernelImpl(impl);
  }
  ~ImplGuard() { ml::kernels::SetKernelImpl(prev_); }

 private:
  KernelImpl prev_;
};

std::vector<KernelImpl> AvailableImpls() {
  std::vector<KernelImpl> impls;
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    if (ml::kernels::KernelImplAvailable(impl)) impls.push_back(impl);
  }
  return impls;
}

ml::Tensor Random(int rows, int cols, Rng& rng) {
  return ml::Tensor::Randn(rows, cols, rng, 1.0f);
}

// A path's model inputs; hop counts cycle through 1..max_seq.
struct PathData {
  ml::Tensor fg, bg, spec, baseline;
};

std::vector<PathData> RandomPaths(const M3ModelConfig& cfg, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PathData> paths(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PathData& p = paths[static_cast<std::size_t>(i)];
    p.fg = Random(1, cfg.feat_dim, rng);
    p.bg = Random(1 + i % cfg.max_seq, cfg.feat_dim, rng);
    p.spec = Random(1, cfg.spec_dim, rng);
    p.baseline = Random(1, cfg.out_dim, rng);
  }
  return paths;
}

std::vector<M3Model::Input> Inputs(const std::vector<PathData>& paths, std::size_t count,
                                   bool with_baseline) {
  std::vector<M3Model::Input> in;
  for (std::size_t i = 0; i < count; ++i) {
    const PathData& p = paths[i];
    in.push_back({&p.fg, &p.bg, &p.spec, with_baseline ? &p.baseline : nullptr});
  }
  return in;
}

// The training graph's raw output for one path, plus its baseline.
std::vector<float> GraphRow(M3Model& model, const PathData& p, bool use_context,
                            bool with_baseline) {
  ml::Graph g;
  ml::Var out = model.Forward(g, p.fg, p.bg, p.spec, use_context);
  if (with_baseline) out = g.Add(out, g.Input(p.baseline));
  const ml::Tensor& v = g.value(out);
  return std::vector<float>(v.data(), v.data() + v.size());
}

M3ModelConfig SmallConfig() {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  cfg.max_seq = 5;
  cfg.init_seed = 8;
  return cfg;
}

void ExpectBatchesMatchGraph(const M3ModelConfig& cfg, const std::vector<int>& batches) {
  const std::vector<PathData> paths = RandomPaths(cfg, batches.back(), 31);
  M3Model model(cfg);
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    const char* tier = ml::kernels::KernelImplName(impl);
    for (bool use_context : {true, false}) {
      for (bool with_baseline : {true, false}) {
        std::vector<std::vector<float>> want;
        for (const PathData& p : paths) {
          want.push_back(GraphRow(model, p, use_context, with_baseline));
        }
        for (int batch : batches) {
          const auto in = Inputs(paths, static_cast<std::size_t>(batch), with_baseline);
          std::vector<float> raw(in.size() * static_cast<std::size_t>(cfg.out_dim),
                                 std::numeric_limits<float>::quiet_NaN());
          model.Infer(in, use_context, raw.data());
          int differing_rows = 0;
          for (int r = 0; r < batch; ++r) {
            const float* row = raw.data() + static_cast<std::size_t>(r) * cfg.out_dim;
            const std::vector<float>& w = want[static_cast<std::size_t>(r)];
            if (std::memcmp(row, w.data(), w.size() * sizeof(float)) != 0) ++differing_rows;
          }
          EXPECT_EQ(differing_rows, 0) << tier << " batch " << batch << " context "
                                       << use_context << " baseline " << with_baseline;
        }
        // The one-path Predict decodes the same raw row.
        for (std::size_t i = 0; i < 3; ++i) {
          const PathData& p = paths[i];
          ml::Tensor row(1, cfg.out_dim);
          std::copy(want[i].begin(), want[i].end(), row.data());
          int bad_want = -1, bad_got = -1;
          const auto decoded = DecodeOutput(row, &bad_want);
          EXPECT_EQ(model.Predict(p.fg, p.bg, p.spec, use_context,
                                  with_baseline ? &p.baseline : nullptr, &bad_got),
                    decoded)
              << tier << " path " << i;
          EXPECT_EQ(bad_got, bad_want);
        }
      }
    }
  }
}

// The paper-default model (d_model 96, 2 layers, 1010-wide hops) at up to
// a query's 100 paths; the small model takes the larger batches.
TEST(ModelInfer, DefaultModelBatchesMatchTheGraphBitwise) {
  ExpectBatchesMatchGraph(M3ModelConfig(), {1, 2, 7, 100});
}

TEST(ModelInfer, SmallModelBatchesMatchTheGraphBitwise) {
  ExpectBatchesMatchGraph(SmallConfig(), {1, 2, 7, 100, 257});
}

TEST(ModelInfer, EmptyBatchDoesNothing) {
  const M3Model model(SmallConfig());
  model.Infer({}, true, nullptr);
  model.Infer({}, false, nullptr);
}

std::string EncodeError(M3Model& model, const PathData& p) {
  try {
    ml::Graph g;
    model.Forward(g, p.fg, p.bg, p.spec, true);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no throw)";
}

TEST(ModelInfer, BadShapesThrowLikeEncodeBeforeAnyCompute) {
  const M3ModelConfig cfg = SmallConfig();
  M3Model model(cfg);
  std::vector<PathData> paths = RandomPaths(cfg, 4, 5);
  Rng rng(9);
  const ml::Tensor bad_seqs[] = {ml::Tensor(0, cfg.feat_dim),
                                 Random(cfg.max_seq + 1, cfg.feat_dim, rng),
                                 Random(2, cfg.feat_dim - 1, rng)};
  for (const ml::Tensor& bad : bad_seqs) {
    paths[2].bg = bad;
    const std::string want = EncodeError(model, paths[2]);
    ASSERT_NE(want, "(no throw)");
    const auto in = Inputs(paths, paths.size(), true);
    std::vector<float> raw(in.size() * static_cast<std::size_t>(cfg.out_dim), -7.0f);
    try {
      model.Infer(in, true, raw.data());
      ADD_FAILURE() << "no throw for a [" << bad.rows() << ", " << bad.cols() << "] sequence";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
    EXPECT_TRUE(std::all_of(raw.begin(), raw.end(), [](float v) { return v == -7.0f; }))
        << "rows written before the shape check";
    EXPECT_THROW(model.Predict(paths[2].fg, paths[2].bg, paths[2].spec), std::invalid_argument);
    // Without context the sequence is never read.
    model.Infer(in, false, raw.data());
  }
  paths = RandomPaths(cfg, 2, 5);
  paths[1].fg = Random(1, cfg.feat_dim + 1, rng);
  EXPECT_THROW(model.Infer(Inputs(paths, 2, true), true, nullptr), std::invalid_argument);
  paths = RandomPaths(cfg, 2, 5);
  paths[0].spec = Random(2, cfg.spec_dim, rng);
  EXPECT_THROW(model.Infer(Inputs(paths, 2, true), false, nullptr), std::invalid_argument);
  paths = RandomPaths(cfg, 2, 5);
  paths[0].baseline = Random(1, cfg.out_dim - 1, rng);
  EXPECT_THROW(model.Infer(Inputs(paths, 2, true), true, nullptr), std::invalid_argument);
}

TEST(ModelInfer, FourThreadsSharingOneModelGetIdenticalBits) {
  const M3ModelConfig cfg;
  const M3Model model(cfg);
  const std::vector<PathData> paths = RandomPaths(cfg, 40, 77);
  const auto in = Inputs(paths, paths.size(), true);
  std::vector<float> want(in.size() * static_cast<std::size_t>(cfg.out_dim));
  model.Infer(in, true, want.data());

  std::vector<std::vector<float>> got(4, std::vector<float>(want.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      // Different batch splits per thread: rows are independent.
      const std::size_t step = t + 1;
      for (std::size_t lo = 0; lo < in.size(); lo += step) {
        const std::size_t n = std::min(step, in.size() - lo);
        model.Infer(std::span<const M3Model::Input>(in).subspan(lo, n), true,
                    got[t].data() + lo * static_cast<std::size_t>(cfg.out_dim));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(std::memcmp(got[t].data(), want.data(), want.size() * sizeof(float)), 0)
        << "thread " << t;
  }
}

// Inference draws nothing from the autograd TensorArena: no graph, no tape.
TEST(ModelInfer, PredictAndRunM3BuildNoGraph) {
  M3Model model;
  const std::vector<PathData> paths = RandomPaths(model.config(), 3, 4);
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  WorkloadSpec wspec;
  wspec.num_flows = 400;
  wspec.seed = 3;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *MakeWebServer(), wspec).flows;
  M3Options opts;
  opts.num_paths = 6;
  opts.num_threads = 1;

  ml::TensorArena& arena = ml::TensorArena::ThreadLocal();
  const std::size_t before = arena.alloc_count() + arena.reuse_count();
  for (const PathData& p : paths) model.Predict(p.fg, p.bg, p.spec, true, &p.baseline);
  const NetworkEstimate est = RunM3(ft.topo(), flows, NetConfig{}, model, opts);
  ASSERT_TRUE(est.status.ok()) << est.status.ToString();
  EXPECT_EQ(arena.alloc_count() + arena.reuse_count(), before);

  ml::Graph g;  // the counters do see a graph
  g.Input(paths[0].fg);
  EXPECT_GT(arena.alloc_count() + arena.reuse_count(), before);
}

}  // namespace
}  // namespace m3
