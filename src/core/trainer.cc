#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "ml/checkpoint.h"
#include "ml/kernels.h"
#include "util/parallel.h"

namespace m3 {
namespace {

// Graceful-stop flag, set from the signal handler (or RequestTrainStop) and
// polled by the trainer at batch boundaries. Lock-free atomics are
// async-signal-safe.
std::atomic<bool> g_train_stop{false};

void StopSignalHandler(int /*signum*/) { g_train_stop.store(true, std::memory_order_relaxed); }

// Per-slot parameter-gradient buffers for data-parallel minibatches.
//
// A batch is split into kGradSlots contiguous sample ranges ("slots"); each
// slot accumulates its samples' gradients, in sample order, into its own
// buffers, and the slots are then reduced into Parameter::grad in slot
// order. Both orders depend only on the batch layout — never on thread
// count or scheduling — so training is bitwise deterministic for any
// number of workers (float addition is not associative, so a fixed
// reduction tree is the only way to get identical parameters).
constexpr std::size_t kGradSlots = 8;

class GradSlots {
 public:
  explicit GradSlots(const std::vector<ml::Parameter*>& params) : params_(params) {
    index_.reserve(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) index_[params[i]] = i;
    for (auto& slot : grads_) {
      slot.resize(params.size());
      for (std::size_t i = 0; i < params.size(); ++i) {
        slot[i] = ml::Tensor::Zeros(params[i]->value.rows(), params[i]->value.cols());
      }
    }
  }

  /// Gradient sink for Graph::Backward routing parameter grads to `slot`.
  std::function<ml::Tensor&(ml::Parameter&)> SinkFor(std::size_t slot) {
    return [this, slot](ml::Parameter& p) -> ml::Tensor& {
      return grads_[slot][index_.at(&p)];
    };
  }

  /// Reduces all slots into Parameter::grad in slot order (scaled by
  /// `alpha`, the minibatch 1/n factor) and zeroes the buffers for the
  /// next batch. Single pass over memory per parameter; the element-wise
  /// addition order is the slot order, so the result is bitwise identical
  /// to summing the slots one at a time.
  void ReduceIntoParams(std::size_t slots_used, float alpha) {
    std::array<float*, kGradSlots> srcs;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (params_[i]->grad.empty()) params_[i]->ZeroGrad();
      for (std::size_t s = 0; s < slots_used; ++s) srcs[s] = grads_[s][i].data();
      ml::kernels::ReduceScaleAndZero(params_[i]->grad.data(), srcs.data(), slots_used,
                                      grads_[0][i].size(), alpha);
    }
  }

 private:
  const std::vector<ml::Parameter*>& params_;
  std::unordered_map<const ml::Parameter*, std::size_t> index_;
  std::array<std::vector<ml::Tensor>, kGradSlots> grads_;
};

// Fisher-Yates with the project's deterministic Rng; used for both the
// train/val split and the per-epoch reshuffles, so the entire shuffle
// history is a pure function of the seed and the number of shuffles — which
// is what lets resume reconstruct the permutation state.
void ShuffleIndices(std::vector<std::size_t>& idx, Rng& rng) {
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.NextBounded(i)]);
  }
}

double SampleLoss(M3Model& model, const Sample& s, bool use_context, bool use_baseline,
                  ml::Graph& g, ml::Var* loss_out) {
  ml::Var pred = model.Forward(g, s.fg_feat, s.bg_seq, s.spec, use_context);
  if (use_baseline) pred = g.Add(pred, g.Input(s.baseline));
  const ml::Var loss = g.L1Loss(pred, g.Input(s.target), g.Input(s.mask));
  if (loss_out != nullptr) *loss_out = loss;
  return static_cast<double>(g.value(loss).at(0, 0));
}

}  // namespace

double EvaluateLoss(M3Model& model, const std::vector<Sample>& samples, bool use_context,
                    bool use_baseline, unsigned num_threads) {
  if (samples.empty()) return 0.0;
  // Forward passes only touch shared state read-only, so samples can run
  // on pool workers; per-sample losses are summed in index order so the
  // result is independent of thread count.
  std::vector<double> losses(samples.size());
  ParallelFor(
      samples.size(),
      [&](std::size_t i) {
        ml::Graph g;
        losses[i] = SampleLoss(model, samples[i], use_context, use_baseline, g, nullptr);
      },
      num_threads);
  double total = 0.0;
  for (double l : losses) total += l;
  return total / static_cast<double>(samples.size());
}

void InstallGracefulShutdownHandlers() {
  std::signal(SIGINT, StopSignalHandler);
  std::signal(SIGTERM, StopSignalHandler);
}

void RequestTrainStop() { g_train_stop.store(true, std::memory_order_relaxed); }
void ClearTrainStop() { g_train_stop.store(false, std::memory_order_relaxed); }
bool TrainStopRequested() { return g_train_stop.load(std::memory_order_relaxed); }

TrainReport TrainModel(M3Model& model, const std::vector<Sample>& samples,
                       const TrainOptions& opts) {
  TrainReport report;
  const std::vector<ml::Parameter*> params = model.params();
  const int keep = std::max(1, opts.checkpoint_keep);

  ml::Adam adam(params, {.lr = opts.lr,
                         .beta1 = 0.9f,
                         .beta2 = 0.999f,
                         .eps = 1e-8f,
                         .grad_clip = 1.0f});

  // Resume: restore parameters + Adam moments + trainer state before the
  // split is computed, because the stored seed decides the split.
  ml::CheckpointExtra restored;
  bool resumed = false;
  if (!opts.resume_from.empty()) {
    const ml::RecoveredCheckpoint rec =
        ml::LoadNewestValidCheckpoint(opts.resume_from, params, keep);
    report.resumed_from = rec.path;
    restored = rec.info.extra;
    if (restored.has_optimizer) adam.set_step(restored.adam_step);
    if (restored.has_trainer) {
      adam.set_lr(restored.lr);
      resumed = true;
    }
  }

  const std::uint64_t split_seed = resumed ? restored.split_seed : opts.seed;
  Rng rng(split_seed);
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Deterministic shuffle for the train/val split.
  ShuffleIndices(order, rng);
  const std::size_t val_count = std::min(
      samples.size(),
      static_cast<std::size_t>(opts.val_frac * static_cast<double>(samples.size())));
  std::vector<std::size_t> val_idx(order.begin(), order.begin() + static_cast<long>(val_count));
  std::vector<std::size_t> train_idx(order.begin() + static_cast<long>(val_count), order.end());
  if (train_idx.empty()) return report;  // nothing to train on: report nothing

  std::vector<Sample> val_set;
  val_set.reserve(val_idx.size());
  for (std::size_t i : val_idx) val_set.push_back(samples[i]);

  int start_epoch = 0;
  std::size_t resume_batch_offset = 0;
  if (resumed) {
    start_epoch = restored.epochs_done;
    resume_batch_offset = static_cast<std::size_t>(restored.batch_offset);
    // Rebuild train_idx's permutation history: each completed epoch
    // shuffled it once, plus once more if the interrupted epoch had already
    // started. The stored RNG state (captured at save time) is then
    // installed as the authoritative continuation point.
    const int shuffles = start_epoch + (resume_batch_offset > 0 ? 1 : 0);
    for (int e = 0; e < shuffles; ++e) ShuffleIndices(train_idx, rng);
    rng.RestoreState(restored.shuffle_rng);
  }
  report.start_epoch = start_epoch;

  GradSlots slots(params);
  std::vector<double> sample_loss(static_cast<std::size_t>(opts.batch_size));

  // Snapshot full training state. `epochs_done`/`batch_offset` name the
  // exact point in the schedule; everything else makes the continuation
  // bitwise identical.
  const auto save_state = [&](int epochs_done, std::size_t batch_offset,
                              double partial_loss, std::size_t partial_samples) {
    ml::CheckpointExtra extra;
    extra.has_optimizer = true;
    extra.adam_step = adam.step();
    extra.has_trainer = true;
    extra.epochs_done = epochs_done;
    extra.batch_offset = static_cast<std::int64_t>(batch_offset);
    extra.partial_epoch_loss = partial_loss;
    extra.partial_epoch_samples = partial_samples;
    extra.lr = adam.options().lr;
    extra.split_seed = split_seed;
    extra.shuffle_rng = rng.SaveState();
    ml::SaveCheckpointRotating(opts.checkpoint_path, params, &extra, keep);
  };

  for (int epoch = start_epoch; epoch < opts.epochs; ++epoch) {
    // On a mid-epoch resume the first epoch's LR decay and shuffle already
    // happened before the checkpoint was taken; redoing either would fork
    // the schedule.
    const bool mid_epoch_resume = epoch == start_epoch && resume_batch_offset > 0;
    if (!mid_epoch_resume) {
      if (opts.lr_decay_every > 0 && epoch > 0 && epoch % opts.lr_decay_every == 0) {
        adam.set_lr(adam.options().lr * opts.lr_decay_factor);
      }
      // Shuffle the training order each epoch.
      ShuffleIndices(train_idx, rng);
    }
    double epoch_loss = mid_epoch_resume ? restored.partial_epoch_loss : 0.0;
    std::size_t epoch_samples =
        mid_epoch_resume ? static_cast<std::size_t>(restored.partial_epoch_samples) : 0;
    for (std::size_t start = mid_epoch_resume ? resume_batch_offset : 0;
         start < train_idx.size(); start += static_cast<std::size_t>(opts.batch_size)) {
      const std::size_t end =
          std::min(train_idx.size(), start + static_cast<std::size_t>(opts.batch_size));
      const std::size_t b = end - start;
      // Slot layout depends only on the batch size: slot s owns the
      // contiguous samples [s*per, (s+1)*per). Each slot runs its samples
      // sequentially on one worker; slots run concurrently.
      const std::size_t slots_used = std::min(b, kGradSlots);
      const std::size_t per = (b + slots_used - 1) / slots_used;
      ParallelFor(
          slots_used,
          [&](std::size_t s) {
            const std::size_t k_begin = std::min(b, s * per);
            const std::size_t k_end = std::min(b, (s + 1) * per);
            for (std::size_t k = k_begin; k < k_end; ++k) {
              const Sample& smp = samples[train_idx[start + k]];
              ml::Graph g;
              g.set_param_grad_sink(slots.SinkFor(s));
              ml::Var loss;
              sample_loss[k] =
                  SampleLoss(model, smp, opts.use_context, opts.use_baseline, g, &loss);
              g.Backward(loss);
            }
          },
          opts.num_threads);
      slots.ReduceIntoParams(slots_used, 1.0f / static_cast<float>(b));
      adam.Step();
      // Per-sample batch loss summed in sample order (deterministic), and
      // epoch loss weighted by batch size so unequal final batches do not
      // skew the reported per-sample mean.
      for (std::size_t k = 0; k < b; ++k) epoch_loss += sample_loss[k];
      epoch_samples += b;
      if (TrainStopRequested() && end < train_idx.size()) {
        // Graceful stop with the epoch unfinished: the in-flight batch has
        // fully applied, so checkpoint exactly here and bail out.
        if (!opts.checkpoint_path.empty()) {
          save_state(epoch, end, epoch_loss, epoch_samples);
        }
        report.interrupted = true;
        return report;
      }
    }
    report.train_loss.push_back(
        epoch_samples ? epoch_loss / static_cast<double>(epoch_samples) : 0.0);
    if (!val_set.empty()) {
      report.val_loss.push_back(EvaluateLoss(model, val_set, opts.use_context,
                                             opts.use_baseline, opts.num_threads));
    }
    if (opts.verbose) {
      std::printf("epoch %3d  train %.4f  val %.4f\n", epoch, report.train_loss.back(),
                  val_set.empty() ? 0.0 : report.val_loss.back());
      std::fflush(stdout);
    }
    // A stop that landed on the epoch's final batch is handled here, at the
    // boundary, so the saved state is a clean epoch boundary.
    const bool stop_at_boundary = TrainStopRequested();
    const bool last_epoch = epoch + 1 == opts.epochs;
    const bool periodic = opts.checkpoint_every > 0 && (epoch + 1) % opts.checkpoint_every == 0;
    if (!opts.checkpoint_path.empty() && (periodic || last_epoch || stop_at_boundary)) {
      save_state(epoch + 1, 0, 0.0, 0);
    }
    if (stop_at_boundary && !last_epoch) {
      report.interrupted = true;
      return report;
    }
  }
  return report;
}

}  // namespace m3
