// ModelRegistry: immutable, shared model snapshots with atomic hot-reload.
//
// The daemon serves every query from a snapshot obtained via Current();
// queries hold the snapshot's shared_ptr for their whole lifetime, so a
// concurrent Reload can publish a new snapshot without dropping or tearing
// in-flight work — the old model is destroyed only when its last query
// finishes. Reload is all-or-nothing: the new checkpoint is loaded into a
// *fresh* model off to the side and only published on success, so a corrupt
// or mismatched checkpoint leaves the serving snapshot untouched (the error
// is returned and counted, never propagated to queries).
//
// Snapshots carry identity for cache keying and reporting: a monotonically
// increasing registry version, a CRC32 over the raw parameter bytes (cheap,
// human-comparable), and a 128-bit content digest of all parameters (the
// component of every cache key that ties results to exact model weights).
//
// A load does only what serving needs (DESIGN.md §7, "What a served load
// does"): the checkpoint is read and CRC-checked once, and the model is
// built from its parsed tensors (ml::CheckpointParams), with no random
// init, no training state and one copy of each weight.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/model.h"
#include "util/hash.h"
#include "util/status.h"

namespace m3::serve {

struct ModelSnapshot {
  /// Builds the model straight from `params` (a parsed checkpoint).
  ModelSnapshot(const M3ModelConfig& cfg, ml::ParamSource& params) : model(cfg, params) {}

  // Read-only once loaded: inference is const (M3Model::Infer, with
  // per-thread scratch), so concurrent queries share one model. It holds
  // parameter values only, no gradient or optimizer state.
  const M3Model model;
  ml::CheckpointInfo info;     // what the checkpoint file carried
  std::string checkpoint_path;
  std::uint64_t version = 0;   // registry load counter, 1 = initial load
  std::uint32_t param_crc = 0; // CRC32 over raw parameter floats
  Hash128 digest;              // content hash of (name, shape, data) per param
};

class ModelRegistry {
 public:
  /// Snapshots are compiled with `cfg`; checkpoints whose tensors do not
  /// match these dimensions are rejected by Reload (kInvalidArgument).
  explicit ModelRegistry(const M3ModelConfig& cfg = M3ModelConfig()) : cfg_(cfg) {}
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Loads `path` into a fresh snapshot and atomically publishes it. Used
  /// both for the initial load and for hot-reload; on failure the
  /// previously published snapshot (if any) keeps serving. Never throws.
  /// Fault site "serve/registry_reload" fires before the checkpoint is
  /// opened (an injected failure behaves like an unreadable file).
  Status Reload(const std::string& path);

  /// The currently published snapshot, or nullptr before the first
  /// successful Reload. Cheap enough for the per-query hot path.
  std::shared_ptr<const ModelSnapshot> Current() const;

  std::uint64_t reloads_ok() const { return reloads_ok_.load(std::memory_order_relaxed); }
  std::uint64_t reloads_failed() const {
    return reloads_failed_.load(std::memory_order_relaxed);
  }

 private:
  const M3ModelConfig cfg_;
  // Held for the whole of Reload (loads are rare, seconds-scale is fine):
  // serializing load+publish makes publication order equal call order, so a
  // slow reload of an older checkpoint can never overwrite a newer one.
  std::mutex reload_mu_;
  mutable std::mutex mu_;  // guards current_ swap and version assignment
  std::shared_ptr<const ModelSnapshot> current_;
  std::uint64_t next_version_ = 1;
  std::atomic<std::uint64_t> reloads_ok_{0};
  std::atomic<std::uint64_t> reloads_failed_{0};
};

}  // namespace m3::serve
