// Binary checkpoints: a versioned, checksummed container for named parameter
// tensors plus optional optimizer and trainer state.
//
// Format v2 (current):
//
//   header   : magic u32 | version u32 | payload_size u64 | crc32 u32
//   payload  : flags u32 | param section | [optimizer section] | [trainer section]
//
// The CRC32 covers the entire payload, so truncation or bit corruption at
// any offset is detected before any state is applied. Writes go to a
// temporary file in the target directory followed by rename(), so a crash
// mid-save never clobbers the previous good checkpoint. Version-1 files
// (params only, no checksum) remain loadable.
//
// All integers and floats are little-endian; tensors are row-major float32.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace m3::ml {

inline constexpr std::uint32_t kCheckpointVersionLatest = 2;

/// Thrown by every checkpoint failure path. Derives from std::runtime_error
/// (existing catch sites keep working) and carries a StatusCode so service
/// boundaries can classify without parsing messages: kNotFound (missing
/// file), kDataLoss (truncation / corruption / CRC), kInvalidArgument
/// (tensor names/shapes do not match the destination model, unsupported
/// version), kUnavailable (I/O failure while writing).
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(StatusCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  StatusCode code() const { return code_; }

 private:
  StatusCode code_;
};

/// Optional training state carried by a v2 checkpoint alongside the
/// parameter tensors. Each section is independently present.
struct CheckpointExtra {
  // --- optimizer section: Adam moments (per parameter) + step count ---
  bool has_optimizer = false;
  std::int64_t adam_step = 0;

  // --- trainer section: enough to make resume bitwise identical ---
  bool has_trainer = false;
  std::int32_t epochs_done = 0;      // epochs fully completed
  std::int64_t batch_offset = 0;     // samples consumed in the current epoch
                                     // (> 0 only for a mid-epoch save)
  double partial_epoch_loss = 0.0;   // loss accumulated before a mid-epoch save
  std::uint64_t partial_epoch_samples = 0;
  float lr = 0.0f;                   // learning rate after decays so far
  std::uint64_t split_seed = 0;      // seed of the train/val split shuffle
  RngState shuffle_rng{};            // epoch-shuffle RNG, captured at save time
};

/// What a load found and applied. `extra.has_*` report which sections were
/// present; for v1 files both are false and Adam state is zeroed.
struct CheckpointInfo {
  std::uint32_t version = 0;
  CheckpointExtra extra;
};

/// Writes all parameters (name, shape, data), and optionally Adam moments and
/// trainer state, to `path`. Parent directories are created as needed. The
/// write is atomic: data goes to a pid-suffixed `path + ".tmp.<pid>"`
/// sibling, is flushed and fsynced, then renamed over `path`, so an
/// interrupted save never leaves a partially written file at `path` and
/// concurrent savers cannot corrupt each other. Throws std::runtime_error
/// on I/O error.
void SaveCheckpoint(const std::string& path, const std::vector<Parameter*>& params,
                    const CheckpointExtra* extra = nullptr);

/// A checkpoint file read, validated and parsed once, as a ParamSource:
/// a model built from it takes each tensor by name, moved into place, so a
/// served load never random-initializes and copies each weight once (from
/// the file buffer into its final Tensor).
///
/// The constructor reads `path` and validates it fully (magic, version,
/// CRC, every declared length checked against the actual payload); it
/// throws CheckpointError (kNotFound, kDataLoss, kInvalidArgument for an
/// unsupported version). The optimizer section's Adam moments become
/// tensors only with `optimizer_state`; otherwise they are bounds-checked
/// and skipped, and the taken Parameters carry values alone.
class CheckpointParams final : public ParamSource {
 public:
  explicit CheckpointParams(const std::string& path, bool optimizer_state = false);

  /// Moves out the file's tensor `name`, which must be [rows, cols];
  /// otherwise throws CheckpointError(kInvalidArgument). `init` is unused.
  Parameter Take(std::string name, int rows, int cols, Init init) override;

  /// Throws CheckpointError(kInvalidArgument) if the file holds a tensor no
  /// Take claimed (another architecture, or a duplicate name).
  void CheckAllTaken() const;

  /// What the file carried.
  const CheckpointInfo& info() const { return info_; }
  /// XOR of the CRC32 of each tensor's values (a served model's param_crc),
  /// computed within the payload CRC pass.
  std::uint32_t value_crc() const { return value_crc_; }

 private:
  CheckpointInfo info_;
  std::vector<Parameter> tensors_;                      // file order
  std::unordered_map<std::string, std::size_t> index_;  // untaken, by name
  std::size_t taken_ = 0;
  std::uint32_t value_crc_ = 0;
};

/// Loads a checkpoint into the given parameters (CheckpointParams with the
/// optimizer state). Parameters are matched by name; every parameter must
/// be present with a matching shape, and every tensor in the file must be
/// claimed. Everything is validated *before* any parameter is touched, so a
/// failing load throws CheckpointError and leaves `params` unchanged. If
/// the optimizer section is present, Adam moments are restored; otherwise
/// they are left empty, which resets them to zero. Gradients are reset too.
CheckpointInfo LoadCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params);

/// True if `path` exists and carries the checkpoint magic. Cheap; does not
/// validate the checksum (use LoadCheckpoint for full validation).
bool IsCheckpointFile(const std::string& path);

/// Shifts the rotation chain `path` -> `path.1` -> ... -> `path.(keep-1)`
/// (the oldest is dropped), then atomically writes a new checkpoint at
/// `path`. With keep <= 1 no history is retained. Combined with atomic
/// writes this guarantees that at every instant at most one file in the
/// chain is invalid, so recovery always has a good checkpoint to fall back
/// to.
void SaveCheckpointRotating(const std::string& path,
                            const std::vector<Parameter*>& params,
                            const CheckpointExtra* extra = nullptr, int keep = 3);

/// The rotation chain for `path`, newest first: {path, path.1, ...,
/// path.(keep-1)}.
std::vector<std::string> CheckpointRotationChain(const std::string& path, int keep);

struct RecoveredCheckpoint {
  std::string path;     // the file that actually loaded
  CheckpointInfo info;
};

/// Loads the newest checkpoint in the rotation chain of `path` that passes
/// full validation, skipping truncated/corrupt/missing files. Throws
/// std::runtime_error if no file in the chain is loadable.
RecoveredCheckpoint LoadNewestValidCheckpoint(const std::string& path,
                                              const std::vector<Parameter*>& params,
                                              int keep = 3);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320). `crc` is the CRC of the bytes
/// before `data` (0 for none), so a buffer can be CRC'd in pieces. Exposed
/// for tests that craft checkpoint payloads by hand.
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

/// The CRC-32 of A followed by B, from crc_a = Crc32(A), crc_b = Crc32(B)
/// and B's length, without reading either again.
std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b);

}  // namespace m3::ml
