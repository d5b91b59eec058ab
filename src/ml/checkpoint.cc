#include "ml/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/fault.h"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace m3::ml {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x334D4C4Bu;  // "KLM3"
constexpr std::size_t kHeaderSizeV1 = 12;      // magic + version + count
constexpr std::size_t kHeaderSizeV2 = 20;      // magic + version + payload_size + crc
constexpr std::uint32_t kFlagOptimizer = 1u << 0;
constexpr std::uint32_t kFlagTrainer = 1u << 1;
// Bounds for declared sizes: anything beyond these is a corrupt or hostile
// file, rejected before any allocation is sized from it.
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::int32_t kMaxTensorDim = 1 << 24;

// ------------------------------------------------------------ payload I/O --

// Serializes PODs into a growable buffer; the whole payload is built in
// memory so the CRC can be computed before anything touches the disk.
class PayloadWriter {
 public:
  template <typename T>
  void Pod(const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    buf_.append(p, sizeof(T));
  }

  void Bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  void TensorData(const Tensor& t) { Bytes(t.data(), t.size() * sizeof(float)); }

  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

// Bounds-checked reader over an in-memory payload. Every read validates the
// remaining length first, so a corrupt length field produces a clean
// std::runtime_error instead of a wild allocation or out-of-bounds read.
class PayloadReader {
 public:
  PayloadReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  template <typename T>
  T Pod() {
    Require(sizeof(T), "field");
    T v{};
    std::memcpy(&v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }

  std::string String(std::uint32_t len) {
    Require(len, "name");
    std::string s(data_ + off_, len);
    off_ += len;
    return s;
  }

  /// Validates the declared shape against the bounds and the remaining
  /// payload, then reads the tensor. The check precedes the allocation.
  Tensor TensorOf(std::int32_t rows, std::int32_t cols, const std::string& what) {
    if (rows <= 0 || cols <= 0 || rows > kMaxTensorDim || cols > kMaxTensorDim) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: invalid shape for " + what);
    }
    const std::uint64_t count =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
    Require(count * sizeof(float), what.c_str());
    Tensor t(rows, cols);
    std::memcpy(t.data(), data_ + off_, count * sizeof(float));
    off_ += count * sizeof(float);
    return t;
  }

  bool AtEnd() const { return off_ == size_; }

 private:
  void Require(std::uint64_t n, const char* what) const {
    if (size_ - off_ < n) {
      throw CheckpointError(StatusCode::kDataLoss,
                            std::string("checkpoint: truncated payload reading ") + what);
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

struct NamedTensor {
  std::string name;
  Tensor value;
  Tensor adam_m;  // empty unless the optimizer section is present
  Tensor adam_v;
};

std::vector<NamedTensor> ParseParamSection(PayloadReader& r) {
  const auto count = r.Pod<std::uint32_t>();
  std::vector<NamedTensor> out;
  out.reserve(std::min<std::uint32_t>(count, 1024));
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto name_len = r.Pod<std::uint32_t>();
    if (name_len == 0 || name_len > kMaxNameLen) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: invalid parameter name length");
    }
    NamedTensor nt;
    nt.name = r.String(name_len);
    const auto rows = r.Pod<std::int32_t>();
    const auto cols = r.Pod<std::int32_t>();
    nt.value = r.TensorOf(rows, cols, "tensor " + nt.name);
    out.push_back(std::move(nt));
  }
  return out;
}

std::string BuildPayload(const std::vector<Parameter*>& params,
                         const CheckpointExtra* extra) {
  PayloadWriter w;
  std::uint32_t flags = 0;
  if (extra != nullptr && extra->has_optimizer) flags |= kFlagOptimizer;
  if (extra != nullptr && extra->has_trainer) flags |= kFlagTrainer;
  w.Pod(flags);
  w.Pod(static_cast<std::uint32_t>(params.size()));
  for (const Parameter* p : params) {
    w.Pod(static_cast<std::uint32_t>(p->name.size()));
    w.Bytes(p->name.data(), p->name.size());
    w.Pod(static_cast<std::int32_t>(p->value.rows()));
    w.Pod(static_cast<std::int32_t>(p->value.cols()));
    w.TensorData(p->value);
  }
  if (flags & kFlagOptimizer) {
    w.Pod(extra->adam_step);
    // Moments are stored in param-section order; shapes are implied.
    for (const Parameter* p : params) {
      w.TensorData(p->adam_m);
      w.TensorData(p->adam_v);
    }
  }
  if (flags & kFlagTrainer) {
    w.Pod(extra->epochs_done);
    w.Pod(extra->batch_offset);
    w.Pod(extra->partial_epoch_loss);
    w.Pod(extra->partial_epoch_samples);
    w.Pod(extra->lr);
    w.Pod(extra->split_seed);
    w.Pod(extra->shuffle_rng.state);
    w.Pod(extra->shuffle_rng.inc);
    w.Pod(extra->shuffle_rng.seed);
    w.Pod(extra->shuffle_rng.cached_normal);
    w.Pod(static_cast<std::uint8_t>(extra->shuffle_rng.has_cached_normal ? 1 : 0));
  }
  return w.buf();
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw CheckpointError(StatusCode::kNotFound, "checkpoint: cannot open " + path);
  const std::streamoff size = is.tellg();
  if (size < 0) throw CheckpointError(StatusCode::kUnavailable, "checkpoint: cannot stat " + path);
  std::string buf(static_cast<std::size_t>(size), '\0');
  is.seekg(0);
  is.read(buf.data(), size);
  if (!is) throw CheckpointError(StatusCode::kUnavailable, "checkpoint: short read on " + path);
  return buf;
}

#ifdef __unix__
// Flushes file contents (or, for directories, the rename) to stable storage;
// best-effort — a failure here does not invalidate the logical write.
void FsyncPath(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY : O_WRONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}
#endif

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n) {
  // Standard reflected CRC-32, slicing-by-8: t[0] is the bytewise table and
  // t[k][i] is the CRC of byte i followed by k zero bytes, so one step folds
  // eight bytes with eight independent lookups. Tables built once on first
  // use; loads are little-endian like the checkpoint format.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void SaveCheckpoint(const std::string& path, const std::vector<Parameter*>& params,
                    const CheckpointExtra* extra) {
  const std::string payload = BuildPayload(params, extra);
  const std::uint32_t crc = Crc32(payload.data(), payload.size());

  const fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      throw CheckpointError(StatusCode::kUnavailable, "checkpoint: cannot create directory " +
                               target.parent_path().string() + ": " + ec.message());
    }
  }

  // Atomic write: everything goes to a sibling temp file which is renamed
  // over the target only after a successful flush, so a crash at any point
  // leaves either the old checkpoint or the complete new one — never a
  // partial file under the real name. The temp name carries the pid so
  // concurrent writers to the same target never interleave bytes or steal
  // each other's rename; last rename wins with a complete file either way.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw CheckpointError(StatusCode::kUnavailable, "checkpoint: cannot open " + tmp + " for writing");
    const std::uint32_t version = kCheckpointVersionLatest;
    const std::uint64_t payload_size = payload.size();
    os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    os.write(reinterpret_cast<const char*>(&version), sizeof(version));
    os.write(reinterpret_cast<const char*>(&payload_size), sizeof(payload_size));
    os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    if (!os) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw CheckpointError(StatusCode::kUnavailable, "checkpoint: write failed for " + tmp);
    }
  }
#ifdef __unix__
  FsyncPath(tmp, /*directory=*/false);
#endif
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw CheckpointError(StatusCode::kUnavailable, "checkpoint: cannot rename " + tmp + " to " + path);
  }
#ifdef __unix__
  if (target.has_parent_path()) FsyncPath(target.parent_path().string(), true);
#endif
}

CheckpointInfo LoadCheckpoint(const std::string& path,
                              const std::vector<Parameter*>& params) {
  M3_FAULT_POINT("checkpoint/load");
  const std::string file = ReadWholeFile(path);
  PayloadReader header(file.data(), std::min(file.size(), kHeaderSizeV2));
  if (file.size() < kHeaderSizeV1) {
    throw CheckpointError(StatusCode::kDataLoss, "checkpoint: file too short: " + path);
  }
  if (header.Pod<std::uint32_t>() != kMagic) {
    throw CheckpointError(StatusCode::kDataLoss, "checkpoint: bad magic in " + path);
  }
  const auto version = header.Pod<std::uint32_t>();

  CheckpointInfo info;
  info.version = version;
  std::vector<NamedTensor> loaded;

  if (version == 1) {
    // v1: [magic|version|count|entries...], no checksum, params only.
    PayloadReader r(file.data() + 8, file.size() - 8);
    loaded = ParseParamSection(r);
  } else if (version == 2) {
    if (file.size() < kHeaderSizeV2) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: truncated header in " + path);
    }
    const auto payload_size = header.Pod<std::uint64_t>();
    const auto crc = header.Pod<std::uint32_t>();
    if (payload_size != file.size() - kHeaderSizeV2) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: truncated file " + path);
    }
    if (Crc32(file.data() + kHeaderSizeV2, payload_size) != crc) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: CRC mismatch in " + path);
    }
    PayloadReader r(file.data() + kHeaderSizeV2, payload_size);
    const auto flags = r.Pod<std::uint32_t>();
    loaded = ParseParamSection(r);
    if (flags & kFlagOptimizer) {
      info.extra.has_optimizer = true;
      info.extra.adam_step = r.Pod<std::int64_t>();
      for (NamedTensor& nt : loaded) {
        nt.adam_m = r.TensorOf(nt.value.rows(), nt.value.cols(), "adam_m " + nt.name);
        nt.adam_v = r.TensorOf(nt.value.rows(), nt.value.cols(), "adam_v " + nt.name);
      }
    }
    if (flags & kFlagTrainer) {
      info.extra.has_trainer = true;
      info.extra.epochs_done = r.Pod<std::int32_t>();
      info.extra.batch_offset = r.Pod<std::int64_t>();
      info.extra.partial_epoch_loss = r.Pod<double>();
      info.extra.partial_epoch_samples = r.Pod<std::uint64_t>();
      info.extra.lr = r.Pod<float>();
      info.extra.split_seed = r.Pod<std::uint64_t>();
      info.extra.shuffle_rng.state = r.Pod<std::uint64_t>();
      info.extra.shuffle_rng.inc = r.Pod<std::uint64_t>();
      info.extra.shuffle_rng.seed = r.Pod<std::uint64_t>();
      info.extra.shuffle_rng.cached_normal = r.Pod<double>();
      info.extra.shuffle_rng.has_cached_normal = r.Pod<std::uint8_t>() != 0;
    }
  } else {
    throw CheckpointError(StatusCode::kInvalidArgument, "checkpoint: unsupported version in " + path);
  }

  // Validate everything against the destination parameters before applying
  // anything, so a throw never leaves `params` half-updated.
  std::unordered_map<std::string, const NamedTensor*> by_name;
  by_name.reserve(loaded.size());
  for (const NamedTensor& nt : loaded) by_name.emplace(nt.name, &nt);
  for (const Parameter* p : params) {
    auto it = by_name.find(p->name);
    if (it == by_name.end()) {
      throw CheckpointError(StatusCode::kInvalidArgument, "checkpoint: missing parameter " + p->name);
    }
    const Tensor& v = it->second->value;
    if (v.rows() != p->value.rows() || v.cols() != p->value.cols()) {
      throw CheckpointError(StatusCode::kInvalidArgument,
                            "checkpoint: shape mismatch for " + p->name + " (file " +
                                std::to_string(v.rows()) + "x" + std::to_string(v.cols()) +
                                ", model " + std::to_string(p->value.rows()) + "x" +
                                std::to_string(p->value.cols()) + ")");
    }
  }
  if (loaded.size() != params.size()) {
    // The file parsed cleanly but does not describe this model: either it
    // carries tensors no parameter claims (a different architecture) or
    // duplicate names. Reject rather than silently ignore the extras.
    std::unordered_set<std::string> want;
    want.reserve(params.size());
    for (const Parameter* p : params) want.insert(p->name);
    for (const NamedTensor& nt : loaded) {
      if (want.find(nt.name) == want.end()) {
        throw CheckpointError(StatusCode::kInvalidArgument,
                              "checkpoint: unknown parameter " + nt.name +
                                  " (file has " + std::to_string(loaded.size()) +
                                  " tensors, model has " + std::to_string(params.size()) +
                                  ")");
      }
    }
    throw CheckpointError(StatusCode::kInvalidArgument,
                          "checkpoint: duplicate parameter entries (file has " +
                              std::to_string(loaded.size()) + " tensors, model has " +
                              std::to_string(params.size()) + ")");
  }

  for (Parameter* p : params) {
    const NamedTensor& nt = *by_name.at(p->name);
    p->value = nt.value;
    p->grad = Tensor::Zeros(p->value.rows(), p->value.cols());
    if (info.extra.has_optimizer) {
      p->adam_m = nt.adam_m;
      p->adam_v = nt.adam_v;
    } else {
      p->adam_m = Tensor::Zeros(p->value.rows(), p->value.cols());
      p->adam_v = Tensor::Zeros(p->value.rows(), p->value.cols());
    }
  }
  return info;
}

bool IsCheckpointFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return is && magic == kMagic;
}

std::vector<std::string> CheckpointRotationChain(const std::string& path, int keep) {
  std::vector<std::string> chain{path};
  for (int k = 1; k < keep; ++k) chain.push_back(path + "." + std::to_string(k));
  return chain;
}

void SaveCheckpointRotating(const std::string& path,
                            const std::vector<Parameter*>& params,
                            const CheckpointExtra* extra, int keep) {
  if (keep < 1) keep = 1;
  const std::vector<std::string> chain = CheckpointRotationChain(path, keep);
  std::error_code ec;
  // Shift oldest-first so each rename's destination is already free; a crash
  // mid-rotation at worst leaves a gap in the chain, never a corrupt file.
  fs::remove(chain.back(), ec);
  for (int k = keep - 1; k >= 1; --k) {
    if (fs::exists(chain[static_cast<std::size_t>(k - 1)], ec)) {
      fs::rename(chain[static_cast<std::size_t>(k - 1)],
                 chain[static_cast<std::size_t>(k)], ec);
    }
  }
  SaveCheckpoint(path, params, extra);
}

RecoveredCheckpoint LoadNewestValidCheckpoint(const std::string& path,
                                              const std::vector<Parameter*>& params,
                                              int keep) {
  if (keep < 1) keep = 1;
  std::string errors;
  for (const std::string& candidate : CheckpointRotationChain(path, keep)) {
    try {
      RecoveredCheckpoint rec;
      rec.info = LoadCheckpoint(candidate, params);
      rec.path = candidate;
      return rec;
    } catch (const std::runtime_error& e) {
      errors += std::string("\n  ") + e.what();
    }
  }
  throw CheckpointError(StatusCode::kNotFound,
                        "checkpoint: no loadable checkpoint for " + path + ":" +
                           errors);
}

}  // namespace m3::ml
