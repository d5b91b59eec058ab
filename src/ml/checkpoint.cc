#include "ml/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
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
  void Zeros(std::size_t n) { buf_.append(n, '\0'); }  // all-zero bits: 0.0f

  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

// Bounds-checked reader over an in-memory payload. Every read validates the
// remaining length first, so a corrupt length field produces a clean
// CheckpointError instead of a wild allocation or out-of-bounds read.
//
// The reader also keeps the CRC32 of the bytes it has read, so the payload
// CRC and the per-tensor CRCs cost one pass: a tensor whose CRC is asked
// for is CRC'd on its own and folded into the running value by
// Crc32Combine, and PayloadCrc() covers the rest.
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
  /// With `data_crc`, stores the CRC32 of the tensor's bytes there (only
  /// before PayloadCrc() is taken).
  Tensor TensorOf(std::int32_t rows, std::int32_t cols, const std::string& what,
                  std::uint32_t* data_crc = nullptr) {
    const std::size_t bytes = DataBytes(rows, cols, what);
    if (data_crc != nullptr) {
      crc_ = Crc32(data_ + crc_off_, off_ - crc_off_, crc_);
      *data_crc = Crc32(data_ + off_, bytes);
      crc_ = Crc32Combine(crc_, *data_crc, bytes);
      crc_off_ = off_ + bytes;
    }
    Tensor t(rows, cols);
    std::memcpy(t.data(), data_ + off_, bytes);
    off_ += bytes;
    return t;
  }

  /// Bounds-checks a tensor of the declared shape and steps over it.
  void SkipTensor(std::int32_t rows, std::int32_t cols, const std::string& what) {
    off_ += DataBytes(rows, cols, what);
  }

  /// CRC32 of the whole payload, read or not.
  std::uint32_t PayloadCrc() const { return Crc32(data_ + crc_off_, size_ - crc_off_, crc_); }

 private:
  std::size_t DataBytes(std::int32_t rows, std::int32_t cols, const std::string& what) const {
    if (rows <= 0 || cols <= 0 || rows > kMaxTensorDim || cols > kMaxTensorDim) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: invalid shape for " + what);
    }
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) * sizeof(float);
    Require(bytes, what.c_str());
    return static_cast<std::size_t>(bytes);
  }

  void Require(std::uint64_t n, const char* what) const {
    if (size_ - off_ < n) {
      throw CheckpointError(StatusCode::kDataLoss,
                            std::string("checkpoint: truncated payload reading ") + what);
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  std::uint32_t crc_ = 0;  // CRC32 of bytes [0, crc_off_)
  std::size_t crc_off_ = 0;
};

// Parses a param section into `out`, in file order, and returns the XOR of
// each tensor's data CRC32.
std::uint32_t ParseParamSection(PayloadReader& r, std::vector<Parameter>& out) {
  const auto count = r.Pod<std::uint32_t>();
  out.reserve(std::min<std::uint32_t>(count, 1024));
  std::uint32_t value_crc = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto name_len = r.Pod<std::uint32_t>();
    if (name_len == 0 || name_len > kMaxNameLen) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: invalid parameter name length");
    }
    Parameter p;
    p.name = r.String(name_len);
    const auto rows = r.Pod<std::int32_t>();
    const auto cols = r.Pod<std::int32_t>();
    std::uint32_t crc = 0;
    p.value = r.TensorOf(rows, cols, "tensor " + p.name, &crc);
    value_crc ^= crc;
    out.push_back(std::move(p));
  }
  return value_crc;
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
    // An empty moment is zero (no step yet).
    for (const Parameter* p : params) {
      for (const Tensor* m : {&p->adam_m, &p->adam_v}) {
        if (m->empty()) {
          w.Zeros(p->value.size() * sizeof(float));
        } else {
          w.TensorData(*m);
        }
      }
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

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t crc) {
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
  crc ^= 0xFFFFFFFFu;
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

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b) {
  // CRC32 is affine in its input, so crc(A B) = crc_a * x^(8 len_b) + crc_b
  // modulo the CRC polynomial (the init and final inversions cancel). In
  // the reflected order bit 31 is x^0; x^(8 len_b) comes from repeated
  // squaring of x^8 over the bits of len_b.
  const auto mul = [](std::uint32_t a, std::uint32_t b) {
    std::uint32_t product = 0;
    for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
      if (a & m) product ^= b;
      b = (b & 1u) ? 0xEDB88320u ^ (b >> 1) : b >> 1;
    }
    return product;
  };
  std::uint32_t power = 1u << 31;    // x^0
  std::uint32_t square = 1u << 23;   // x^8, then x^16, x^32, ...
  for (; len_b != 0; len_b >>= 1) {
    if (len_b & 1u) power = mul(square, power);
    square = mul(square, square);
  }
  return mul(power, crc_a) ^ crc_b;
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

CheckpointParams::CheckpointParams(const std::string& path, bool optimizer_state) {
  M3_FAULT_POINT("checkpoint/load");
  const std::string file = ReadWholeFile(path);
  PayloadReader header(file.data(), std::min(file.size(), kHeaderSizeV2));
  if (file.size() < kHeaderSizeV1) {
    throw CheckpointError(StatusCode::kDataLoss, "checkpoint: file too short: " + path);
  }
  if (header.Pod<std::uint32_t>() != kMagic) {
    throw CheckpointError(StatusCode::kDataLoss, "checkpoint: bad magic in " + path);
  }
  info_.version = header.Pod<std::uint32_t>();

  if (info_.version == 1) {
    // v1: [magic|version|count|entries...], no checksum, params only.
    PayloadReader r(file.data() + 8, file.size() - 8);
    value_crc_ = ParseParamSection(r, tensors_);
  } else if (info_.version == 2) {
    if (file.size() < kHeaderSizeV2) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: truncated header in " + path);
    }
    const auto payload_size = header.Pod<std::uint64_t>();
    const auto crc = header.Pod<std::uint32_t>();
    if (payload_size != file.size() - kHeaderSizeV2) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: truncated file " + path);
    }
    // The param section is parsed (bounds-checked, nothing applied) while
    // its bytes are CRC'd; the CRC is checked before any other section.
    PayloadReader r(file.data() + kHeaderSizeV2, payload_size);
    const auto flags = r.Pod<std::uint32_t>();
    value_crc_ = ParseParamSection(r, tensors_);
    if (r.PayloadCrc() != crc) {
      throw CheckpointError(StatusCode::kDataLoss, "checkpoint: CRC mismatch in " + path);
    }
    if (flags & kFlagOptimizer) {
      info_.extra.has_optimizer = true;
      info_.extra.adam_step = r.Pod<std::int64_t>();
      for (Parameter& p : tensors_) {
        const int rows = p.value.rows(), cols = p.value.cols();
        if (optimizer_state) {
          p.adam_m = r.TensorOf(rows, cols, "adam_m " + p.name);
          p.adam_v = r.TensorOf(rows, cols, "adam_v " + p.name);
        } else {
          r.SkipTensor(rows, cols, "adam_m " + p.name);
          r.SkipTensor(rows, cols, "adam_v " + p.name);
        }
      }
    }
    if (flags & kFlagTrainer) {
      CheckpointExtra& x = info_.extra;
      x.has_trainer = true;
      x.epochs_done = r.Pod<std::int32_t>();
      x.batch_offset = r.Pod<std::int64_t>();
      x.partial_epoch_loss = r.Pod<double>();
      x.partial_epoch_samples = r.Pod<std::uint64_t>();
      x.lr = r.Pod<float>();
      x.split_seed = r.Pod<std::uint64_t>();
      x.shuffle_rng.state = r.Pod<std::uint64_t>();
      x.shuffle_rng.inc = r.Pod<std::uint64_t>();
      x.shuffle_rng.seed = r.Pod<std::uint64_t>();
      x.shuffle_rng.cached_normal = r.Pod<double>();
      x.shuffle_rng.has_cached_normal = r.Pod<std::uint8_t>() != 0;
    }
  } else {
    throw CheckpointError(StatusCode::kInvalidArgument,
                          "checkpoint: unsupported version in " + path);
  }
  index_.reserve(tensors_.size());
  for (std::size_t i = 0; i < tensors_.size(); ++i) index_.emplace(tensors_[i].name, i);
}

Parameter CheckpointParams::Take(std::string name, int rows, int cols, Init /*init*/) {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw CheckpointError(StatusCode::kInvalidArgument, "checkpoint: missing parameter " + name);
  }
  Parameter& p = tensors_[it->second];
  if (p.value.rows() != rows || p.value.cols() != cols) {
    throw CheckpointError(StatusCode::kInvalidArgument,
                          "checkpoint: shape mismatch for " + name + " (file " +
                              std::to_string(p.value.rows()) + "x" +
                              std::to_string(p.value.cols()) + ", model " +
                              std::to_string(rows) + "x" + std::to_string(cols) + ")");
  }
  index_.erase(it);
  ++taken_;
  return std::move(p);
}

void CheckpointParams::CheckAllTaken() const {
  if (taken_ == tensors_.size()) return;
  // The file parsed cleanly but does not describe this model: it carries
  // tensors no parameter claims (a different architecture) or duplicate
  // names. Reject rather than silently ignore the extras.
  if (!index_.empty()) {
    throw CheckpointError(StatusCode::kInvalidArgument,
                          "checkpoint: unknown parameter " + index_.begin()->first +
                              " (file has " + std::to_string(tensors_.size()) +
                              " tensors, model has " + std::to_string(taken_) + ")");
  }
  throw CheckpointError(StatusCode::kInvalidArgument,
                        "checkpoint: duplicate parameter entries (file has " +
                            std::to_string(tensors_.size()) + " tensors, model has " +
                            std::to_string(taken_) + ")");
}

CheckpointInfo LoadCheckpoint(const std::string& path, const std::vector<Parameter*>& params) {
  CheckpointParams file(path, /*optimizer_state=*/true);
  // Take and check every tensor before applying anything, so a throw never
  // leaves `params` half-updated.
  std::vector<Parameter> loaded;
  loaded.reserve(params.size());
  for (const Parameter* p : params) {
    loaded.push_back(file.Take(p->name, p->value.rows(), p->value.cols(), {}));
  }
  file.CheckAllTaken();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Parameter& p = *params[i];
    p.value = std::move(loaded[i].value);
    p.grad = Tensor();
    // Empty moments (no optimizer section) reset Adam to zero.
    p.adam_m = std::move(loaded[i].adam_m);
    p.adam_v = std::move(loaded[i].adam_v);
  }
  return file.info();
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
