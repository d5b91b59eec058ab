#include "serve/registry.h"

#include "ml/checkpoint.h"
#include "util/fault.h"

namespace m3::serve {
namespace {

// The content digest of (name, shape, data) per parameter, in params()
// order (a canonical traversal: the order is fixed by the layer structure).
Hash128 ParamDigest(const M3Model& model) {
  Hasher h;
  for (const ml::Parameter* p : model.params()) {
    h.Str(p->name);
    h.I32(p->value.rows());
    h.I32(p->value.cols());
    h.Bytes(p->value.data(), p->value.size() * sizeof(float));
  }
  return h.Finish();
}

// Loads `path` into a fresh snapshot off to the side: in-flight queries
// keep theirs, and a failure here publishes nothing. The model is built
// from the parsed checkpoint; param_crc (the XOR of each tensor's CRC32)
// came with the payload CRC.
StatusOr<std::shared_ptr<ModelSnapshot>> LoadSnapshot(const M3ModelConfig& cfg,
                                                      const std::string& path) {
  try {
    M3_FAULT_POINT("serve/registry_reload");
  } catch (const std::exception& e) {
    return Status::Unavailable(e.what()).Annotate("reloading " + path);
  }
  std::shared_ptr<ModelSnapshot> snap;
  try {
    ml::CheckpointParams params(path);
    snap = std::make_shared<ModelSnapshot>(cfg, params);
    params.CheckAllTaken();
    snap->info = params.info();
    snap->param_crc = params.value_crc();
  } catch (const ml::CheckpointError& e) {
    return Status(e.code(), e.what()).Annotate("loading " + path);
  } catch (const std::exception& e) {
    return Status::Internal(e.what()).Annotate("loading " + path);
  }
  snap->checkpoint_path = path;
  snap->digest = ParamDigest(snap->model);
  return snap;
}

}  // namespace

Status ModelRegistry::Reload(const std::string& path) {
  // Hold reload_mu_ across load *and* publish so publication order equals
  // call order: a slow reload of an older checkpoint can never overwrite a
  // newer one. Current() only takes mu_, so queries never wait on a load.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  StatusOr<std::shared_ptr<ModelSnapshot>> snap = LoadSnapshot(cfg_, path);
  if (!snap.ok()) {
    reloads_failed_.fetch_add(1, std::memory_order_relaxed);
    return snap.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    (*snap)->version = next_version_++;
    current_ = std::move(*snap);
  }
  reloads_ok_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace m3::serve
