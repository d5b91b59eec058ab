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

}  // namespace

Status ModelRegistry::Reload(const std::string& path) {
  // Hold reload_mu_ across load *and* publish so publication order equals
  // call order: a slow reload of an older checkpoint can never overwrite a
  // newer one.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  StatusOr<std::shared_ptr<ModelSnapshot>> snap = LoadLocked(path);
  if (!snap.ok()) return snap.status();
  Publish(std::move(*snap));
  return Status::Ok();
}

StatusOr<std::shared_ptr<ModelSnapshot>> ModelRegistry::Load(const std::string& path) {
  // One load at a time (see reload_mu_ in the header). Current() only
  // takes mu_, so queries never wait on a checkpoint load. Callers that
  // need load->publish atomicity serialize their own reload path (the
  // service's reload handler does).
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  return LoadLocked(path);
}

StatusOr<std::shared_ptr<ModelSnapshot>> ModelRegistry::LoadLocked(
    const std::string& path) {
  try {
    M3_FAULT_POINT("serve/registry_reload");
  } catch (const std::exception& e) {
    reloads_failed_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(e.what()).Annotate("reloading " + path);
  }

  // Load off to the side: in-flight queries keep their snapshot, and a
  // failure here publishes nothing. The model is built from the parsed
  // checkpoint; param_crc (the XOR of each tensor's CRC32) came with the
  // payload CRC.
  std::shared_ptr<ModelSnapshot> snap;
  Status failed;
  try {
    ml::CheckpointParams params(path);
    snap = std::make_shared<ModelSnapshot>(cfg_, params);
    params.CheckAllTaken();
    snap->info = params.info();
    snap->param_crc = params.value_crc();
  } catch (const ml::CheckpointError& e) {
    failed = Status(e.code(), e.what());
  } catch (const std::exception& e) {
    failed = Status::Internal(e.what());
  }
  if (!failed.ok()) {
    reloads_failed_.fetch_add(1, std::memory_order_relaxed);
    return failed.Annotate("loading " + path);
  }
  snap->checkpoint_path = path;
  snap->digest = ParamDigest(snap->model);
  return snap;
}

void ModelRegistry::Publish(std::shared_ptr<ModelSnapshot> snap) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap->version = next_version_++;
    current_ = std::move(snap);
  }
  reloads_ok_.fetch_add(1, std::memory_order_relaxed);
}

void ModelRegistry::Republish(std::shared_ptr<const ModelSnapshot> snap) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(snap);
}

void ModelRegistry::NoteReloadRefused() {
  reloads_failed_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace m3::serve
