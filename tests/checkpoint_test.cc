// Crash-safety of the checkpoint subsystem: v2 round-trips with optimizer
// and trainer state, v1 backward compatibility, corruption detection
// (truncation at every offset, bit flips, hostile length fields), last-K
// rotation with fallback, and bitwise-deterministic resume. The served load
// (ModelRegistry, which builds its model from ml::CheckpointParams) gets the
// same hostile inputs, and training a served model must match training a
// loaded one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/trainer.h"
#include "ml/checkpoint.h"
#include "serve/registry.h"
#include "temp_path.h"
#include "util/rng.h"

namespace m3 {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test so rotation chains don't collide.
std::string ScratchDir(const std::string& name) {
  const std::string dir = TempPath("m3_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Put(std::string& buf, T v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Wraps a raw payload in a valid v2 header (correct size and CRC), so tests
// can exercise the *structural* validation behind the checksum.
std::string WrapV2(const std::string& payload) {
  std::string file;
  Put<std::uint32_t>(file, 0x334D4C4Bu);  // magic "KLM3"
  Put<std::uint32_t>(file, 2);
  Put<std::uint64_t>(file, payload.size());
  Put<std::uint32_t>(file, ml::Crc32(payload.data(), payload.size()));
  file += payload;
  return file;
}

ml::Parameter MakeParam(const std::string& name, int rows, int cols,
                        std::uint64_t seed) {
  Rng rng(seed);
  ml::Parameter p(name, ml::Tensor::Randn(rows, cols, rng, 1.0f));
  p.adam_m = ml::Tensor::Randn(rows, cols, rng, 0.1f);
  p.adam_v = ml::Tensor::Randn(rows, cols, rng, 0.01f);
  return p;
}

void ExpectTensorsEq(const ml::Tensor& a, const ml::Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.vec()[i], b.vec()[i]) << what << " diverges at element " << i;
  }
}

// Bit-at-a-time reflected CRC-32, the definition the table-driven
// ml::Crc32 must reproduce.
std::uint32_t BitwiseCrc32(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Checkpoint, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(ml::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ml::Crc32(nullptr, 0), 0u);
  Rng rng(91);
  std::vector<unsigned char> bytes(64 + 8);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.NextU64());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(ml::Crc32(bytes.data() + start, len), BitwiseCrc32(bytes.data() + start, len))
          << "start " << start << " length " << len;
    }
  }
}

TEST(CheckpointV2, RoundTripWithOptimizerAndTrainerState) {
  const std::string path = ScratchDir("roundtrip") + "/m.ckpt";
  ml::Parameter a = MakeParam("layer.a", 3, 4, 11);
  ml::Parameter b = MakeParam("layer.b", 1, 7, 12);

  ml::CheckpointExtra extra;
  extra.has_optimizer = true;
  extra.adam_step = 1234;
  extra.has_trainer = true;
  extra.epochs_done = 17;
  extra.batch_offset = 40;
  extra.partial_epoch_loss = 0.625;
  extra.partial_epoch_samples = 40;
  extra.lr = 2.5e-4f;
  extra.split_seed = 99;
  Rng stream(7);
  stream.Normal();  // populate the Box-Muller cache
  extra.shuffle_rng = stream.SaveState();

  ml::SaveCheckpoint(path, {&a, &b}, &extra);
  EXPECT_TRUE(ml::IsCheckpointFile(path));

  ml::Parameter a2("layer.a", ml::Tensor::Zeros(3, 4));
  ml::Parameter b2("layer.b", ml::Tensor::Zeros(1, 7));
  const ml::CheckpointInfo info = ml::LoadCheckpoint(path, {&a2, &b2});

  EXPECT_EQ(info.version, 2u);
  ASSERT_TRUE(info.extra.has_optimizer);
  EXPECT_EQ(info.extra.adam_step, 1234);
  ASSERT_TRUE(info.extra.has_trainer);
  EXPECT_EQ(info.extra.epochs_done, 17);
  EXPECT_EQ(info.extra.batch_offset, 40);
  EXPECT_EQ(info.extra.partial_epoch_loss, 0.625);
  EXPECT_EQ(info.extra.partial_epoch_samples, 40u);
  EXPECT_EQ(info.extra.lr, 2.5e-4f);
  EXPECT_EQ(info.extra.split_seed, 99u);
  EXPECT_EQ(info.extra.shuffle_rng.state, extra.shuffle_rng.state);
  EXPECT_EQ(info.extra.shuffle_rng.inc, extra.shuffle_rng.inc);
  EXPECT_EQ(info.extra.shuffle_rng.seed, extra.shuffle_rng.seed);
  EXPECT_EQ(info.extra.shuffle_rng.cached_normal, extra.shuffle_rng.cached_normal);
  EXPECT_EQ(info.extra.shuffle_rng.has_cached_normal,
            extra.shuffle_rng.has_cached_normal);

  ExpectTensorsEq(a2.value, a.value, "a.value");
  ExpectTensorsEq(b2.value, b.value, "b.value");
  ExpectTensorsEq(a2.adam_m, a.adam_m, "a.adam_m");
  ExpectTensorsEq(a2.adam_v, a.adam_v, "a.adam_v");
  ExpectTensorsEq(b2.adam_m, b.adam_m, "b.adam_m");
  ExpectTensorsEq(b2.adam_v, b.adam_v, "b.adam_v");

  // A restored RNG continues the stream exactly (including the cached
  // Box-Muller variate).
  Rng replayed(1);
  replayed.RestoreState(info.extra.shuffle_rng);
  EXPECT_EQ(stream.Normal(), replayed.Normal());
  EXPECT_EQ(stream.NextU64(), replayed.NextU64());
}

TEST(CheckpointV2, ParamsOnlySaveResetsAdamState) {
  const std::string path = ScratchDir("paramsonly") + "/m.ckpt";
  ml::Parameter a = MakeParam("a", 2, 2, 21);
  ml::SaveCheckpoint(path, {&a});  // no extra sections

  ml::Parameter a2 = MakeParam("a", 2, 2, 22);  // nonzero moments to clobber
  const ml::CheckpointInfo info = ml::LoadCheckpoint(path, {&a2});
  EXPECT_FALSE(info.extra.has_optimizer);
  EXPECT_FALSE(info.extra.has_trainer);
  ExpectTensorsEq(a2.value, a.value, "value");
  for (std::size_t i = 0; i < a2.adam_m.size(); ++i) {
    ASSERT_EQ(a2.adam_m.vec()[i], 0.0f);
    ASSERT_EQ(a2.adam_v.vec()[i], 0.0f);
  }
}

TEST(CheckpointV2, V1BackwardCompatLoad) {
  const std::string path = ScratchDir("v1compat") + "/m.ckpt";
  Rng rng(5);
  const ml::Tensor vals = ml::Tensor::Randn(2, 3, rng, 1.0f);

  // Hand-written v1 file: [magic|version=1|count|name_len|name|rows|cols|data].
  std::string file;
  Put<std::uint32_t>(file, 0x334D4C4Bu);
  Put<std::uint32_t>(file, 1);
  Put<std::uint32_t>(file, 1);
  Put<std::uint32_t>(file, 1);
  file += 'x';
  Put<std::int32_t>(file, 2);
  Put<std::int32_t>(file, 3);
  file.append(reinterpret_cast<const char*>(vals.data()), vals.size() * sizeof(float));
  WriteFileBytes(path, file);

  ml::Parameter p = MakeParam("x", 2, 3, 33);
  const ml::CheckpointInfo info = ml::LoadCheckpoint(path, {&p});
  EXPECT_EQ(info.version, 1u);
  EXPECT_FALSE(info.extra.has_optimizer);
  EXPECT_FALSE(info.extra.has_trainer);
  ExpectTensorsEq(p.value, vals, "value");
  for (std::size_t i = 0; i < p.adam_m.size(); ++i) {
    ASSERT_EQ(p.adam_m.vec()[i], 0.0f);  // v1 carries no optimizer state
  }
}

TEST(Checkpoint, Crc32CombineMatchesTheConcatenation) {
  Rng rng(92);
  std::vector<unsigned char> bytes(300);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.NextU64());
  const std::uint32_t whole = ml::Crc32(bytes.data(), bytes.size());
  for (std::size_t cut : {0, 1, 7, 8, 9, 64, 150, 299, 300}) {
    const std::uint32_t a = ml::Crc32(bytes.data(), cut);
    const std::uint32_t b = ml::Crc32(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(ml::Crc32Combine(a, b, bytes.size() - cut), whole) << "cut at " << cut;
    EXPECT_EQ(ml::Crc32(bytes.data() + cut, bytes.size() - cut, a), whole) << "cut at " << cut;
  }
}

TEST(CheckpointV2, TruncationAtEveryOffsetDetected) {
  const std::string dir = ScratchDir("truncate");
  const std::string path = dir + "/m.ckpt";
  ml::Parameter a = MakeParam("a", 2, 3, 41);
  ml::Parameter b = MakeParam("b", 1, 4, 42);
  ml::CheckpointExtra extra;
  extra.has_optimizer = true;
  extra.adam_step = 7;
  extra.has_trainer = true;
  extra.lr = 1e-3f;
  ml::SaveCheckpoint(path, {&a, &b}, &extra);

  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 20u);
  const std::string cut = dir + "/cut.ckpt";
  ml::Parameter a2("a", ml::Tensor::Zeros(2, 3));
  ml::Parameter b2("b", ml::Tensor::Zeros(1, 4));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(cut, bytes.substr(0, len));
    EXPECT_THROW(ml::LoadCheckpoint(cut, {&a2, &b2}), std::runtime_error)
        << "truncation at byte " << len << " was not detected";
  }
  // The untruncated file still loads.
  WriteFileBytes(cut, bytes);
  EXPECT_NO_THROW(ml::LoadCheckpoint(cut, {&a2, &b2}));
}

TEST(CheckpointV2, BitFlipAnywhereDetected) {
  const std::string dir = ScratchDir("bitflip");
  const std::string path = dir + "/m.ckpt";
  ml::Parameter a = MakeParam("a", 2, 3, 51);
  ml::CheckpointExtra extra;
  extra.has_optimizer = true;
  extra.has_trainer = true;
  ml::SaveCheckpoint(path, {&a}, &extra);

  const std::string bytes = ReadFileBytes(path);
  const std::string flipped_path = dir + "/flipped.ckpt";
  ml::Parameter a2("a", ml::Tensor::Zeros(2, 3));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    WriteFileBytes(flipped_path, flipped);
    EXPECT_THROW(ml::LoadCheckpoint(flipped_path, {&a2}), std::runtime_error)
        << "bit flip at byte " << i << " was not detected";
  }
}

TEST(CheckpointV2, HostileLengthFieldsRejectedCleanly) {
  const std::string dir = ScratchDir("hostile");
  ml::Parameter p("x", ml::Tensor::Zeros(2, 2));

  // Absurd name length (would previously size a multi-GB string).
  {
    std::string payload;
    Put<std::uint32_t>(payload, 0);           // flags
    Put<std::uint32_t>(payload, 1);           // count
    Put<std::uint32_t>(payload, 0xFFFFFFFFu); // name_len
    WriteFileBytes(dir + "/name.ckpt", WrapV2(payload));
    EXPECT_THROW(ml::LoadCheckpoint(dir + "/name.ckpt", {&p}), std::runtime_error);
  }
  // Negative rows: must not reach the Tensor constructor.
  {
    std::string payload;
    Put<std::uint32_t>(payload, 0);
    Put<std::uint32_t>(payload, 1);
    Put<std::uint32_t>(payload, 1);
    payload += 'x';
    Put<std::int32_t>(payload, -1);
    Put<std::int32_t>(payload, 4);
    WriteFileBytes(dir + "/neg.ckpt", WrapV2(payload));
    EXPECT_THROW(ml::LoadCheckpoint(dir + "/neg.ckpt", {&p}), std::runtime_error);
  }
  // Huge rows*cols whose product would overflow a naive 32-bit size: the
  // declared data cannot fit in the payload, so this must throw before any
  // allocation sized from it.
  {
    std::string payload;
    Put<std::uint32_t>(payload, 0);
    Put<std::uint32_t>(payload, 1);
    Put<std::uint32_t>(payload, 1);
    payload += 'x';
    Put<std::int32_t>(payload, 1 << 20);
    Put<std::int32_t>(payload, 1 << 20);
    WriteFileBytes(dir + "/huge.ckpt", WrapV2(payload));
    EXPECT_THROW(ml::LoadCheckpoint(dir + "/huge.ckpt", {&p}), std::runtime_error);
  }
  // v1 files get the same bounds validation (they have no CRC to catch it).
  {
    std::string file;
    Put<std::uint32_t>(file, 0x334D4C4Bu);
    Put<std::uint32_t>(file, 1);
    Put<std::uint32_t>(file, 1);
    Put<std::uint32_t>(file, 0xFFFFFFFFu);  // name_len
    WriteFileBytes(dir + "/v1.ckpt", file);
    EXPECT_THROW(ml::LoadCheckpoint(dir + "/v1.ckpt", {&p}), std::runtime_error);
  }
}

TEST(CheckpointV2, LoadFailureLeavesParamsUntouched) {
  const std::string dir = ScratchDir("untouched");
  const std::string path = dir + "/m.ckpt";
  ml::Parameter a = MakeParam("a", 2, 3, 61);
  ml::SaveCheckpoint(path, {&a});

  std::string bytes = ReadFileBytes(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x10);  // corrupt the tail
  WriteFileBytes(path, bytes);

  ml::Parameter a2 = MakeParam("a", 2, 3, 62);
  const ml::Tensor before_value = a2.value;
  const ml::Tensor before_m = a2.adam_m;
  EXPECT_THROW(ml::LoadCheckpoint(path, {&a2}), std::runtime_error);
  ExpectTensorsEq(a2.value, before_value, "value after failed load");
  ExpectTensorsEq(a2.adam_m, before_m, "adam_m after failed load");
}

TEST(CheckpointV2, AtomicSaveNeverLeavesPartialFile) {
  // The temp file from an in-progress save must not shadow the target: a
  // good checkpoint followed by a save that leaves a stale .tmp (simulating
  // a crash between write and rename) still loads the good file.
  const std::string dir = ScratchDir("atomic");
  const std::string path = dir + "/m.ckpt";
  ml::Parameter a = MakeParam("a", 2, 3, 71);
  ml::SaveCheckpoint(path, {&a});
  WriteFileBytes(path + ".tmp", "partial garbage from a crashed writer");

  ml::Parameter a2("a", ml::Tensor::Zeros(2, 3));
  EXPECT_NO_THROW(ml::LoadCheckpoint(path, {&a2}));
  ExpectTensorsEq(a2.value, a.value, "value");
}

TEST(CheckpointV2, ParentDirectoriesCreated) {
  const std::string dir = ScratchDir("mkdirs");
  const std::string path = dir + "/a/b/c/m.ckpt";
  ml::Parameter a = MakeParam("a", 2, 2, 81);
  EXPECT_NO_THROW(ml::SaveCheckpoint(path, {&a}));
  EXPECT_TRUE(ml::IsCheckpointFile(path));

  // M3Model::Save shares the same path (the old behavior was an opaque
  // failure when models/ did not exist).
  M3Model model;
  EXPECT_NO_THROW(model.Save(dir + "/x/y/model.ckpt"));
  EXPECT_TRUE(ml::IsCheckpointFile(dir + "/x/y/model.ckpt"));
}

TEST(CheckpointV2, RotationKeepsLastKAndFallsBackPastCorruption) {
  const std::string dir = ScratchDir("rotation");
  const std::string path = dir + "/m.ckpt";
  ml::Parameter p("p", ml::Tensor::Zeros(1, 1));

  // Four generations with keep=3: generation 0 falls off the end.
  for (int gen = 0; gen < 4; ++gen) {
    p.value.at(0, 0) = static_cast<float>(gen);
    ml::SaveCheckpointRotating(path, {&p}, nullptr, 3);
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".1"));
  EXPECT_TRUE(fs::exists(path + ".2"));
  EXPECT_FALSE(fs::exists(path + ".3"));

  ml::Parameter q("p", ml::Tensor::Zeros(1, 1));
  ml::RecoveredCheckpoint rec = ml::LoadNewestValidCheckpoint(path, {&q}, 3);
  EXPECT_EQ(rec.path, path);
  EXPECT_EQ(q.value.at(0, 0), 3.0f);

  // Truncate the newest: recovery falls back to the previous generation.
  const std::string newest = ReadFileBytes(path);
  WriteFileBytes(path, newest.substr(0, newest.size() / 2));
  rec = ml::LoadNewestValidCheckpoint(path, {&q}, 3);
  EXPECT_EQ(rec.path, path + ".1");
  EXPECT_EQ(q.value.at(0, 0), 2.0f);

  // Corrupt that one too: falls back to the oldest retained generation.
  WriteFileBytes(path + ".1", "junk");
  rec = ml::LoadNewestValidCheckpoint(path, {&q}, 3);
  EXPECT_EQ(rec.path, path + ".2");
  EXPECT_EQ(q.value.at(0, 0), 1.0f);

  // Nothing valid left: a clean error, not a crash.
  WriteFileBytes(path + ".2", "junk");
  EXPECT_THROW(ml::LoadNewestValidCheckpoint(path, {&q}, 3), std::runtime_error);
}

// ------------------------------------------------------------------ resume --

// Small model + synthetic tensor-only samples (same pattern as
// trainer_parallel_test.cc) keep each train step cheap while exercising the
// full code path.
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

TrainOptions ResumeTrainOptions(int epochs) {
  TrainOptions opts;
  opts.epochs = epochs;
  opts.batch_size = 5;  // 23 samples -> ragged tail batch
  opts.lr = 1e-3f;
  opts.lr_decay_every = 3;  // exercise LR-decay restoration across resume
  opts.val_frac = 0.2;
  opts.seed = 9;
  return opts;
}

void ExpectModelsBitwiseEqual(M3Model& want, M3Model& got, const char* what) {
  const std::vector<ml::Parameter*> w = want.params();
  const std::vector<ml::Parameter*> g = got.params();
  ASSERT_EQ(w.size(), g.size());
  for (std::size_t p = 0; p < w.size(); ++p) {
    ASSERT_EQ(w[p]->value.size(), g[p]->value.size());
    for (std::size_t i = 0; i < w[p]->value.size(); ++i) {
      ASSERT_EQ(w[p]->value.vec()[i], g[p]->value.vec()[i])
          << what << ": parameter " << w[p]->name << " diverges at element " << i;
    }
  }
}

TEST(Resume, BitwiseIdenticalAfterEpochBoundaryResume) {
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 23, 42);
  const std::string dir = ScratchDir("resume_boundary");

  // Uninterrupted reference: train(8).
  M3Model full(cfg);
  const TrainReport full_report = TrainModel(full, samples, ResumeTrainOptions(8));

  // train(4) with checkpointing, then resume into a *fresh* model to 8.
  M3Model first(cfg);
  TrainOptions opts4 = ResumeTrainOptions(4);
  opts4.checkpoint_path = dir + "/m.ckpt";
  opts4.checkpoint_every = 4;
  TrainModel(first, samples, opts4);

  M3Model second(cfg);
  TrainOptions opts8 = ResumeTrainOptions(8);
  opts8.checkpoint_path = dir + "/m.ckpt";
  opts8.resume_from = dir + "/m.ckpt";
  opts8.seed = 12345;  // must be ignored: the stored split seed wins
  const TrainReport resumed = TrainModel(second, samples, opts8);

  EXPECT_EQ(resumed.start_epoch, 4);
  EXPECT_EQ(resumed.resumed_from, dir + "/m.ckpt");
  ASSERT_EQ(resumed.train_loss.size(), 4u);
  // The resumed epochs' losses match the uninterrupted run's exactly.
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_EQ(resumed.train_loss[e], full_report.train_loss[e + 4])
        << "train loss differs at resumed epoch " << e;
    EXPECT_EQ(resumed.val_loss[e], full_report.val_loss[e + 4])
        << "val loss differs at resumed epoch " << e;
  }
  ExpectModelsBitwiseEqual(full, second, "train(8) vs train(4)+resume(4)");
}

TEST(Resume, BitwiseIdenticalAfterMidEpochGracefulStop) {
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 23, 42);
  const std::string dir = ScratchDir("resume_midepoch");

  M3Model full(cfg);
  const TrainReport full_report = TrainModel(full, samples, ResumeTrainOptions(3));

  // A stop request raised before training stops it after the first batch,
  // mid-epoch-0; the trainer must save a mid-epoch checkpoint.
  M3Model first(cfg);
  TrainOptions opts = ResumeTrainOptions(3);
  opts.checkpoint_path = dir + "/m.ckpt";
  RequestTrainStop();
  const TrainReport stopped = TrainModel(first, samples, opts);
  ClearTrainStop();
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_TRUE(stopped.train_loss.empty());  // epoch 0 never completed
  ASSERT_TRUE(ml::IsCheckpointFile(dir + "/m.ckpt"));

  M3Model second(cfg);
  TrainOptions resume_opts = ResumeTrainOptions(3);
  resume_opts.checkpoint_path = dir + "/m.ckpt";
  resume_opts.resume_from = dir + "/m.ckpt";
  const TrainReport resumed = TrainModel(second, samples, resume_opts);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.start_epoch, 0);  // epoch 0 resumes from its interior
  ASSERT_EQ(resumed.train_loss.size(), full_report.train_loss.size());
  for (std::size_t e = 0; e < full_report.train_loss.size(); ++e) {
    // The partial-epoch loss carried through the checkpoint makes even the
    // interrupted epoch's reported loss identical.
    EXPECT_EQ(resumed.train_loss[e], full_report.train_loss[e])
        << "train loss differs at epoch " << e;
    EXPECT_EQ(resumed.val_loss[e], full_report.val_loss[e])
        << "val loss differs at epoch " << e;
  }
  ExpectModelsBitwiseEqual(full, second, "uninterrupted vs mid-epoch stop+resume");
}

TEST(Resume, FallsBackToOlderCheckpointWhenNewestTruncated) {
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 23, 42);
  const std::string dir = ScratchDir("resume_fallback");

  M3Model full(cfg);
  const TrainReport full_report = TrainModel(full, samples, ResumeTrainOptions(6));
  (void)full_report;

  // Checkpoint every epoch for 4 epochs, then simulate a crash that
  // truncated the newest checkpoint (epoch 4). Resume must fall back to the
  // epoch-3 checkpoint and still converge to the identical final state.
  M3Model first(cfg);
  TrainOptions opts4 = ResumeTrainOptions(4);
  opts4.checkpoint_path = dir + "/m.ckpt";
  opts4.checkpoint_every = 1;
  opts4.checkpoint_keep = 3;
  TrainModel(first, samples, opts4);

  const std::string newest = ReadFileBytes(dir + "/m.ckpt");
  WriteFileBytes(dir + "/m.ckpt", newest.substr(0, newest.size() - 37));

  M3Model second(cfg);
  TrainOptions opts6 = ResumeTrainOptions(6);
  opts6.checkpoint_path = dir + "/m.ckpt";
  opts6.resume_from = dir + "/m.ckpt";
  const TrainReport resumed = TrainModel(second, samples, opts6);

  EXPECT_EQ(resumed.resumed_from, dir + "/m.ckpt.1");
  EXPECT_EQ(resumed.start_epoch, 3);  // epoch-4 state was lost; 3 survived
  ExpectModelsBitwiseEqual(full, second, "fallback resume vs uninterrupted");
}

TEST(Resume, MissingCheckpointIsACleanError) {
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 8, 42);
  M3Model model(cfg);
  TrainOptions opts = ResumeTrainOptions(2);
  opts.resume_from = ScratchDir("resume_missing") + "/nope.ckpt";
  EXPECT_THROW(TrainModel(model, samples, opts), std::runtime_error);
}

TEST(Trainer, EmptyTrainSplitReturnsEmptyReport) {
  const M3ModelConfig cfg = SmallConfig();
  M3Model model(cfg);

  // No samples at all.
  TrainOptions opts = ResumeTrainOptions(3);
  TrainReport report = TrainModel(model, {}, opts);
  EXPECT_TRUE(report.train_loss.empty());
  EXPECT_TRUE(report.val_loss.empty());

  // Every sample lands in the validation split.
  const std::vector<Sample> samples = SyntheticSamples(cfg, 6, 42);
  opts.val_frac = 1.0;
  report = TrainModel(model, samples, opts);
  EXPECT_TRUE(report.train_loss.empty());

  // Zero epochs: no losses, no UB in callers that guard .back().
  opts.val_frac = 0.2;
  opts.epochs = 0;
  report = TrainModel(model, samples, opts);
  EXPECT_TRUE(report.train_loss.empty());
}

// ----------------------------------------------------------- served load --

// A model small enough that a checkpoint of it, with optimizer and trainer
// sections, can be cut at every offset and bit-flipped at every byte.
M3ModelConfig TinyServedConfig() {
  M3ModelConfig cfg;
  cfg.feat_dim = 4;
  cfg.d_model = 4;
  cfg.num_heads = 1;
  cfg.num_layers = 1;
  cfg.ff_dim = 4;
  cfg.spec_dim = 2;
  cfg.mlp_hidden = 4;
  cfg.out_dim = 4;
  cfg.max_seq = 2;
  return cfg;
}

// A training checkpoint of TinyServedConfig (optimizer and trainer sections).
std::string TinyTrainingCheckpoint(const std::string& dir) {
  M3Model model(TinyServedConfig());
  ml::CheckpointExtra extra;
  extra.has_optimizer = true;
  extra.adam_step = 3;
  extra.has_trainer = true;
  extra.lr = 1e-3f;
  const std::string path = dir + "/tiny.ckpt";
  ml::SaveCheckpoint(path, model.params(), &extra);
  return path;
}

// `path` must be refused by Reload with kDataLoss or kInvalidArgument,
// publishing nothing: `serving` keeps serving.
void ExpectServedLoadRefused(serve::ModelRegistry& reg, const std::string& path,
                             const std::shared_ptr<const serve::ModelSnapshot>& serving,
                             const std::string& what) {
  const auto refused = [](StatusCode c) {
    return c == StatusCode::kDataLoss || c == StatusCode::kInvalidArgument;
  };
  const Status reloaded = reg.Reload(path);
  ASSERT_FALSE(reloaded.ok()) << what << " was published";
  EXPECT_TRUE(refused(reloaded.code())) << what << ": " << reloaded.ToString();
  ASSERT_EQ(reg.Current(), serving) << what << " replaced the serving snapshot";
}

TEST(ModelRegistry, ServedSnapshotHoldsOnlyParameterValues) {
  const std::string path = ScratchDir("served_values") + "/m.ckpt";
  {
    // A training checkpoint: the served load must not keep its moments.
    M3Model model(SmallConfig());
    ml::CheckpointExtra extra;
    extra.has_optimizer = true;
    extra.has_trainer = true;
    ml::SaveCheckpoint(path, model.params(), &extra);
  }
  serve::ModelRegistry reg(SmallConfig());
  ASSERT_TRUE(reg.Reload(path).ok());
  const M3Model& served = reg.Current()->model;
  EXPECT_TRUE(reg.Current()->info.extra.has_optimizer);
  std::size_t floats = 0;
  for (const ml::Parameter* p : served.params()) {
    floats += p->value.size() + p->grad.size() + p->adam_m.size() + p->adam_v.size();
  }
  EXPECT_EQ(floats, served.num_parameters());
  EXPECT_EQ(served.num_parameters(), M3Model(SmallConfig()).num_parameters());
}

TEST(ModelRegistry, TrainingAServedModelMatchesTrainingALoadedOne) {
  const M3ModelConfig cfg = SmallConfig();
  const std::vector<Sample> samples = SyntheticSamples(cfg, 23, 42);
  const std::string path = ScratchDir("served_train") + "/m.ckpt";
  M3ModelConfig other = cfg;
  other.init_seed = 78;  // weights the loads must replace
  M3Model(other).Save(path);

  M3Model loaded(cfg);
  loaded.Load(path);
  serve::ModelRegistry reg(cfg);
  ASSERT_TRUE(reg.Reload(path).ok());
  M3Model served = reg.Current()->model;

  const TrainReport want = TrainModel(loaded, samples, ResumeTrainOptions(3));
  const TrainReport got = TrainModel(served, samples, ResumeTrainOptions(3));
  EXPECT_EQ(got.train_loss, want.train_loss);
  EXPECT_EQ(got.val_loss, want.val_loss);
  ExpectModelsBitwiseEqual(loaded, served, "served vs loaded training");
}

TEST(ModelRegistry, TruncationAtEveryOffsetIsRefused) {
  const std::string dir = ScratchDir("served_truncate");
  const std::string path = TinyTrainingCheckpoint(dir);
  serve::ModelRegistry reg(TinyServedConfig());
  ASSERT_TRUE(reg.Reload(path).ok());
  const auto serving = reg.Current();

  const std::string bytes = ReadFileBytes(path);
  const std::string cut = dir + "/cut.ckpt";
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(cut, bytes.substr(0, len));
    ExpectServedLoadRefused(reg, cut, serving, "truncation at byte " + std::to_string(len));
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(reg.reloads_ok(), 1u);
  EXPECT_EQ(reg.reloads_failed(), bytes.size());
  WriteFileBytes(cut, bytes);
  EXPECT_TRUE(reg.Reload(cut).ok());
}

TEST(ModelRegistry, BitFlipAnywhereIsRefused) {
  const std::string dir = ScratchDir("served_bitflip");
  const std::string path = TinyTrainingCheckpoint(dir);
  serve::ModelRegistry reg(TinyServedConfig());
  ASSERT_TRUE(reg.Reload(path).ok());
  const auto serving = reg.Current();

  const std::string bytes = ReadFileBytes(path);
  const std::string flipped_path = dir + "/flipped.ckpt";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    WriteFileBytes(flipped_path, flipped);
    ExpectServedLoadRefused(reg, flipped_path, serving, "bit flip at byte " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(reg.reloads_ok(), 1u);
}

TEST(ModelRegistry, HostileLengthFieldsAndForeignTensorsAreRefused) {
  const std::string dir = ScratchDir("served_hostile");
  serve::ModelRegistry reg(TinyServedConfig());
  ASSERT_TRUE(reg.Reload(TinyTrainingCheckpoint(dir)).ok());
  const auto serving = reg.Current();

  // The param section of a valid tiny checkpoint, for payloads that keep
  // it and break what follows.
  std::string params_only;
  {
    M3Model model(TinyServedConfig());
    ml::SaveCheckpoint(dir + "/params.ckpt", model.params());
    params_only = ReadFileBytes(dir + "/params.ckpt").substr(20 + 4);  // header, flags
  }
  const auto payload = [](std::uint32_t flags, const std::string& rest) {
    std::string p;
    Put<std::uint32_t>(p, flags);
    return p + rest;
  };
  const auto one_tensor = [](std::uint32_t name_len, const std::string& name, std::int32_t rows,
                             std::int32_t cols, std::size_t floats) {
    std::string p;
    Put<std::uint32_t>(p, 1);  // count
    Put<std::uint32_t>(p, name_len);
    p += name;
    Put<std::int32_t>(p, rows);
    Put<std::int32_t>(p, cols);
    p.append(floats * sizeof(float), '\0');
    return p;
  };
  const auto refuse = [&](const std::string& name, const std::string& file) {
    WriteFileBytes(dir + "/" + name + ".ckpt", file);
    ExpectServedLoadRefused(reg, dir + "/" + name + ".ckpt", serving, name);
  };

  refuse("name_len", WrapV2(payload(0, one_tensor(0xFFFFFFFFu, "", 1, 1, 1))));
  refuse("zero_name", WrapV2(payload(0, one_tensor(0, "", 1, 1, 1))));
  refuse("neg_rows", WrapV2(payload(0, one_tensor(1, "x", -1, 4, 4))));
  refuse("huge_shape", WrapV2(payload(0, one_tensor(1, "x", 1 << 20, 1 << 20, 1))));
  {
    std::string count;
    Put<std::uint32_t>(count, 0xFFFFFFFFu);
    refuse("huge_count", WrapV2(payload(0, count)));
  }
  // Valid params, then an optimizer or trainer section cut short: the
  // served load bounds-checks sections it does not keep.
  {
    std::string opt = params_only;
    Put<std::int64_t>(opt, 3);  // adam_step, then too few moment bytes
    opt.append(16, '\0');
    refuse("short_optimizer", WrapV2(payload(1, opt)));
    std::string trainer = params_only;
    Put<std::int32_t>(trainer, 2);  // epochs_done, then nothing
    refuse("short_trainer", WrapV2(payload(2, trainer)));
  }
  // Well-formed files that do not describe this model.
  refuse("foreign_tensor", WrapV2(payload(0, one_tensor(1, "x", 2, 2, 4))));
  {
    std::string extra = params_only;
    std::uint32_t count = 0;
    std::memcpy(&count, extra.data(), sizeof(count));
    ++count;
    std::memcpy(extra.data(), &count, sizeof(count));
    extra += one_tensor(1, "x", 1, 1, 1).substr(4);  // one more entry
    refuse("extra_tensor", WrapV2(payload(0, extra)));
  }
  {
    M3ModelConfig wider = TinyServedConfig();
    wider.mlp_hidden = 8;
    M3Model model(wider);
    model.Save(dir + "/wider_src.ckpt");
    refuse("wrong_shape", ReadFileBytes(dir + "/wider_src.ckpt"));
  }
  {
    std::string v1;
    Put<std::uint32_t>(v1, 0x334D4C4Bu);
    Put<std::uint32_t>(v1, 1);
    v1 += one_tensor(0xFFFFFFFFu, "", 1, 1, 1);
    refuse("v1_name_len", v1);
    std::string v3 = ReadFileBytes(dir + "/params.ckpt");
    v3[4] = 3;  // unsupported version
    refuse("version3", v3);
  }
  EXPECT_EQ(reg.reloads_ok(), 1u);
}

}  // namespace
}  // namespace m3
