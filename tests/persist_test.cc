// Durable-cache persistence tests (serve/persist.h): segment round-trips,
// corruption tolerance at every truncation offset and under single-bit
// flips (mirroring checkpoint_test.cc's every-offset discipline), hostile
// length fields, directory locking, fault-injected disk failures, and the
// service-level warm-restart invariant — a fault-free persisted hit is
// bitwise identical to a recompute.
//
// The PersistConcurrency tests are part of the designated TSan workload
// (tools/check.sh runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/persist.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "temp_path.h"
#include "topo/fat_tree.h"
#include "util/fault.h"
#include "util/hash.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3::serve {
namespace {

namespace fs = std::filesystem;

class FaultGuard {
 public:
  FaultGuard() { FaultRegistry::Instance().Reset(); }
  ~FaultGuard() { FaultRegistry::Instance().Reset(); }
};

// Fresh scratch directory per test so segment sequences don't collide.
std::string ScratchDir(const std::string& name) {
  const std::string dir = TempPath("m3_persist_" + name);
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

Hash128 K(std::uint64_t hi, std::uint64_t lo) { return Hash128{hi, lo}; }

struct Entry {
  CacheKind kind;
  Hash128 digest;
  Hash128 key;
  std::string value;
};

std::vector<Entry> SampleEntries(int n) {
  std::vector<Entry> es;
  for (int i = 0; i < n; ++i) {
    Entry e;
    e.kind = i % 2 == 0 ? CacheKind::kQuery : CacheKind::kPath;
    e.digest = K(7, 7);
    e.key = K(100 + static_cast<std::uint64_t>(i), 200);
    e.value = "value-" + std::to_string(i) + std::string(i, static_cast<char>('a' + i));
    es.push_back(std::move(e));
  }
  return es;
}

PersistOptions Opts(const std::string& dir) {
  PersistOptions o;
  o.dir = dir;
  o.flush_interval_seconds = 60.0;  // tests drive flushes explicitly
  return o;
}

// Replays everything in `dir`, asserting en route that every record the
// reader *delivers* is bitwise one of `truth` (keyed by cache key) — the
// "never serve a corrupt entry" half of the recovery contract.
struct Replay {
  std::vector<Entry> loaded;
  PersistStats stats;
};

Replay RecoverAll(const std::string& dir,
                  const std::map<std::pair<std::uint64_t, std::uint64_t>, Entry>* truth) {
  CachePersister p(Opts(dir));
  EXPECT_TRUE(p.Start().ok());
  Replay r;
  p.Recover([&](CacheKind kind, const Hash128& digest, const Hash128& key,
                const std::string& value) {
    if (truth != nullptr) {
      auto it = truth->find({key.hi, key.lo});
      // Framing + CRC + value-hash all passed: the record must be one we
      // wrote, byte for byte.
      EXPECT_TRUE(it != truth->end()) << "recovered a record that was never written";
      if (it != truth->end()) {
        EXPECT_EQ(value, it->second.value);
        EXPECT_EQ(static_cast<int>(kind), static_cast<int>(it->second.kind));
        EXPECT_EQ(digest, it->second.digest);
      }
    }
    r.loaded.push_back(Entry{kind, digest, key, value});
    return CachePersister::Recovered::kLoaded;
  });
  r.stats = p.stats();
  p.Stop();
  return r;
}

std::map<std::pair<std::uint64_t, std::uint64_t>, Entry> Truth(
    const std::vector<Entry>& es) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, Entry> m;
  for (const Entry& e : es) m[{e.key.hi, e.key.lo}] = e;
  return m;
}

// Writes `es` as one (or more) segments and returns the sole segment path.
std::string WriteOneSegment(const std::string& dir, const std::vector<Entry>& es) {
  CachePersister p(Opts(dir));
  EXPECT_TRUE(p.Start().ok());
  for (const Entry& e : es) p.Enqueue(e.kind, e.digest, e.key, e.value);
  EXPECT_TRUE(p.FlushNow().ok());
  p.Stop();
  std::string seg;
  int count = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    if (de.path().extension() == ".m3c") {
      seg = de.path().string();
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one segment";
  return seg;
}

// ----------------------------------------------------------- dir locking --

TEST(Persist, AcquireCreatesDirectoryAndWritesLock) {
  const std::string dir = ScratchDir("acquire") + "/nested/cache";
  ASSERT_FALSE(fs::exists(dir));
  CacheDirLock lock;
  ASSERT_TRUE(AcquireCacheDir(dir, &lock).ok());
  EXPECT_TRUE(lock.held());
  EXPECT_TRUE(fs::exists(dir + "/LOCK"));
  // The lock file carries the holder's pid for the refusal message.
  const std::string stamp = ReadFileBytes(dir + "/LOCK");
  EXPECT_NE(stamp.find(std::to_string(::getpid())), std::string::npos);
}

TEST(Persist, SecondAcquireRefusedWhileHeldThenSucceedsAfterRelease) {
  const std::string dir = ScratchDir("contend");
  CacheDirLock a;
  ASSERT_TRUE(AcquireCacheDir(dir, &a).ok());
  CacheDirLock b;
  const Status st = AcquireCacheDir(dir, &b);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  // The refusal names the holder.
  EXPECT_NE(st.ToString().find(std::to_string(::getpid())), std::string::npos)
      << st.ToString();
  a.Release();
  EXPECT_FALSE(a.held());
  EXPECT_TRUE(AcquireCacheDir(dir, &b).ok());
}

TEST(Persist, AcquireRejectsPathBlockedByRegularFile) {
  const std::string parent = ScratchDir("blocked");
  const std::string file = parent + "/not_a_dir";
  WriteFileBytes(file, "occupied");
  CacheDirLock lock;
  const Status st = AcquireCacheDir(file, &lock);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(lock.held());
}

// ------------------------------------------------------------ round trip --

TEST(Persist, FlushAndRecoverRoundTripBitwise) {
  const std::string dir = ScratchDir("roundtrip");
  const std::vector<Entry> es = SampleEntries(8);
  {
    CachePersister p(Opts(dir));
    ASSERT_TRUE(p.Start().ok());
    for (const Entry& e : es) p.Enqueue(e.kind, e.digest, e.key, e.value);
    const PersistStats mid = p.stats();
    EXPECT_EQ(mid.flush_backlog, 8u);
    ASSERT_TRUE(p.FlushNow().ok());
    const PersistStats after = p.stats();
    EXPECT_EQ(after.entries_flushed, 8u);
    EXPECT_EQ(after.flush_backlog, 0u);
    p.Stop();
  }
  const auto truth = Truth(es);
  const Replay r = RecoverAll(dir, &truth);
  EXPECT_EQ(r.loaded.size(), es.size());
  EXPECT_EQ(r.stats.segments_loaded, 1u);
  EXPECT_EQ(r.stats.entries_loaded, es.size());
  EXPECT_EQ(r.stats.records_corrupt, 0u);
  EXPECT_EQ(r.stats.digest_dropped, 0u);
}

TEST(Persist, RestartContinuesSegmentSequence) {
  const std::string dir = ScratchDir("sequence");
  const std::vector<Entry> es = SampleEntries(4);
  {
    CachePersister p(Opts(dir));
    ASSERT_TRUE(p.Start().ok());
    p.Enqueue(es[0].kind, es[0].digest, es[0].key, es[0].value);
    p.Enqueue(es[1].kind, es[1].digest, es[1].key, es[1].value);
    ASSERT_TRUE(p.FlushNow().ok());
    p.Stop();
  }
  {
    // A restarted persister must append fresh segments, never overwrite
    // the ones recovery still needs.
    CachePersister p(Opts(dir));
    ASSERT_TRUE(p.Start().ok());
    p.Enqueue(es[2].kind, es[2].digest, es[2].key, es[2].value);
    p.Enqueue(es[3].kind, es[3].digest, es[3].key, es[3].value);
    ASSERT_TRUE(p.FlushNow().ok());
    p.Stop();
  }
  const auto truth = Truth(es);
  const Replay r = RecoverAll(dir, &truth);
  EXPECT_EQ(r.loaded.size(), 4u);
  EXPECT_EQ(r.stats.segments_loaded, 2u);
}

TEST(Persist, DigestMismatchIsTypedNotCorrupt) {
  const std::string dir = ScratchDir("digestdrop");
  const std::vector<Entry> es = SampleEntries(6);
  WriteOneSegment(dir, es);
  CachePersister p(Opts(dir));
  ASSERT_TRUE(p.Start().ok());
  int offered = 0;
  p.Recover([&](CacheKind, const Hash128&, const Hash128&, const std::string&) {
    // Model changed across the restart: the registry rejects every entry.
    ++offered;
    return CachePersister::Recovered::kDigestMismatch;
  });
  const PersistStats s = p.stats();
  EXPECT_EQ(offered, 6);
  EXPECT_EQ(s.digest_dropped, 6u);
  EXPECT_EQ(s.entries_loaded, 0u);
  EXPECT_EQ(s.records_corrupt, 0u);
  p.Stop();
}

TEST(Persist, EnqueueBoundDropsOldest) {
  const std::string dir = ScratchDir("bound");
  PersistOptions o = Opts(dir);
  o.max_pending = 3;
  CachePersister p(o);
  ASSERT_TRUE(p.Start().ok());
  const std::vector<Entry> es = SampleEntries(8);
  for (const Entry& e : es) p.Enqueue(e.kind, e.digest, e.key, e.value);
  EXPECT_EQ(p.stats().flush_backlog, 3u);
  ASSERT_TRUE(p.FlushNow().ok());
  p.Stop();
  const auto truth = Truth(es);
  const Replay r = RecoverAll(dir, &truth);
  ASSERT_EQ(r.loaded.size(), 3u);
  // The *newest* three survived.
  for (const Entry& e : r.loaded) EXPECT_GE(e.key.hi, 105u);
}

TEST(Persist, RetentionDeletesOldestSegments) {
  const std::string dir = ScratchDir("retention");
  PersistOptions o = Opts(dir);
  o.max_segments = 2;
  CachePersister p(o);
  ASSERT_TRUE(p.Start().ok());
  const std::vector<Entry> es = SampleEntries(6);
  for (const Entry& e : es) {
    p.Enqueue(e.kind, e.digest, e.key, e.value);
    ASSERT_TRUE(p.FlushNow().ok());  // one segment per entry
  }
  p.Stop();
  int segments = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    if (de.path().extension() == ".m3c") ++segments;
  }
  EXPECT_EQ(segments, 2);
  const auto truth = Truth(es);
  const Replay r = RecoverAll(dir, &truth);
  EXPECT_EQ(r.loaded.size(), 2u);  // newest two
}

// -------------------------------------------------- corruption tolerance --

TEST(PersistRecovery, TruncationAtEveryOffsetNeverCrashesOrServesCorrupt) {
  const std::string src_dir = ScratchDir("trunc_src");
  const std::vector<Entry> es = SampleEntries(3);
  const std::string seg = WriteOneSegment(src_dir, es);
  const std::string bytes = ReadFileBytes(seg);
  ASSERT_GT(bytes.size(), 0u);
  const auto truth = Truth(es);

  const std::string cut_dir = ScratchDir("trunc_cut");
  const std::string cut = cut_dir + "/" + fs::path(seg).filename().string();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(cut, bytes.substr(0, len));
    const Replay r = RecoverAll(cut_dir, &truth);  // asserts bitwise inside
    EXPECT_LE(r.loaded.size(), es.size()) << "len=" << len;
    if (len < bytes.size()) {
      // Something was lost: either fewer entries loaded or a typed
      // corruption counter fired — never a silent full recovery.
      EXPECT_TRUE(r.loaded.size() < es.size() || r.stats.records_corrupt > 0)
          << "len=" << len;
    }
  }
}

TEST(PersistRecovery, SingleBitFlipAtEveryByteNeverCrashesOrServesCorrupt) {
  const std::string src_dir = ScratchDir("flip_src");
  const std::vector<Entry> es = SampleEntries(3);
  const std::string seg = WriteOneSegment(src_dir, es);
  const std::string bytes = ReadFileBytes(seg);
  const auto truth = Truth(es);

  const std::string flip_dir = ScratchDir("flip_cut");
  const std::string flipped_path = flip_dir + "/" + fs::path(seg).filename().string();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    WriteFileBytes(flipped_path, flipped);
    // RecoverAll's truth check is the core assertion: every record that
    // survives the CRC + value-hash ladder is bitwise one we wrote.
    const Replay r = RecoverAll(flip_dir, &truth);
    EXPECT_LE(r.loaded.size(), es.size()) << "flip at byte " << i;
  }
}

TEST(PersistRecovery, HostileLengthFieldSkipsRecordAndResyncs) {
  const std::string src_dir = ScratchDir("hostile_src");
  const std::vector<Entry> es = SampleEntries(1);
  const std::string seg = WriteOneSegment(src_dir, es);
  const std::string bytes = ReadFileBytes(seg);
  constexpr std::size_t kHeader = 8;  // segment magic + format version
  ASSERT_GT(bytes.size(), kHeader);

  // Segment layout: header | hostile record (wild length) | the real record.
  std::string hostile(bytes.substr(0, kHeader));
  const std::uint32_t magic = 0x4d335243u;  // record magic
  const std::uint32_t wild_len = 0xFFFFFFF0u;
  const std::uint32_t junk_crc = 0xDEADBEEFu;
  hostile.append(reinterpret_cast<const char*>(&magic), 4);
  hostile.append(reinterpret_cast<const char*>(&wild_len), 4);
  hostile.append(reinterpret_cast<const char*>(&junk_crc), 4);
  hostile += bytes.substr(kHeader);

  const std::string dir = ScratchDir("hostile");
  WriteFileBytes(dir + "/" + fs::path(seg).filename().string(), hostile);
  const auto truth = Truth(es);
  const Replay r = RecoverAll(dir, &truth);
  // The wild length must not be trusted (it would claim ~4 GiB): the reader
  // counts it corrupt and resyncs to the genuine record behind it.
  EXPECT_EQ(r.loaded.size(), 1u);
  EXPECT_GE(r.stats.records_corrupt, 1u);
}

TEST(PersistRecovery, GarbageSegmentSkippedWhole) {
  const std::string dir = ScratchDir("garbage");
  WriteFileBytes(dir + "/seg-00000042.m3c", "this is not a segment at all");
  const Replay r = RecoverAll(dir, nullptr);
  EXPECT_TRUE(r.loaded.empty());
  EXPECT_EQ(r.stats.segments_loaded, 0u);
  EXPECT_GE(r.stats.records_corrupt, 1u);
}

// --------------------------------------------------------- fault injection --

TEST(Persist, WriteFaultFailsFlushTypedThenRecovers) {
  FaultGuard guard;
  const std::string dir = ScratchDir("writefault");
  CachePersister p(Opts(dir));
  ASSERT_TRUE(p.Start().ok());
  const std::vector<Entry> es = SampleEntries(2);
  for (const Entry& e : es) p.Enqueue(e.kind, e.digest, e.key, e.value);

  FaultRegistry::Instance().Arm(kPersistWriteFaultSite);
  EXPECT_FALSE(p.FlushNow().ok());
  const PersistStats failed = p.stats();
  EXPECT_GE(failed.flush_failures, 1u);
  EXPECT_EQ(failed.entries_flushed, 0u);
  EXPECT_EQ(failed.flush_backlog, 2u);  // batch re-queued, nothing lost

  FaultRegistry::Instance().Reset();
  EXPECT_TRUE(p.FlushNow().ok());
  EXPECT_EQ(p.stats().entries_flushed, 2u);
  p.Stop();

  const auto truth = Truth(es);
  EXPECT_EQ(RecoverAll(dir, &truth).loaded.size(), 2u);
}

TEST(Persist, ReadFaultCountsSegmentCorruptNeverThrows) {
  FaultGuard guard;
  const std::string dir = ScratchDir("readfault");
  WriteOneSegment(dir, SampleEntries(2));
  FaultRegistry::Instance().Arm(kPersistReadFaultSite);
  CachePersister p(Opts(dir));
  ASSERT_TRUE(p.Start().ok());
  int offered = 0;
  p.Recover([&](CacheKind, const Hash128&, const Hash128&, const std::string&) {
    ++offered;
    return CachePersister::Recovered::kLoaded;
  });
  EXPECT_EQ(offered, 0);
  EXPECT_GE(p.stats().records_corrupt, 1u);
  p.Stop();
}

// ------------------------------------------------------------ concurrency --

TEST(PersistConcurrency, EnqueueFlushStatsRecoverRaceFreely) {
  const std::string dir = ScratchDir("race");
  PersistOptions o = Opts(dir);
  o.flush_interval_seconds = 0.005;  // flusher actively racing
  CachePersister p(o);
  ASSERT_TRUE(p.Start().ok());

  constexpr int kPerThread = 200;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&p, t] {
      for (int i = 0; i < kPerThread; ++i) {
        p.Enqueue(CacheKind::kPath, K(1, 2),
                  K(static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(i)),
                  "v" + std::to_string(t) + "." + std::to_string(i));
      }
    });
  }
  threads.emplace_back([&p, &done] {
    while (!done.load()) {
      (void)p.FlushNow();
      (void)p.stats();
    }
  });
  // Recovery concurrent with enqueue/flush (the serving-while-recovering
  // configuration): must not race or double-replay in-flight segments.
  threads.emplace_back([&p] {
    p.Recover([](CacheKind, const Hash128&, const Hash128&, const std::string&) {
      return CachePersister::Recovered::kLoaded;
    });
  });
  threads[0].join();
  threads[1].join();
  done.store(true);
  threads[2].join();
  threads[3].join();
  ASSERT_TRUE(p.FlushNow().ok());
  p.Stop();

  const Replay r = RecoverAll(dir, nullptr);
  EXPECT_EQ(r.loaded.size(), 2u * kPerThread);
  EXPECT_EQ(r.stats.records_corrupt, 0u);
}

// ------------------------------------------------------ service-level E2E --

M3ModelConfig SmallModel() {
  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  return mcfg;
}

std::string SmallCheckpoint() {
  static const std::string path = [] {
    const std::string p = TempPath("persist_small_model.ckpt");
    M3Model model(SmallModel());
    model.Save(p);
    return p;
  }();
  return path;
}

ServiceOptions PersistServiceOptions(const std::string& cache_dir) {
  ServiceOptions so;
  so.model_config = SmallModel();
  so.num_workers = 2;
  so.threads_per_query = 1;
  so.cache_dir = cache_dir;
  so.cache_flush_interval_seconds = 60.0;  // tests flush explicitly
  return so;
}

QueryRequest SmallQuery(std::uint64_t wl_seed = 3) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = 300;
  wspec.seed = wl_seed;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  QueryRequest req;
  req.oversub = 2.0;
  req.num_paths = 3;
  req.flows.reserve(flows.size());
  for (const Flow& f : flows) {
    WireFlow wf;
    wf.id = f.id;
    wf.src_host = ft.HostIndexOf(f.src);
    wf.dst_host = ft.HostIndexOf(f.dst);
    wf.size = f.size;
    wf.arrival = f.arrival;
    wf.priority = f.priority;
    req.flows.push_back(wf);
  }
  return req;
}

void ExpectBitwiseEqual(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.bucket_pct, b.bucket_pct);
  EXPECT_EQ(a.total_counts, b.total_counts);
  EXPECT_EQ(a.combined_pct, b.combined_pct);
}

TEST(PersistService, WarmRestartHitIsBitwiseIdenticalToRecompute) {
  const std::string dir = ScratchDir("service_warm");
  const QueryRequest req = SmallQuery();
  QueryResponse first;
  {
    EstimationService s1(PersistServiceOptions(dir));
    ASSERT_TRUE(s1.ReloadModel(SmallCheckpoint()).ok());
    ASSERT_TRUE(s1.Start().ok());
    s1.WaitForPersistRecovery();
    first = s1.Query(req);
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    ASSERT_TRUE(s1.FlushPersistNow().ok());
    const ServerStatsWire st = s1.Stats();
    EXPECT_TRUE(st.persist_enabled);
    EXPECT_GE(st.persist_entries_flushed, 1u);
    s1.Stop();
  }  // destructor releases the dir lock

  // Cold reference: an independent service with no persistence computes
  // the same answer from scratch.
  {
    EstimationService cold(PersistServiceOptions(""));
    ASSERT_TRUE(cold.ReloadModel(SmallCheckpoint()).ok());
    ASSERT_TRUE(cold.Start().ok());
    const QueryResponse ref = cold.Query(req);
    ASSERT_TRUE(ref.status.ok());
    ExpectBitwiseEqual(first, ref);
    cold.Stop();
  }

  // Warm restart: same directory, same model. The query must be a
  // query-cache hit served from recovered state, bitwise identical.
  {
    EstimationService s2(PersistServiceOptions(dir));
    ASSERT_TRUE(s2.ReloadModel(SmallCheckpoint()).ok());
    ASSERT_TRUE(s2.Start().ok());
    s2.WaitForPersistRecovery();
    const ServerStatsWire st = s2.Stats();
    EXPECT_GE(st.persist_segments_loaded, 1u);
    EXPECT_GE(st.persist_entries_loaded, 1u);
    EXPECT_EQ(st.persist_records_corrupt, 0u);

    const std::uint64_t hits_before = st.query_cache[0];
    const QueryResponse warm = s2.Query(req);
    ASSERT_TRUE(warm.status.ok());
    ExpectBitwiseEqual(first, warm);
    EXPECT_EQ(s2.Stats().query_cache[0], hits_before + 1)
        << "warm-restart query should hit the recovered cache";
    s2.Stop();
  }
}

TEST(PersistService, ModelSwapAcrossRestartDropsRecoveredEntries) {
  const std::string dir = ScratchDir("service_swap");
  const QueryRequest req = SmallQuery();
  {
    EstimationService s1(PersistServiceOptions(dir));
    ASSERT_TRUE(s1.ReloadModel(SmallCheckpoint()).ok());
    ASSERT_TRUE(s1.Start().ok());
    ASSERT_TRUE(s1.Query(req).status.ok());
    ASSERT_TRUE(s1.FlushPersistNow().ok());
    s1.Stop();
  }
  // Restart with *different* weights: recovered entries must be dropped as
  // digest mismatches, not served.
  M3ModelConfig other = SmallModel();
  other.init_seed = 777;
  const std::string other_ckpt = TempPath("persist_other_model.ckpt");
  M3Model(other).Save(other_ckpt);

  EstimationService s2(PersistServiceOptions(dir));
  ASSERT_TRUE(s2.ReloadModel(other_ckpt).ok());
  ASSERT_TRUE(s2.Start().ok());
  s2.WaitForPersistRecovery();
  const ServerStatsWire st = s2.Stats();
  EXPECT_EQ(st.persist_entries_loaded, 0u);
  EXPECT_GE(st.persist_digest_dropped, 1u);
  const std::uint64_t hits_before = st.query_cache[0];
  ASSERT_TRUE(s2.Query(req).status.ok());
  EXPECT_EQ(s2.Stats().query_cache[0], hits_before) << "stale entry must not hit";
  s2.Stop();
}

TEST(PersistService, CorruptSegmentsOnBootAreSkippedAndServingContinues) {
  const std::string dir = ScratchDir("service_corrupt");
  WriteFileBytes(dir + "/seg-00000001.m3c", "garbage segment left by a crash");
  EstimationService s(PersistServiceOptions(dir));
  ASSERT_TRUE(s.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(s.Start().ok());
  s.WaitForPersistRecovery();
  const QueryResponse resp = s.Query(SmallQuery());
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  const ServerStatsWire st = s.Stats();
  EXPECT_GE(st.persist_records_corrupt, 1u);
  EXPECT_EQ(st.persist_entries_loaded, 0u);
  s.Stop();
}

TEST(PersistService, RetiredWireVersionEntriesAreCountedCorruptNeverServed) {
  // Entries persisted by a build that spoke the previous wire version: the
  // right digest and key, but a retired version tag. Recovery must count
  // them corrupt and never serve them; a current-version entry beside them
  // still loads.
  const QueryRequest req = SmallQuery();
  Hash128 digest;
  QueryResponse answer;
  {
    EstimationService probe(PersistServiceOptions(""));
    ASSERT_TRUE(probe.ReloadModel(SmallCheckpoint()).ok());
    digest = probe.registry().Current()->digest;
    answer = probe.ExecuteInline(req);
    ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  }
  const auto retag = [](std::string blob) {
    const std::uint32_t retired = kWireVersion - 1;
    std::memcpy(&blob[0], &retired, 4);
    return blob;
  };
  PathEstimate pe{};
  pe.counts[0] = 3.0;
  const std::string dir = ScratchDir("service_retired");
  {
    CachePersister p(Opts(dir));
    ASSERT_TRUE(p.Start().ok());
    p.Enqueue(CacheKind::kQuery, digest, QueryCacheKey(req, digest),
              retag(EncodeQueryResponse(answer)));
    p.Enqueue(CacheKind::kPath, digest, K(1, 1), retag(EncodePathEstimateValue(pe)));
    p.Enqueue(CacheKind::kPath, digest, K(2, 2), EncodePathEstimateValue(pe));
    ASSERT_TRUE(p.FlushNow().ok());
    p.Stop();
  }

  EstimationService s(PersistServiceOptions(dir));
  ASSERT_TRUE(s.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(s.Start().ok());
  s.WaitForPersistRecovery();
  const ServerStatsWire st = s.Stats();
  EXPECT_EQ(st.persist_records_corrupt, 2u);
  EXPECT_EQ(st.persist_entries_loaded, 1u);
  const QueryResponse resp = s.Query(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.query_cache_hit) << "a retired-version entry was served";
  EXPECT_EQ(s.Stats().query_cache[0], st.query_cache[0]);
  ExpectBitwiseEqual(resp, answer);
  s.Stop();
}

TEST(PersistService, SecondServiceRefusesSharedCacheDir) {
  const std::string dir = ScratchDir("service_shared");
  EstimationService s1(PersistServiceOptions(dir));
  ASSERT_TRUE(s1.ReloadModel(SmallCheckpoint()).ok());
  ASSERT_TRUE(s1.Start().ok());
  EstimationService s2(PersistServiceOptions(dir));
  ASSERT_TRUE(s2.ReloadModel(SmallCheckpoint()).ok());
  const Status st = s2.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  s1.Stop();
}

// ----------------------------------------------------------- wire codecs --

TEST(Persist, PathEstimateValueCodecRoundTrips) {
  PathEstimate pe;
  for (std::size_t b = 0; b < pe.counts.size(); ++b) {
    pe.counts[b] = static_cast<double>(b) * 1.5;
    for (std::size_t q = 0; q < pe.pct[b].size(); ++q) {
      pe.pct[b][q] = static_cast<double>(b * 100 + q) * 0.25;
    }
  }
  const std::string blob = EncodePathEstimateValue(pe);
  StatusOr<PathEstimate> back = DecodePathEstimateValue(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->counts, pe.counts);
  EXPECT_EQ(back->pct, pe.pct);
  EXPECT_FALSE(DecodePathEstimateValue(blob.substr(0, blob.size() - 1)).ok());
}

}  // namespace
}  // namespace m3::serve
