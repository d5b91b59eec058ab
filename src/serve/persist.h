// Durable result caches: append-only, CRC32-framed segment files that spill
// LruCache contents under a --cache-dir so a daemon restart recovers its
// warm set instead of dropping into the cold-path regime.
//
// Design (DESIGN.md §14):
//  - CachePersister owns a background flusher thread. Call-sites enqueue
//    (kind, model digest, cache key, wire-encoded value) tuples at cache
//    insert time; the flusher batches them into delta segments on a fixed
//    interval, so write amplification is bounded by the insert rate, never
//    by cache size.
//  - Each segment is written with the checkpoint.cc atomic discipline:
//    temp file + fsync + rename + parent-dir fsync. A crash mid-flush
//    leaves either a complete segment or none under the real name.
//  - Every record is independently framed (magic | length | CRC32) and the
//    payload carries a 128-bit content hash of the value, recomputed at
//    load. Recovery tolerates arbitrary byte-level damage: a torn write,
//    truncated tail, bit flip, or hostile length field skips the bad record
//    (or the remainder of the segment) with a typed counter — it never
//    throws out of Recover() and never yields a corrupt value.
//  - Cache keys are content hashes of the inputs and values are
//    deterministic functions of those inputs, so a fault-free recovered hit
//    is bitwise identical to a recompute — the same invariant as the
//    in-memory caches.
//  - Disk growth is bounded by segment-count retention (oldest segments
//    deleted past max_segments); these are caches, so dropping the oldest
//    spill is always safe.
//
// A pid-stamped flock-held LOCK file refuses directory sharing between
// daemons; the kernel releases it on any process death (including SIGKILL),
// so chaos restarts reacquire immediately.
#pragma once

#include <cstdint>

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "util/hash.h"
#include "util/status.h"

namespace m3::serve {

/// Fault-injection sites (see util/fault.h) for deterministic disk faults.
inline constexpr const char* kPersistFlushFaultSite = "persist/flush";
inline constexpr const char* kPersistWriteFaultSite = "persist/segment_write";
inline constexpr const char* kPersistReadFaultSite = "persist/segment_read";

/// Counters exported as the persist_* metrics (serve/metrics.h).
struct PersistStats {
  std::uint64_t segments_loaded = 0;   // segments with a parseable header
  std::uint64_t entries_loaded = 0;    // records recovered into a cache
  std::uint64_t entries_flushed = 0;   // records durably written
  std::uint64_t records_corrupt = 0;   // records/segments skipped as damaged
  std::uint64_t digest_dropped = 0;    // records dropped on model mismatch
  std::uint64_t flush_backlog = 0;     // enqueued records awaiting a flush
  std::uint64_t flush_rounds = 0;      // flusher wakeups that wrote data
  std::uint64_t flush_failures = 0;    // flush/write rounds that failed
};

/// Which cache a persisted record belongs to. Values are on-disk ABI.
enum class CacheKind : std::uint8_t {
  kQuery = 1,       // EstimationService whole-query cache
  kPath = 2,        // EstimationService per-path cache
  kRouterPath = 3,  // m3d_router per-path result cache
};

/// Holds the flock on a cache directory's LOCK file. Move-only; releases
/// on destruction. The kernel drops the lock on process death, so a
/// SIGKILLed daemon never wedges its directory.
class CacheDirLock {
 public:
  CacheDirLock() = default;
  ~CacheDirLock() { Release(); }
  CacheDirLock(CacheDirLock&& o) noexcept : fd_(o.fd_), path_(std::move(o.path_)) {
    o.fd_ = -1;
  }
  CacheDirLock& operator=(CacheDirLock&& o) noexcept;
  CacheDirLock(const CacheDirLock&) = delete;
  CacheDirLock& operator=(const CacheDirLock&) = delete;

  bool held() const { return fd_ >= 0; }
  void Release();

 private:
  friend Status AcquireCacheDir(const std::string& dir, CacheDirLock* lock);
  int fd_ = -1;
  std::string path_;
};

/// Validates `dir` for use as a cache directory: creates it if missing
/// (like checkpoint.cc), probes writability, and takes an exclusive
/// pid-stamped flock on `dir`/LOCK. Returns kUnavailable with the holder's
/// pid if another live daemon owns the directory.
Status AcquireCacheDir(const std::string& dir, CacheDirLock* lock);

struct PersistOptions {
  std::string dir;                      // segment directory (required)
  double flush_interval_seconds = 2.0;  // flusher wakeup period
  std::size_t max_pending = 65536;      // enqueue bound; oldest dropped past it
  std::size_t max_segment_bytes = 8u << 20;  // split flush batches at this size
  std::size_t max_segments = 256;       // retention: delete oldest past this
};

/// Append-only segment writer + corruption-tolerant reader for cache
/// contents. One instance per daemon; thread-safe.
class CachePersister {
 public:
  explicit CachePersister(PersistOptions opts);
  ~CachePersister();
  CachePersister(const CachePersister&) = delete;
  CachePersister& operator=(const CachePersister&) = delete;

  /// Scans the directory for existing segments (to continue the sequence)
  /// and starts the background flusher thread.
  Status Start();

  /// Stops the flusher after a final drain flush. Idempotent.
  void Stop();

  /// Queues one cache entry for the next flush round. `value` is the
  /// wire-encoded cache value; `digest` identifies the model it was
  /// computed under. Never blocks on I/O; past max_pending the oldest
  /// queued record is dropped (it is only a cache).
  void Enqueue(CacheKind kind, const Hash128& digest, const Hash128& key,
               std::string value);

  /// Synchronously flushes everything queued. Test/shutdown hook.
  Status FlushNow();

  /// Outcome of offering one recovered record to the owning cache.
  enum class Recovered : std::uint8_t {
    kLoaded,          // decoded and inserted
    kDigestMismatch,  // model digest no longer matches the registry
    kCorrupt,         // framing was intact but the value failed to decode
  };
  using RecoverFn = std::function<Recovered(
      CacheKind kind, const Hash128& digest, const Hash128& key,
      const std::string& value)>;

  /// Replays every segment in sequence order through `fn`, tolerating
  /// arbitrary byte-level damage (typed counters, never throws). Safe to
  /// run concurrently with Enqueue/flushing: only segments present when
  /// Recover begins are replayed.
  void Recover(const RecoverFn& fn);

  PersistStats stats() const;
  const PersistOptions& options() const { return opts_; }

 private:
  struct Pending {
    CacheKind kind;
    Hash128 digest;
    Hash128 key;
    std::string value;
  };

  Status FlushLocked();  // caller holds flush_mu_
  Status WriteSegment(const std::string& body, std::uint64_t seq);
  void EnforceRetention();
  void FlusherLoop();

  PersistOptions opts_;

  mutable std::mutex mu_;  // guards pending_, stats_, next_seq_
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  PersistStats stats_;
  std::uint64_t next_seq_ = 0;
  bool running_ = false;
  bool stop_ = false;

  std::mutex flush_mu_;  // serializes flush rounds (flusher vs FlushNow)
  std::thread flusher_;
};

}  // namespace m3::serve
