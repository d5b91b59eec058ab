// Parallel-for over an index range, backed by a lazily-initialized
// long-lived thread pool. Used for independent path-level / link-level
// simulations (the paper's path simulations are embarrassingly parallel,
// §3.1) and for data-parallel minibatch training (core/trainer.cc).
//
// The pool is created on first use and sized from the M3_NUM_THREADS
// environment variable when set, otherwise std::thread::hardware_concurrency().
// Work is distributed as chunked index ranges: each participant owns a
// contiguous shard of [0, n) and steals from the fullest remaining shard
// once its own is drained, so uneven per-item cost (e.g. variable-length
// background sequences) does not serialize the tail. The calling thread
// participates as a worker, so ParallelFor is cheap enough for inner
// loops — dispatch is one mutex acquisition plus a condition-variable
// wake, with no thread spawn.
//
// Exceptions thrown by `fn` are captured and the first one is rethrown on
// the caller thread after all items have run (matching the original
// spawn-per-call implementation). Nested ParallelFor calls execute inline
// on the calling participant to avoid deadlocking the single job slot.
#pragma once

#include <cstddef>
#include <functional>

namespace m3 {

class ThreadPool {
 public:
  /// The process-wide pool, created (and its threads started) on first call.
  static ThreadPool& Instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum concurrency (worker threads + the calling thread).
  unsigned num_threads() const { return num_threads_; }

  /// Runs fn(i) for i in [0, n). `max_threads` caps the participants for
  /// this call (0 = no cap beyond the pool size).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                   unsigned max_threads);

  /// Call in a freshly fork()ed child before any ParallelFor: fork copies
  /// only the calling thread, so a pool instantiated in the parent exists in
  /// the child with no worker threads behind it — dispatching to it would
  /// hang forever. Rebuilds the pool's internals (the parent-era state,
  /// whose mutexes may have been mid-held at fork, is abandoned) and spawns
  /// fresh workers. A no-op when the pool was never instantiated.
  static void ReinitAfterForkIfLive();

 private:
  ThreadPool();
  ~ThreadPool();

  struct Impl;
  Impl* impl_;
  unsigned num_threads_ = 1;
};

/// Runs fn(i) for i in [0, n) across up to `num_threads` threads (0 = use
/// the pool's full width). Exceptions from workers are captured and the
/// first one is rethrown on the caller thread.
inline void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                        unsigned num_threads = 0) {
  ThreadPool::Instance().ParallelFor(n, fn, num_threads);
}

}  // namespace m3
