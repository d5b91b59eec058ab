// The query loop that runs inside a forked worker subprocess.
//
// A worker is the blast-radius boundary of the serving stack: model
// inference and path simulation run here, so a crash, hang, or memory
// corruption takes down one fork()ed child — never the daemon. The
// supervisor (serve/supervisor.h) owns the process lifecycle; this file is
// only the child-side loop plus the post-fork hygiene that makes
// fork-without-exec safe in a threaded parent.
//
// Protocol: the worker reads kQueryRequest frames off its socketpair end
// (serve/wire.h payloads over util/socket.h framing), executes each with
// the shared snapshot-level core (serve/exec.h), and writes back one
// kQueryResponse per request. A clean EOF from the supervisor means
// "drain and exit". The worker pins the model snapshot it inherited at
// fork time — a hot-reload in the parent is rolled out by replacing
// workers, not by mutating them.
//
// Chaos fault sites (armed via SupervisorOptions::worker_faults or the
// inherited M3_FAULTS environment):
//   serve/worker_crash         — std::abort() after reading a request
//   serve/worker_hang          — sleep forever (drives the watchdog)
//   serve/worker_garbage_reply — answer with unframed junk bytes
#pragma once

#include "serve/registry.h"
#include "util/socket.h"

namespace m3::serve {

inline constexpr const char* kWorkerCrashSite = "serve/worker_crash";
inline constexpr const char* kWorkerHangSite = "serve/worker_hang";
inline constexpr const char* kWorkerGarbageSite = "serve/worker_garbage_reply";

struct WorkerOptions {
  unsigned threads_per_query = 1;  // M3Options::num_threads
};

/// Post-fork hygiene for a child that will never exec: closes every fd
/// except `keep_fd` and stdio (a sibling worker inheriting our parent-end
/// socketpair fd would otherwise hold it open and mask our EOF-on-death),
/// restores default SIGINT/SIGTERM dispositions, and rebuilds the
/// process-wide ThreadPool (fork copies only the calling thread).
void PrepareWorkerChild(int keep_fd);

/// The worker's serve loop: blocks on `fd` for request frames until the
/// supervisor closes its end (or the channel errors), answering each
/// query against `snap`. Runs on the calling thread; never throws. The
/// caller should _exit(0) when this returns — stack unwinding and static
/// destructors belong to the parent's lifetime, not the fork's.
void WorkerMain(const UnixFd& fd, const ModelSnapshot& snap, const WorkerOptions& opts);

}  // namespace m3::serve
