#include "serve/worker.h"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "serve/exec.h"
#include "serve/wire.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace m3::serve {
namespace {

// True when an armed fault at `site` fires on this hit (the mode is
// irrelevant for worker sites: the *site* names the behavior).
bool WorkerFaultFires(const char* site) {
  FaultRegistry& reg = FaultRegistry::Instance();
  if (!reg.any_armed()) return false;
  return reg.Hit(site).has_value();
}

}  // namespace

void PrepareWorkerChild(int keep_fd) {
  // Close inherited fds. Without this, each worker holds the parent ends
  // of every *other* worker's socketpair, so a sibling's death would not
  // surface as EOF to the supervisor. /proc/self/fd enumerates exactly the
  // open set (a blind 3..OPEN_MAX loop can be a million syscalls).
  std::vector<int> to_close;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    const int dir_fd = ::dirfd(dir);
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const int fd = std::atoi(e->d_name);
      if (fd > 2 && fd != keep_fd && fd != dir_fd) to_close.push_back(fd);
    }
    ::closedir(dir);
  } else {
    for (int fd = 3; fd < 1024; ++fd) {
      if (fd != keep_fd) to_close.push_back(fd);
    }
  }
  for (int fd : to_close) ::close(fd);

  // The daemon's SIGINT/SIGTERM handling belongs to the parent; a worker
  // should just die on either.
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);

  ThreadPool::ReinitAfterForkIfLive();
}

void WorkerMain(const UnixFd& fd, const ModelSnapshot& snap, const WorkerOptions& opts) {
  // Worker-local execution resources (the parent-side whole-query cache
  // provides cross-query reuse).
  TopoMemo topos;
  ExecContext ctx;
  ctx.topos = &topos;
  ctx.threads_per_query = opts.threads_per_query;

  for (;;) {
    StatusOr<Frame> frame = RecvFrame(fd);
    if (!frame.ok()) return;  // supervisor closed or channel broke: exit

    // Chaos sites fire after the request is read and before execution —
    // the "worker dies between accept and reply" window the supervisor
    // must survive.
    if (WorkerFaultFires(kWorkerCrashSite)) std::abort();
    if (WorkerFaultFires(kWorkerHangSite)) {
      for (;;) ::pause();  // wedged until the watchdog SIGKILLs us
    }

    QueryResponse resp;
    if (frame->type != static_cast<std::uint32_t>(MsgType::kQueryRequest)) {
      resp.status = Status::InvalidArgument("worker: unexpected frame type " +
                                            std::to_string(frame->type));
    } else if (StatusOr<QueryRequest> req = DecodeQueryRequest(frame->payload);
               !req.ok()) {
      resp.status = req.status();
    } else {
      resp = ExecuteQueryOnSnapshot(*req, snap, ctx);
    }

    if (WorkerFaultFires(kWorkerGarbageSite)) {
      // A wrong answer in the wrong shape: raw junk where a frame should
      // be. The supervisor must detect, replace us, and retry elsewhere.
      const char junk[] = "\xde\xad\xbe\xef worker went sideways";
      (void)!::write(fd.get(), junk, sizeof(junk));
      continue;
    }

    const Status sent =
        SendFrame(fd, static_cast<std::uint32_t>(MsgType::kQueryResponse),
                  EncodeQueryResponse(resp));
    if (!sent.ok()) return;
  }
}

}  // namespace m3::serve
