// The three ways into the serving system and the benchmark's workloads.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/router.h"
#include "serve/service.h"

namespace perfbench {

struct RunResult {
  Counts counts;
  Metrics metrics;
};

/// Service set-up as the benchmark times it: construct, load the checkpoint
/// through ReloadModel, Start, then poll Ping until ready. nullptr on failure.
std::unique_ptr<m3::serve::EstimationService> StartService(const m3::serve::ServiceOptions& so,
                                                           const std::string& ckpt,
                                                           double* setup_s);

/// paper_query's way in: in-process, 1 scheduler worker, full pool per query.
m3::serve::ServiceOptions InProcessOptions();
/// config_sweep's way in: m3d worker mode, nproc workers x 1 thread.
m3::serve::ServiceOptions WorkerModeOptions(const Config& c);

/// fleet_repeat's way in: Router in this process + shard daemons (this
/// binary re-run with --shard) over unix sockets.
struct Fleet {
  std::vector<pid_t> pids;
  std::vector<std::string> socks;
  std::unique_ptr<m3::serve::Router> router;
};
bool StartFleet(const Config& c, const std::string& ckpt, Fleet* f, double* setup_s);
void StopFleet(Fleet* f);
std::vector<std::string> ShardSockets(const Config& c);
/// Shard daemon body (the --shard mode of this binary).
int ShardMain(const std::string& sock, const std::string& ckpt);
/// Median round trip of `n` ping frames to one shard, ms.
double PingRttMs(const std::string& sock, int n);

/// config_sweep inputs: reference workloads x NetConfig grid, configs
/// varying fastest.
struct SweepPlan {
  std::vector<QueryRequest> bases;
  std::vector<m3::NetConfig> grid;
  int count = 0;
  QueryRequest At(int k) const;
};
SweepPlan MakeSweepPlan(const Config& c, const m3::FatTree& ft);

RunResult RunPaperQuery(const Config& c, const std::string& ckpt);
RunResult RunConfigSweep(const Config& c, const std::string& ckpt);
RunResult RunFleetRepeat(const Config& c, const std::string& ckpt);
/// The traced run (replay.cc): per-layer metrics for c.workload.
RunResult RunTraced(const Config& c, const std::string& ckpt);

}  // namespace perfbench
