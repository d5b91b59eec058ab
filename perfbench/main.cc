// Paper-scale m3 benchmark. See README.md in this directory.
//
//   m3_perfbench --workload paper_query|config_sweep|fleet_repeat --seed N
//                --seconds S --trace 0|1 --work-dir DIR [--toy]
//   m3_perfbench --shard SOCKET --model CHECKPOINT   (fleet shard daemon)
//
// The last line of stdout is the result: {"correct", "attempted", "failed",
// "metrics"}; every other line starts with '#'.
#include <sched.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "core/model.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: m3_perfbench --workload paper_query|config_sweep|fleet_repeat --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--toy]\n"
               "       m3_perfbench --shard SOCKET --model CHECKPOINT\n");
  return 2;
}

unsigned UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos || s.size() > 19) {
    return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  bool toy = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--toy") {
      toy = true;
      continue;
    }
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) return Usage();
    args[k.substr(2)] = argv[++i];
  }
  if (args.count("shard") != 0) {
    if (args.count("model") == 0) return Usage();
    return ShardMain(args["shard"], args["model"]);
  }

  Config c;
  c.workload = args["workload"];
  c.toy = toy;
  std::uint64_t seconds = 0, trace = 0;
  if ((c.workload != "paper_query" && c.workload != "config_sweep" &&
       c.workload != "fleet_repeat") ||
      !ParseU64(args["seed"], &c.seed) || !ParseU64(args["seconds"], &seconds) || seconds < 1 ||
      seconds > 3600 || !ParseU64(args["trace"], &trace) || trace > 1 ||
      args["work-dir"].empty()) {
    return Usage();
  }
  c.seconds = static_cast<int>(seconds);
  c.trace = trace == 1;
  if (c.toy) {
    c.num_flows = 1500;
    c.num_paths = 8;
  }
  c.nproc = UsableCores();
  // Every pool width is explicit: this process's pool is nproc wide (shard
  // daemons get their own value when spawned).
  setenv("M3_NUM_THREADS", std::to_string(c.nproc).c_str(), 1);
  char exe[PATH_MAX];
  if (realpath(argv[0], exe) == nullptr) {
    std::perror("perfbench: realpath");
    return 1;
  }
  c.self_exe = exe;
  const std::string base = args["work-dir"];
  c.work_dir = base + "/run-" + std::to_string(getpid());
  c.trace_path = base + "/trace-" + c.workload + ".json";

  try {
    std::filesystem::create_directories(c.work_dir);
    // The benchmark's own input: the default model's init_seed weights as
    // a checkpoint, which every way in loads through ReloadModel.
    const std::string ckpt = c.work_dir + "/model.ckpt";
    {
      m3::M3Model model;
      model.Save(ckpt);
    }
    std::printf("# host: %s\n", HostFingerprint(c).c_str());
    std::fflush(stdout);
    RunResult res;
    if (c.trace) {
      res = RunTraced(c, ckpt);
    } else if (c.workload == "paper_query") {
      res = RunPaperQuery(c, ckpt);
    } else if (c.workload == "config_sweep") {
      res = RunConfigSweep(c, ckpt);
    } else {
      res = RunFleetRepeat(c, ckpt);
    }
    std::filesystem::remove_all(c.work_dir);

    if (res.counts.attempted == 0) res.counts.Record(false);
    std::printf("# %s: attempted %ld, ok %ld, failed %ld; answer checks %s\n",
                c.workload.c_str(), res.counts.attempted, res.counts.ok, res.counts.failed,
                res.counts.correct ? "passed" : "FAILED");
    std::printf("# host: %s\n", HostFingerprint(c).c_str());
    res.metrics.PrintTable();
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
                res.counts.correct ? "true" : "false", res.counts.attempted, res.counts.failed,
                res.metrics.ToJson().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ec;
    std::filesystem::remove_all(c.work_dir, ec);
    return 1;
  }
  return 0;
}
