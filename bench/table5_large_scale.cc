// Table 5 + Figure 12: large-scale evaluation. A bigger fat tree (scaled
// from the paper's 384-rack/6144-host fabric), traffic matrix B, 2:1
// oversubscription, WebServer at sigma=2 and 50% max load, with two initial
// window sizes: one below and one above the maximum BDP.
//
// Paper reference (6144 hosts, 11.4M flows, DCTCP-family config):
//   initW=10KB: ns-3 p99 2.05; Parsimon 4.29 (+109%); m3 2.10 (+2.4%)
//   initW=18KB: ns-3 p99 2.44; Parsimon 2.73 (+11.9%); m3 2.30 (-5.7%)
// Claim: Parsimon over-counts window-limited delay (sums per-link
// slowdowns); m3 learns the window effect. Runtime: m3 < Parsimon << ns-3.
#include "bench/common.h"

using namespace m3;
using namespace m3::bench;

int main() {
  // Scaled "large" topology: same 3-tier shape, fewer pods by default so
  // the bench completes on one CPU. M3_LARGE_PODS=8 reproduces the paper's
  // 384-rack fabric shape.
  FatTreeConfig cfg_topo = FatTreeConfig::Large(2.0);
  cfg_topo.pods = EnvInt("M3_LARGE_PODS", 2);
  cfg_topo.racks_per_pod = EnvInt("M3_LARGE_RACKS", 24);
  cfg_topo.hosts_per_rack = EnvInt("M3_LARGE_HOSTS", 8);
  BuiltMix built;
  built.ft = std::make_unique<FatTree>(cfg_topo);
  const FatTree& ft = *built.ft;
  std::printf("=== Table 5 / Fig 12: large-scale (%d racks, %d hosts) ===\n", ft.num_racks(),
              ft.num_hosts());
  const M3Model& model = DefaultModel();

  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();

  const struct {
    Bytes window;
    double paper_ns3, paper_pars_err, paper_m3_err;
  } rows[2] = {{10 * kKB, 2.05, 109.0, 2.44}, {18 * kKB, 2.44, 11.9, 5.74}};

  for (const auto& row : rows) {
    WorkloadSpec wspec;
    wspec.num_flows = DefaultFlows() * 2;
    wspec.max_load = 0.5;
    wspec.burstiness_sigma = 2.0;
    wspec.seed = 1212;
    built.wl = GenerateWorkload(ft, tm, *sizes, wspec);
    built.cfg.init_window = row.window;

    const NetworkRow eval = EvalMix(built, model, true);
    const NetworkEstimate& gt = eval.truth;
    const NetworkEstimate& est = eval.m3;
    const NetworkEstimate& pars = *eval.parsimon;
    const double p99_true = gt.CombinedP99();
    const double p99_pars = pars.CombinedP99();

    std::printf("\ninitW=%lldKB (paper ns-3 p99=%.2f):\n", static_cast<long long>(row.window / kKB),
                row.paper_ns3);
    std::printf("  %-10s %10s %10s %10s\n", "method", "p99", "err", "time");
    std::printf("  %-10s %10.3f %10s %9.1fs\n", "full-sim", p99_true, "-", gt.wall_seconds);
    std::printf("  %-10s %10.3f %+9.1f%% %9.1fs   (paper err %+.1f%%)\n", "parsimon",
                p99_pars, 100 * RelativeError(p99_pars, p99_true), pars.wall_seconds,
                row.paper_pars_err);
    std::printf("  %-10s %10.3f %+9.1f%% %9.1fs\n", "m3", est.CombinedP99(),
                100 * RelativeError(est.CombinedP99(), p99_true), est.wall_seconds);

    // Fig 12: per-bucket distributions at selected percentiles.
    std::printf("  Fig12 per-bucket p50/p99 (truth | m3 | parsimon):\n");
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      if (gt.bucket_pct[static_cast<std::size_t>(b)].empty()) continue;
      const auto& tb = gt.bucket_pct[static_cast<std::size_t>(b)];
      const auto& mb = est.bucket_pct[static_cast<std::size_t>(b)];
      const auto& pb = pars.bucket_pct[static_cast<std::size_t>(b)];
      std::printf("    %-12s %6.2f/%6.2f | %6.2f/%6.2f | %6.2f/%6.2f\n", BucketLabel(b),
                  tb[49], tb[98], mb.empty() ? 0.0 : mb[49], mb.empty() ? 0.0 : mb[98],
                  pb.empty() ? 0.0 : pb[49], pb.empty() ? 0.0 : pb[98]);
    }
    std::fflush(stdout);
  }
  std::printf("\nclaim: with initW < BDP, Parsimon over-counts the window-limited delay\n"
              "(large positive error on large flows); m3 stays close to the truth\n");
  return 0;
}
