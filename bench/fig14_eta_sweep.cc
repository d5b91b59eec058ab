// Figure 14: counterfactual exploration -- sweep HPCC's eta (target
// utilization) with init window fixed at 20KB; compare m3's predicted p99
// slowdown per flow class against ground truth.
//
// Paper claim: m3 correctly captures eta's effect on p99 slowdown, with an
// average speedup of 763x over ns-3.
#include "bench/common.h"

using namespace m3;
using namespace m3::bench;

int main() {
  std::printf("=== Fig 14: HPCC eta counterfactual sweep ===\n");
  const M3Model& model = DefaultModel();

  Mix mix{"F14", "C", "WebServer", 2.0, 0.5, 1.5};
  const std::vector<double> etas{0.70, 0.80, 0.90, 0.95};

  double m3_total_s = 0.0, full_total_s = 0.0;
  std::printf("%-6s | %-28s | %-28s\n", "eta", "truth p99 (S/M/L/XL)", "m3 p99 (S/M/L/XL)");
  for (double eta : etas) {
    BuiltMix built = BuildMix(mix, DefaultFlows(), 778);
    built.cfg.cc = CcType::kHpcc;
    built.cfg.pfc = true;
    built.cfg.buffer = 400 * kKB;
    built.cfg.init_window = 20 * kKB;
    built.cfg.hpcc_eta = eta;

    const NetworkRow row = EvalMix(built, model, false);
    full_total_s += row.truth.wall_seconds;
    m3_total_s += row.m3.wall_seconds;
    const auto gt_p99 = row.truth.BucketP99();
    const auto m3_p99 = row.m3.BucketP99();

    std::printf("%5.2f | %6.2f %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f %6.2f\n", eta,
                gt_p99[0], gt_p99[1], gt_p99[2], gt_p99[3], m3_p99[0], m3_p99[1], m3_p99[2],
                m3_p99[3]);
    std::fflush(stdout);
  }
  std::printf("speedup vs full simulation: %.0fx (paper: 763x)\n",
              full_total_s / std::max(1e-9, m3_total_s));
  return 0;
}
