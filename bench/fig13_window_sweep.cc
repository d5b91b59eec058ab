// Figure 13: counterfactual exploration -- sweep HPCC's initial congestion
// window and compare m3's predicted p99 slowdown per flow class against
// ground truth, with the speedup factor.
//
// Paper claim: m3 tracks the trend (larger init window hurts small flows'
// p99) and runs ~1139x faster than ns-3. Setup: WebServer, matrix C, 50%
// load, PFC on, buffer 400KB, eta=0.9.
#include "bench/common.h"

using namespace m3;
using namespace m3::bench;

int main() {
  std::printf("=== Fig 13: HPCC init-window counterfactual sweep ===\n");
  const M3Model& model = DefaultModel();

  Mix mix{"F13", "C", "WebServer", 2.0, 0.5, 1.5};
  const std::vector<Bytes> windows{5 * kKB, 10 * kKB, 20 * kKB, 30 * kKB};

  double m3_total_s = 0.0, full_total_s = 0.0;
  std::printf("%-8s | %-28s | %-28s\n", "initW", "truth p99 (S/M/L/XL)", "m3 p99 (S/M/L/XL)");
  for (Bytes w : windows) {
    BuiltMix built = BuildMix(mix, DefaultFlows(), 777);
    built.cfg.cc = CcType::kHpcc;
    built.cfg.pfc = true;
    built.cfg.buffer = 400 * kKB;
    built.cfg.hpcc_eta = 0.9;
    built.cfg.init_window = w;

    const NetworkRow row = EvalMix(built, model, false);
    full_total_s += row.truth.wall_seconds;
    m3_total_s += row.m3.wall_seconds;
    const auto gt_p99 = row.truth.BucketP99();
    const auto m3_p99 = row.m3.BucketP99();

    std::printf("%5lldKB | %6.2f %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f %6.2f\n",
                static_cast<long long>(w / kKB), gt_p99[0], gt_p99[1], gt_p99[2], gt_p99[3],
                m3_p99[0], m3_p99[1], m3_p99[2], m3_p99[3]);
    std::fflush(stdout);
  }
  std::printf("speedup vs full simulation: %.0fx (m3 %.1fs vs full %.1fs; paper: 1139x)\n",
              full_total_s / std::max(1e-9, m3_total_s), m3_total_s, full_total_s);
  std::printf("claim: larger init window raises small-flow p99; m3 captures the trend\n");
  return 0;
}
