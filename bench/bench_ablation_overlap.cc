// Ablation B: when is handling cache-intersecting queries worthwhile?
//
// The paper's headline finding is that full semantic caching ("First") loses
// to containment-based schemes because overlap handling ships remainder
// queries that are more expensive at the origin than they save in transfer.
// This bench sweeps (a) the trace's overlap fraction and (b) the origin's
// remainder-complexity multiplier, reporting full-semantic vs
// region-containment response times. Smaller traces keep the sweep fast.

#include <cstdio>

#include "bench_common.h"

using namespace fnproxy;

namespace {

workload::SkyExperiment::Options SweepOptions(double overlap_fraction,
                                              double remainder_multiplier) {
  workload::SkyExperiment::Options options = bench::PaperOptions(4000);
  // Rebalance: take overlap share out of the disjoint share.
  options.trace.overlap_fraction = overlap_fraction;
  options.server_costs.remainder_multiplier = remainder_multiplier;
  return options;
}

/// Mean response time of the whole trace under `mode`, in milliseconds.
double AverageMillis(workload::SkyExperiment& experiment,
                     core::CachingMode mode) {
  return experiment
      .Replay(experiment.trace(),
              bench::PaperReplay(bench::MakeProxyConfig(mode)))
      .rbe.AverageResponseMillis();
}

}  // namespace

int main() {
  std::printf("=== Ablation B: overlap handling tradeoff ===\n");

  std::printf("\n-- Sweep 1: overlap fraction (remainder multiplier fixed at default) --\n");
  std::printf("%9s | %18s %18s %10s\n", "overlap", "full-semantic ms",
              "region-cont ms", "delta ms");
  for (double overlap : {0.0, 0.03, 0.06, 0.12, 0.20}) {
    workload::SkyExperiment experiment(SweepOptions(overlap, 2.6));
    double full = AverageMillis(experiment, core::CachingMode::kActiveFull);
    double rc = AverageMillis(experiment,
                              core::CachingMode::kActiveRegionContainment);
    std::printf("%8.0f%% | %18.0f %18.0f %+10.0f\n", overlap * 100, full, rc,
                full - rc);
  }

  std::printf("\n-- Sweep 2: remainder-complexity multiplier (overlap fixed at 6%%) --\n");
  std::printf("%10s | %18s %18s %10s\n", "multiplier", "full-semantic ms",
              "region-cont ms", "delta ms");
  for (double multiplier : {1.0, 1.5, 2.0, 2.6, 3.5}) {
    workload::SkyExperiment experiment(SweepOptions(0.06, multiplier));
    double full = AverageMillis(experiment, core::CachingMode::kActiveFull);
    double rc = AverageMillis(experiment,
                              core::CachingMode::kActiveRegionContainment);
    std::printf("%10.1f | %18.0f %18.0f %+10.0f\n", multiplier, full, rc,
                full - rc);
  }

  std::printf(
      "\nExpected shape: with no overlap in the trace the schemes tie; as the "
      "overlap\nfraction or the remainder multiplier grows, full semantic "
      "caching falls further\nbehind (positive delta) — handling "
      "cache-intersecting queries is only worthwhile\nwhen remainder queries "
      "are cheap at the origin.\n");
  return 0;
}
