// Reproduces Table 1 of the paper: average cache efficiency of active
// caching (full semantic) and passive caching as the cache size varies over
// {1/6, 1/3, 1/2, 1} of the total result size of the query trace.
//
// Paper reference values (real SkyServer trace):
//   AC: 0.531  0.565  0.582  0.593
//   PC: 0.290  0.305  0.311  0.313
//
// With --json[=path] (and --git-sha=<sha>) every printed cell is appended
// as one record, named table1/<scheme>_<cache size>, e.g. table1/pc_1_6.

#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace fnproxy;

int main(int argc, char** argv) {
  const bench::BenchJson json = bench::BenchJson::FromArgs(
      &argc, argv, "bench_table1_cache_efficiency");
  std::printf("=== Table 1: Average cache efficiency of AC and PC ===\n");
  workload::SkyExperiment experiment(bench::PaperOptions());
  bench::PrintTraceMix(experiment.trace());

  size_t total_bytes = experiment.TotalDistinctResultBytes();
  std::printf("Total distinct trace result size: %.1f MB\n",
              static_cast<double>(total_bytes) / (1024 * 1024));

  const double fractions[] = {1.0 / 6, 1.0 / 3, 1.0 / 2, 1.0};
  const char* fraction_names[] = {"1/6", "1/3", "1/2", "1"};
  const char* fraction_keys[] = {"1_6", "1_3", "1_2", "1"};

  double ac_eff[4], pc_eff[4];
  for (int i = 0; i < 4; ++i) {
    size_t budget = static_cast<size_t>(static_cast<double>(total_bytes) *
                                        fractions[i]);
    auto efficiency = [&](core::CachingMode mode) {
      return experiment
          .Replay(experiment.trace(),
                  bench::PaperReplay(bench::MakeProxyConfig(mode, false, budget)))
          .proxy_stats.AverageCacheEfficiency();
    };
    ac_eff[i] = efficiency(core::CachingMode::kActiveFull);
    pc_eff[i] = efficiency(core::CachingMode::kPassive);
    const std::string key = fraction_keys[i];
    json.Record("table1/ac_" + key, ac_eff[i], "ratio");
    json.Record("table1/pc_" + key, pc_eff[i], "ratio");
    std::printf("  [cache=%s done]\n", fraction_names[i]);
  }

  std::printf("\nCache Size   1/6     1/3     1/2     1\n");
  std::printf("AC         %.3f   %.3f   %.3f   %.3f\n", ac_eff[0], ac_eff[1],
              ac_eff[2], ac_eff[3]);
  std::printf("PC         %.3f   %.3f   %.3f   %.3f\n", pc_eff[0], pc_eff[1],
              pc_eff[2], pc_eff[3]);
  std::printf(
      "\nPaper:     AC 0.531/0.565/0.582/0.593   PC 0.290/0.305/0.311/0.313\n"
      "Expected shape: AC well above PC at every size; AC gains more from "
      "extra cache than PC.\n");
  return 0;
}
