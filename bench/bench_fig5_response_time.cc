// Reproduces Figure 5 of the paper: average response time of the first
// 10,000 trace queries under four proxy configurations — ACR (active, R-tree
// description), ACNR (active, array description), PC (passive) and NC
// (tunneling, no cache) — with cache size in {1/6, 1/3, 1/2, 1} of the total
// trace result size.
//
// Paper shape: NC > 2000 ms; PC ~ 1400 ms; ACR/ACNR ~ 1150-1250 ms with the
// R-tree giving no speedup over the array (sometimes slightly slower);
// response times improve only mildly with cache size.
//
// With --json[=path] (and --git-sha=<sha>) every printed cell is appended
// as one record, named fig5/<config>_<cache size>, e.g. fig5/acnr_1.

#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace fnproxy;

int main(int argc, char** argv) {
  const bench::BenchJson json =
      bench::BenchJson::FromArgs(&argc, argv, "bench_fig5_response_time");
  std::printf("=== Figure 5: Average response time (ms), first 10,000 queries ===\n");
  workload::SkyExperiment experiment(bench::PaperOptions());
  bench::PrintTraceMix(experiment.trace());
  size_t total_bytes = experiment.TotalDistinctResultBytes();

  const double fractions[] = {1.0 / 6, 1.0 / 3, 1.0 / 2, 1.0};
  const char* fraction_names[] = {"1/6", "1/3", "1/2", "1"};
  const char* fraction_keys[] = {"1_6", "1_3", "1_2", "1"};

  auto avg_ms = [&](const core::ProxyConfig& config) {
    return experiment.Replay(experiment.trace(), bench::PaperReplay(config))
        .rbe.AverageResponseMillis(10000);
  };
  // NC has no cache; one run serves every column.
  double nc_ms = avg_ms(bench::MakeProxyConfig(core::CachingMode::kNoCache));

  double acr_ms[4], acnr_ms[4], pc_ms[4];
  for (int i = 0; i < 4; ++i) {
    size_t budget = static_cast<size_t>(static_cast<double>(total_bytes) *
                                        fractions[i]);
    acr_ms[i] = avg_ms(bench::MakeProxyConfig(core::CachingMode::kActiveFull,
                                              /*rtree=*/true, budget));
    acnr_ms[i] = avg_ms(bench::MakeProxyConfig(core::CachingMode::kActiveFull,
                                               /*rtree=*/false, budget));
    pc_ms[i] = avg_ms(
        bench::MakeProxyConfig(core::CachingMode::kPassive, false, budget));
    std::printf("  [cache=%s done]\n", fraction_names[i]);
    const std::string key = fraction_keys[i];
    json.Record("fig5/acr_" + key, acr_ms[i], "ms");
    json.Record("fig5/acnr_" + key, acnr_ms[i], "ms");
    json.Record("fig5/pc_" + key, pc_ms[i], "ms");
    json.Record("fig5/nc_" + key, nc_ms, "ms");
  }

  std::printf("\nConfig   1/6     1/3     1/2     1\n");
  std::printf("ACR   %6.0f  %6.0f  %6.0f  %6.0f\n", acr_ms[0], acr_ms[1],
              acr_ms[2], acr_ms[3]);
  std::printf("ACNR  %6.0f  %6.0f  %6.0f  %6.0f\n", acnr_ms[0], acnr_ms[1],
              acnr_ms[2], acnr_ms[3]);
  std::printf("PC    %6.0f  %6.0f  %6.0f  %6.0f\n", pc_ms[0], pc_ms[1],
              pc_ms[2], pc_ms[3]);
  std::printf("NC    %6.0f  %6.0f  %6.0f  %6.0f\n", nc_ms, nc_ms, nc_ms, nc_ms);
  std::printf(
      "\nPaper shape: NC >2000; PC ~1400; AC ~1150-1250; R-tree does not beat "
      "the array;\nlarger caches improve response time only mildly.\n");
  return 0;
}
