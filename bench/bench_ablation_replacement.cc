// Ablation C: cache replacement policy under limited cache sizes.
//
// The paper varies cache size (Table 1 / Figure 5) but does not name its
// replacement policy. This ablation compares recency-only LRU with the
// default cost-aware policy (GreedyDual-Size-Frequency priced by the
// proxy's fitted origin re-fetch cost) at tight cache budgets, reporting
// cache efficiency, response time, origin bytes per query and evictions for
// the full-semantic scheme.

#include <cstdio>

#include "bench_common.h"

using namespace fnproxy;

int main() {
  std::printf("=== Ablation C: replacement policy x cache size ===\n");
  workload::SkyExperiment experiment(bench::PaperOptions(6000));
  bench::PrintTraceMix(experiment.trace());
  size_t total_bytes = experiment.TotalDistinctResultBytes();
  std::printf("Total distinct trace result size: %.1f MB\n\n",
              static_cast<double>(total_bytes) / (1024 * 1024));

  const double fractions[] = {1.0 / 12, 1.0 / 6, 1.0 / 3};
  const char* fraction_names[] = {"1/12", "1/6", "1/3"};
  const core::ReplacementPolicy policies[] = {
      core::ReplacementPolicy::kLru, core::ReplacementPolicy::kCostAware};

  std::printf("%8s %15s | %12s %12s %12s %10s\n", "cache", "policy",
              "cache eff.", "avg ms", "origin KB/q", "evictions");
  for (int i = 0; i < 3; ++i) {
    size_t budget = static_cast<size_t>(static_cast<double>(total_bytes) *
                                        fractions[i]);
    for (core::ReplacementPolicy policy : policies) {
      core::ProxyConfig config =
          bench::MakeProxyConfig(core::CachingMode::kActiveFull, false, budget);
      config.replacement = policy;
      workload::ReplayResult result =
          experiment.Replay(experiment.trace(), bench::PaperReplay(config));
      double origin_kb_per_query =
          static_cast<double>(result.origin_bytes_received) / 1024.0 /
          static_cast<double>(experiment.trace().queries.size());
      std::printf("%8s %15s | %12.3f %12.0f %12.2f %10llu\n",
                  fraction_names[i], core::ReplacementPolicyName(policy),
                  result.proxy_stats.AverageCacheEfficiency(),
                  result.rbe.AverageResponseMillis(), origin_kb_per_query,
                  static_cast<unsigned long long>(result.evictions));
    }
  }
  std::printf(
      "\nExpected shape: efficiency rises with cache size for both policies; "
      "at tight\nbudgets cost-aware eviction keeps the entries that are "
      "expensive to re-fetch\nper byte and often reused, so it serves more "
      "tuples from the cache than LRU.\n");
  return 0;
}
