// SkyServer Radial-form scenario: replay a generated 2,000-query trace
// (calibrated to the paper's exact/containment/overlap mix) through every
// caching scheme and compare response times and cache efficiency — a
// miniature of the paper's §4 evaluation.
//
//   ./build/examples/skyserver_radial

#include <cstdio>

#include "workload/experiment.h"

using namespace fnproxy;

int main() {
  workload::SkyExperiment::Options options;
  options.catalog.num_objects = 100000;
  options.trace.num_queries = 2000;
  workload::SkyExperiment experiment(options);

  const workload::Trace& trace = experiment.trace();
  using geometry::RegionRelation;
  std::printf(
      "Trace: %zu Radial queries (exact %.0f%%, containment %.0f%%, "
      "region-containment %.0f%%,\n       overlap %.0f%%, disjoint %.0f%%), "
      "distinct result data %.1f MB\n\n",
      trace.queries.size(),
      100 * trace.IntendedFraction(RegionRelation::kEqual),
      100 * trace.IntendedFraction(RegionRelation::kContainedBy),
      100 * trace.IntendedFraction(RegionRelation::kContains),
      100 * trace.IntendedFraction(RegionRelation::kOverlap),
      100 * trace.IntendedFraction(RegionRelation::kDisjoint),
      static_cast<double>(experiment.TotalDistinctResultBytes()) /
          (1024 * 1024));

  struct Config {
    const char* name;
    core::CachingMode mode;
  };
  const Config configs[] = {
      {"no cache (NC)", core::CachingMode::kNoCache},
      {"passive (PC)", core::CachingMode::kPassive},
      {"active, containment only", core::CachingMode::kActiveContainmentOnly},
      {"active, region containment", core::CachingMode::kActiveRegionContainment},
      {"active, full semantic", core::CachingMode::kActiveFull},
  };

  std::printf("%-28s %12s %12s %12s %10s\n", "scheme", "avg ms", "cache eff.",
              "origin rq", "origin MB");
  for (const Config& config : configs) {
    workload::ReplayOptions replay;  // One client, one proxy (paper §4.1).
    replay.tier.proxy.mode = config.mode;
    workload::ReplayResult result = experiment.Replay(trace, replay);
    std::printf("%-28s %12.0f %12.3f %12lu %10.1f\n", config.name,
                result.rbe.AverageResponseMillis(),
                result.proxy_stats.AverageCacheEfficiency(),
                static_cast<unsigned long>(result.origin_requests),
                static_cast<double>(result.origin_bytes_received) /
                    (1024 * 1024));
  }
  std::printf(
      "\nActive caching answers roughly half the trace at the proxy; the "
      "tunneling proxy\npays the full origin round trip every time.\n");
  return 0;
}
