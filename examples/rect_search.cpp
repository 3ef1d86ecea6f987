// Rectangular-search scenario: fGetObjFromRect with a hyperrectangle
// function template (the paper's "most common" region shape), replaying a
// generated rectangle trace through passive and active caching.
//
//   ./build/examples/rect_search

#include <cstdio>

#include "workload/experiment.h"
#include "workload/trace_generator.h"

using namespace fnproxy;

int main() {
  // Origin and templates: a 120,000-object catalog with the default
  // footprint. The experiment registers the rect template pair at both ends.
  workload::SkyExperiment::Options options;
  options.catalog = catalog::SkyCatalogConfig();
  options.catalog.num_objects = 120000;
  workload::SkyExperiment experiment(options);

  // Trace of 800 rectangle searches.
  workload::RectTraceConfig trace_config;
  trace_config.num_queries = 800;
  workload::Trace trace = workload::GenerateRectTrace(trace_config);
  using geometry::RegionRelation;
  std::printf(
      "Rectangle trace: %zu queries (exact %.0f%%, containment %.0f%%, "
      "overlap %.0f%%)\n\n",
      trace.queries.size(),
      100 * trace.IntendedFraction(RegionRelation::kEqual),
      100 * trace.IntendedFraction(RegionRelation::kContainedBy),
      100 * trace.IntendedFraction(RegionRelation::kOverlap));

  std::printf("%-28s %12s %12s %10s\n", "scheme", "avg ms", "cache eff.",
              "origin rq");
  for (core::CachingMode mode :
       {core::CachingMode::kNoCache, core::CachingMode::kPassive,
        core::CachingMode::kActiveFull}) {
    workload::ReplayOptions replay;  // One client, one proxy (paper §4.1).
    replay.tier.proxy.mode = mode;
    workload::ReplayResult result = experiment.Replay(trace, replay);
    std::printf("%-28s %12.0f %12.3f %10lu\n",
                core::CachingModeName(mode),
                result.rbe.AverageResponseMillis(),
                result.proxy_stats.AverageCacheEfficiency(),
                static_cast<unsigned long>(result.origin_requests));
    if (result.rbe.failed != 0) {
      std::fprintf(stderr, "errors: %lu\n",
                   static_cast<unsigned long>(result.rbe.failed));
      return 1;
    }
  }
  std::printf(
      "\nThe hyperrectangle template drives the same containment/overlap "
      "reasoning as\nthe Radial cone — 2-D interval checks instead of chord "
      "distances.\n");
  return 0;
}
