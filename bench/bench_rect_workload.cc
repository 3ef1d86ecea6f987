// Beyond-paper macro benchmark: the same scheme comparison on the
// rectangular-search workload (fGetObjFromRect with a hyperrectangle
// function template). The paper evaluates the Radial form only; this bench
// checks that the qualitative story — active caching's win over passive,
// and the scheme ordering — carries over to the 2-D rectangle templates.

#include <cstdio>

#include "bench_common.h"
#include "workload/trace_generator.h"

using namespace fnproxy;

int main() {
  std::printf("=== Rect workload: scheme comparison on fGetObjFromRect ===\n");
  workload::SkyExperiment experiment(bench::PaperOptions(1));

  workload::RectTraceConfig trace_config;
  trace_config.num_queries = 4000;
  trace_config.ra_min = 132.0;
  trace_config.ra_max = 228.0;
  trace_config.dec_min = 2.0;
  trace_config.dec_max = 58.0;
  workload::Trace trace = workload::GenerateRectTrace(trace_config);
  bench::PrintTraceMix(trace);

  struct Config {
    const char* name;
    core::CachingMode mode;
  };
  const Config configs[] = {
      {"NC", core::CachingMode::kNoCache},
      {"PC", core::CachingMode::kPassive},
      {"AC containment-only", core::CachingMode::kActiveContainmentOnly},
      {"AC region-containment", core::CachingMode::kActiveRegionContainment},
      {"AC full semantic", core::CachingMode::kActiveFull},
  };
  std::vector<bench::RunSummary> rows;
  for (const Config& config : configs) {
    workload::ReplayResult result = experiment.Replay(
        trace, bench::PaperReplay(bench::MakeProxyConfig(config.mode)));
    rows.push_back(bench::Summarize(config.name, result));
  }
  PrintSummaryTable(rows);
  std::printf(
      "\nExpected shape: same ordering as the Radial workload — active "
      "caching roughly\nhalves passive caching's response time; rectangle "
      "relationship checks are plain\ninterval tests instead of chord "
      "distances.\n");
  return 0;
}
