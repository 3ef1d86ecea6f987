// Reproduces Figure 6 of the paper: average response time of the three
// active caching schemes with an unlimited cache and an array-based cache
// description.
//
//   First  — full semantic caching (exact + containment + overlap via
//            remainder queries + region containment)             paper: 1236 ms
//   Second — exact + containment + region containment            paper: 1044 ms
//   Third  — pure containment-based caching                      paper: 1081 ms
//
// Expected shape: Second < Third < First, with cache efficiencies
// First 0.593, Second 0.544, Third 0.511 — i.e. handling cache-intersecting
// queries buys efficiency but costs response time (the paper's headline
// finding), while region-containment coalescing pays off.
//
// With --json[=path] (and --git-sha=<sha>) each scheme's response time and
// cache efficiency are appended as records named fig6/<scheme>_ms and
// fig6/<scheme>_efficiency, e.g. fig6/second_ms.

#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace fnproxy;

int main(int argc, char** argv) {
  const bench::BenchJson json =
      bench::BenchJson::FromArgs(&argc, argv, "bench_fig6_schemes");
  std::printf("=== Figure 6: Average response time of active caching schemes ===\n");
  workload::SkyExperiment experiment(bench::PaperOptions());
  bench::PrintTraceMix(experiment.trace());

  struct Scheme {
    const char* name;
    const char* key;
    core::CachingMode mode;
    double paper_ms;
  };
  const Scheme schemes[] = {
      {"First (full semantic)", "first", core::CachingMode::kActiveFull, 1236},
      {"Second (region containment)", "second",
       core::CachingMode::kActiveRegionContainment, 1044},
      {"Third (containment only)", "third",
       core::CachingMode::kActiveContainmentOnly, 1081},
  };

  std::vector<bench::RunSummary> rows;
  for (const Scheme& scheme : schemes) {
    workload::ReplayResult result = experiment.Replay(
        experiment.trace(),
        bench::PaperReplay(bench::MakeProxyConfig(scheme.mode)));
    rows.push_back(bench::Summarize(scheme.name, result));
    const std::string key = std::string("fig6/") + scheme.key;
    json.Record(key + "_ms", rows.back().avg_response_ms_first_10000, "ms");
    json.Record(key + "_efficiency", rows.back().avg_cache_efficiency,
                "ratio");
    std::printf("  %s breakdown:\n", scheme.name);
    bench::PrintStatusBreakdown(result);
  }
  PrintSummaryTable(rows);

  std::printf("\n%-28s %12s %12s\n", "scheme", "measured ms", "paper ms");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-28s %12.0f %12.0f\n", rows[i].label.c_str(),
                rows[i].avg_response_ms_first_10000, schemes[i].paper_ms);
  }
  std::printf(
      "\nExpected shape: Second fastest, Third close behind, First slowest; "
      "First has the\nhighest cache efficiency (overlap handling answers part "
      "of overlapping queries).\n");
  return 0;
}
