// Command-line utility for query traces:
//
//   trace_tool gen-radial <out-file> [num_queries] [seed]
//   trace_tool gen-paper  <out-file> [num_queries] [seed]
//   trace_tool gen-rect   <out-file> [num_queries] [seed]
//   trace_tool info       <trace-file>
//
// gen-radial places its hotspots at random; gen-paper writes the
// experiment's own Radial trace, SkyExperiment(options).trace(), whose
// hotspots are the synthetic catalog's clusters (it builds the catalog).
// num_queries (0 to 10,000,000; default 11,323) and seed (default 2004) are
// plain decimal numbers; anything else exits 2 with the usage text.
//
// Traces use the line-oriented format of workload::Trace::Serialize and can
// be replayed with run_trace.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/string_util.h"
#include "workload/experiment.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"

using namespace fnproxy;

namespace {

/// Queries one generated trace may hold.
constexpr uint64_t kMaxQueries = 10'000'000;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tool gen-radial <out-file> [num_queries] [seed]\n"
               "  trace_tool gen-paper  <out-file> [num_queries] [seed]\n"
               "  trace_tool gen-rect   <out-file> [num_queries] [seed]\n"
               "  trace_tool info       <trace-file>\n");
  return 2;
}

/// Says which argument `why` rejects, then prints the usage text.
int BadArgument(const char* what, const util::Status& why) {
  std::fprintf(stderr, "trace_tool: %s: %s\n", what, why.message().c_str());
  return Usage();
}

int WriteTrace(const workload::Trace& trace, const char* path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  out << trace.Serialize();
  std::printf("wrote %zu queries to %s\n", trace.queries.size(), path);
  return 0;
}

int Info(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto trace = workload::Trace::Deserialize(buffer.str());
  if (!trace.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  using geometry::RegionRelation;
  std::printf("form path: %s\n", trace->form_path.c_str());
  std::printf("queries:   %zu\n", trace->queries.size());
  std::printf("intended mix:\n");
  for (RegionRelation r :
       {RegionRelation::kEqual, RegionRelation::kContainedBy,
        RegionRelation::kContains, RegionRelation::kOverlap,
        RegionRelation::kDisjoint}) {
    std::printf("  %-14s %5.1f%%\n", geometry::RegionRelationName(r),
                100 * trace->IntendedFraction(r));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string command = argv[1];
  if (command == "info") return Info(argv[2]);

  if (argc > 5) return Usage();
  uint64_t num_queries = 11323;
  uint64_t seed = 2004;
  if (argc > 3) {
    const auto value = util::ParseUint64InRange(argv[3], 0, kMaxQueries);
    if (!value.ok()) return BadArgument("num_queries", value.status());
    num_queries = *value;
  }
  if (argc > 4) {
    const auto value = util::ParseUint64InRange(argv[4], 0, UINT64_MAX);
    if (!value.ok()) return BadArgument("seed", value.status());
    seed = *value;
  }

  if (command == "gen-radial") {
    workload::RadialTraceConfig config;
    config.num_queries = num_queries;
    config.seed = seed;
    return WriteTrace(workload::GenerateRadialTrace(config), argv[2]);
  }
  if (command == "gen-paper") {
    workload::SkyExperiment::Options options;
    options.trace.num_queries = num_queries;
    options.trace.seed = seed;
    return WriteTrace(workload::SkyExperiment(options).trace(), argv[2]);
  }
  if (command == "gen-rect") {
    workload::RectTraceConfig config;
    config.num_queries = num_queries;
    config.seed = seed;
    return WriteTrace(workload::GenerateRectTrace(config), argv[2]);
  }
  return Usage();
}
