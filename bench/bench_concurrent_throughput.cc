// Concurrent-proxy throughput sweep: replays the Radial trace through one
// shared proxy from 1..16 closed-loop client threads, for each of the five
// caching schemes. The proxy uses a sharded cache (8 shards) with
// reader-writer locking; origin SQL execution, fault-free WAN transfers and
// relationship checks all overlap across threads.
//
//   bench_concurrent_throughput [num-queries] [max-threads] [pacing]
//                               [--smoke] [--json[=path]]
//
// Defaults: 600 queries, threads swept over {1, 2, 4, 8, 16}, pacing 0.02.
// Queries run from 1 to 10,000,000, threads from 1 to 256 and pacing from
// 0 to 1; anything else exits 2 with the usage text.
// --smoke runs the CI thread-scaling check instead of the full sweep:
// full-semantic scheme only, threads {1, 8}, recording
// async_overlap/t8_speedup (8-thread vs 1-thread requests/s). The record
// names predate the single origin call path; they are kept so the
// committed baseline stays comparable.
// With --json, each sweep point appends one JSON-lines record carrying the
// throughput plus per-phase latency fields (phase_<name>_total_us /
// phase_<name>_p95_us, from the proxy's fnproxy_phase_duration_micros
// histograms); see docs/FORMATS.md.
// The shared clock is real-time paced: every modeled microsecond (WAN
// transfer, server work) also sleeps `pacing` real microseconds on the
// calling thread, so modeled waits occupy real time and overlap across
// threads — exactly how a real proxy overlaps network waits. Latencies are
// wall-clock; the headline number is the speedup of requests/s at each
// thread count over the same scheme's single-thread run.
//
// Expected shape: >= 3x throughput at 8 threads for the full-semantic
// scheme — cache hits parallelize and misses overlap their (paced) origin
// round trips.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace fnproxy;

namespace {

constexpr char kUsage[] =
    "usage: bench_concurrent_throughput [num-queries 1-10000000]"
    " [max-threads 1-256] [pacing 0-1] [--smoke] [--json[=path]]"
    " [--git-sha=SHA]\n";

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json =
      bench::BenchJson::FromArgs(&argc, argv, "bench_concurrent_throughput");
  bool smoke = false;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--smoke") {
        smoke = true;
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  }
  if (argc > 4) bench::BadArgument(kUsage, argv[4], "unexpected argument");
  const size_t num_queries =
      argc > 1 ? bench::CountArg(kUsage, "num-queries", argv[1], 1,
                                 bench::kMaxQueries)
               : (smoke ? 400 : 600);
  const size_t max_threads =
      argc > 2 ? bench::CountArg(kUsage, "max-threads", argv[2], 1,
                                 bench::kMaxClients)
               : 16;
  const double pacing =
      argc > 3 ? bench::RealArg(kUsage, "pacing", argv[3], 0.0, 1.0) : 0.02;

  if (smoke) {
    std::printf("=== Thread scaling (full-semantic, %zu queries, "
                "pacing %.3f) ===\n", num_queries, pacing);
    workload::SkyExperiment experiment(bench::PaperOptions(num_queries));
    bench::PrintTraceMix(experiment.trace());

    auto run_point = [&](size_t threads) {
      workload::ReplayOptions options = bench::PaperReplay(
          bench::MakeProxyConfig(core::CachingMode::kActiveFull));
      options.tier.proxy.cache_shards = 8;
      options.rbe.clients = threads;
      options.real_time_scale = pacing;
      const workload::RbeResult run =
          experiment.Replay(experiment.trace(), options).rbe;
      std::printf("  t=%zu  %10.1f ms  %8.0f req/s  (errors %lu)\n", threads,
                  run.wall_millis, run.RequestsPerSecond(),
                  static_cast<unsigned long>(run.failed));
      return run.RequestsPerSecond();
    };
    double t1 = run_point(1);
    double t8 = run_point(8);
    double t8_speedup = t1 > 0 ? t8 / t1 : 0;
    std::printf("  t8 vs t1: %.2fx\n", t8_speedup);
    json.Record("async_overlap/t1", t1, "req/s");
    json.Record("async_overlap/t8", t8, "req/s");
    json.Record("async_overlap/t8_speedup", t8_speedup, "x");
    return 0;
  }
  std::printf("=== Concurrent proxy throughput (sharded cache, %zu queries, "
              "pacing %.3f) ===\n", num_queries, pacing);
  workload::SkyExperiment experiment(bench::PaperOptions(num_queries));
  bench::PrintTraceMix(experiment.trace());

  struct Scheme {
    const char* name;
    core::CachingMode mode;
  };
  const Scheme schemes[] = {
      {"no-cache", core::CachingMode::kNoCache},
      {"passive", core::CachingMode::kPassive},
      {"full-semantic", core::CachingMode::kActiveFull},
      {"region-containment", core::CachingMode::kActiveRegionContainment},
      {"containment-only", core::CachingMode::kActiveContainmentOnly},
  };

  std::printf("\n%-20s %8s %10s %10s %8s %9s %9s %9s\n", "scheme", "threads",
              "wall ms", "req/s", "speedup", "p50 ms", "p95 ms", "p99 ms");
  for (const Scheme& scheme : schemes) {
    workload::ReplayOptions options =
        bench::PaperReplay(bench::MakeProxyConfig(scheme.mode));
    // Constant across the sweep: measure threading.
    options.tier.proxy.cache_shards = 8;
    options.real_time_scale = pacing;
    double base_rps = 0.0;
    for (size_t threads = 1; threads <= max_threads; threads *= 2) {
      options.rbe.clients = threads;
      workload::ReplayResult output =
          experiment.Replay(experiment.trace(), options);
      const workload::RbeResult& run = output.rbe;
      const double rps = run.RequestsPerSecond();
      if (threads == 1) base_rps = rps;
      double speedup = base_rps > 0.0 ? rps / base_rps : 0.0;
      const double p50_ms =
          static_cast<double>(run.WallPercentileMicros(50)) / 1000.0;
      const double p95_ms =
          static_cast<double>(run.WallPercentileMicros(95)) / 1000.0;
      const double p99_ms =
          static_cast<double>(run.WallPercentileMicros(99)) / 1000.0;
      std::printf("%-20s %8zu %10.1f %10.0f %7.2fx %9.2f %9.2f %9.2f\n",
                  scheme.name, threads, run.wall_millis, rps, speedup, p50_ms,
                  p95_ms, p99_ms);
      if (run.failed != 0) {
        std::printf("  !! %lu errors\n",
                    static_cast<unsigned long>(run.failed));
      }
      std::vector<std::pair<std::string, double>> extras = {
          {"threads", static_cast<double>(threads)},
          {"wall_ms", run.wall_millis},
          {"p50_ms", p50_ms},
          {"p95_ms", p95_ms},
          {"p99_ms", p99_ms},
          {"errors", static_cast<double>(run.failed)},
      };
      for (const obs::PhaseBreakdown& row : output.phases) {
        extras.emplace_back("phase_" + row.phase + "_total_us",
                            static_cast<double>(row.total_micros));
        extras.emplace_back("phase_" + row.phase + "_p95_us",
                            static_cast<double>(row.p95_micros));
      }
      json.Record(std::string(scheme.name) + "/t" + std::to_string(threads),
                  rps, "req/s", extras);
    }
  }
  std::printf("\nLatencies are wall-clock against the paced clock; modeled "
              "time is unchanged by threading.\nExpected: >= 3x req/s at 8 "
              "threads vs 1 for full-semantic.\n");
  return 0;
}
