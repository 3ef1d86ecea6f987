// Cooperative-tier throughput sweep: replays the Radial trace through a
// ProxyTier of 1..8 proxies behind a round-robin router, 8 closed-loop
// client threads throughout. Each proxy owns a consistent-hash slice of the
// template/region key space; a request bound for the origin first asks the
// owning sibling over the (cheap) peer link, which answers it under its own
// plan: from its cache, from its in-flight fetch, or with its own origin
// trip, so the aggregate throughput should scale with the tier size.
//
//   bench_tier_throughput [num-queries] [pacing] [--smoke] [--json[=path]]
//
// Defaults: 600 queries, pacing 0.02, proxies swept over {1, 2, 4, 8}.
// Queries run from 1 to 10,000,000 and pacing from 0 to 1; anything else
// exits 2 with the usage text.
// --smoke shrinks the sweep to {1, 4} proxies and 200 queries — the
// CI/TSan-soak configuration.
//
// Each sweep point runs twice: an unpaced single-client calibration replay
// (virtual time only) that checks the tier answers the whole trace cleanly,
// then the paced measured replay the numbers come from. With --json, each point appends one record
// (docs/FORMATS.md): aggregate requests/s plus the peer-hit ratio, the
// peer-vs-origin p95 latency split (phase_peer_lookup_p95_us vs
// phase_origin_roundtrip_p95_us) and per-phase columns.
//
// Expected shape: req/s grows from 1 -> 4 proxies (the router spreads the
// closed-loop clients while peer lookups keep the shared working set hot).
// A lookup the owner answers by fetching spans that origin trip, so
// peer_lookup p95 is of the order of origin_roundtrip p95, not far below.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace fnproxy;

namespace {

constexpr char kUsage[] =
    "usage: bench_tier_throughput [num-queries 1-10000000] [pacing 0-1]"
    " [--smoke] [--json[=path]] [--git-sha=SHA]\n";

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json =
      bench::BenchJson::FromArgs(&argc, argv, "bench_tier_throughput");
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (argc > 3) bench::BadArgument(kUsage, argv[3], "unexpected argument");
  const size_t num_queries =
      argc > 1 ? bench::CountArg(kUsage, "num-queries", argv[1], 1,
                                 bench::kMaxQueries)
               : (smoke ? 200 : 600);
  const double pacing =
      argc > 2 ? bench::RealArg(kUsage, "pacing", argv[2], 0.0, 1.0) : 0.02;
  const std::vector<size_t> tier_sizes =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 8};

  std::printf("=== Cooperative tier throughput (%zu queries, pacing %.3f%s) "
              "===\n", num_queries, pacing, smoke ? ", smoke" : "");
  workload::SkyExperiment experiment(bench::PaperOptions(num_queries));
  bench::PrintTraceMix(experiment.trace());

  std::printf("\n%-8s %10s %10s %8s %9s %9s %11s %11s %9s\n", "proxies",
              "wall ms", "req/s", "speedup", "peer-hit", "origin",
              "peer p95us", "orig p95us", "errors");
  double base_rps = 0.0;
  for (size_t proxies : tier_sizes) {
    workload::ReplayOptions options;
    options.tier.num_proxies = proxies;
    options.tier.proxy = bench::MakeProxyConfig(core::CachingMode::kActiveFull);
    options.tier.proxy.cache_shards = 8;
    // Each proxy box services two requests at a time — the finite capacity
    // the tier multiplies (sibling probes bypass the pool).
    options.tier.proxy_workers = 2;

    // Calibration: unpaced single-client replay through a fresh tier. Errors
    // here mean the topology is broken, not that the machine is slow, and
    // with one client the virtual clock only ever advances for the request
    // being measured, so this pass yields the clean modeled peer-vs-origin
    // per-phase latency split (under the measured pass's concurrency, phase
    // timers absorb every other thread's clock advances).
    workload::ReplayResult dry = experiment.Replay(experiment.trace(), options);
    if (dry.rbe.failed != 0) {
      std::printf("  !! calibration replay at %zu proxies saw %lu errors\n",
                  proxies, static_cast<unsigned long>(dry.rbe.failed));
      return 1;
    }
    int64_t peer_p95 = 0, origin_p95 = 0;
    for (const obs::PhaseBreakdown& row : dry.phases) {
      if (row.phase == "peer_lookup") peer_p95 = row.p95_micros;
      if (row.phase == "origin_roundtrip") origin_p95 = row.p95_micros;
    }

    options.rbe.clients = 8;
    options.real_time_scale = pacing;
    workload::ReplayResult output =
        experiment.Replay(experiment.trace(), options);
    const workload::RbeResult& run = output.rbe;
    const core::ProxyStats& stats = output.proxy_stats;
    const double rps = run.RequestsPerSecond();
    if (proxies == tier_sizes.front()) base_rps = rps;
    double speedup = base_rps > 0.0 ? rps / base_rps : 0.0;
    double peer_hit_ratio =
        stats.template_requests > 0
            ? static_cast<double>(stats.peer_hits) /
                  static_cast<double>(stats.template_requests)
            : 0.0;
    std::printf("%-8zu %10.1f %10.0f %7.2fx %8.1f%% %9lu %11lld %11lld %9lu\n",
                proxies, run.wall_millis, rps, speedup, 100.0 * peer_hit_ratio,
                static_cast<unsigned long>(output.origin_form_queries),
                static_cast<long long>(peer_p95),
                static_cast<long long>(origin_p95),
                static_cast<unsigned long>(run.failed));

    std::vector<std::pair<std::string, double>> extras = {
        {"proxies", static_cast<double>(proxies)},
        {"threads", static_cast<double>(options.rbe.clients)},
        {"wall_ms", run.wall_millis},
        {"p50_ms", static_cast<double>(run.WallPercentileMicros(50)) / 1000.0},
        {"p95_ms", static_cast<double>(run.WallPercentileMicros(95)) / 1000.0},
        {"p99_ms", static_cast<double>(run.WallPercentileMicros(99)) / 1000.0},
        {"errors", static_cast<double>(run.failed)},
        {"peer_hit_ratio", peer_hit_ratio},
        {"peer_lookups", static_cast<double>(stats.peer_lookups)},
        {"peer_hits", static_cast<double>(stats.peer_hits)},
        {"peer_failures", static_cast<double>(stats.peer_failures)},
        {"origin_queries", static_cast<double>(output.origin_form_queries)},
        {"cache_entries", static_cast<double>(output.cache_entries_final)},
        // Modeled latency split from the single-client calibration pass.
        {"peer_lookup_p95_us", static_cast<double>(peer_p95)},
        {"origin_roundtrip_p95_us", static_cast<double>(origin_p95)},
    };
    for (const obs::PhaseBreakdown& row : output.phases) {
      extras.emplace_back("phase_" + row.phase + "_total_us",
                          static_cast<double>(row.total_micros));
      extras.emplace_back("phase_" + row.phase + "_p95_us",
                          static_cast<double>(row.p95_micros));
    }
    json.Record(std::string("tier_throughput/p") + std::to_string(proxies),
                rps, "req/s", extras);
  }
  std::printf("\nPeer lookups ride the %s peer link; expected: req/s grows "
              "1 -> 4 proxies. A lookup the owner answers by fetching spans "
              "its origin trip, so peer_lookup p95 is of the order of "
              "origin_roundtrip p95.\n", "0.3 ms");
  return 0;
}
