// Replays a Radial trace file through the full simulated pipeline
// (RBE -> LAN -> function proxy tier -> WAN -> synthetic SkyServer) under a
// chosen caching scheme and prints the run summary:
//
//   run_trace <trace-file> [scheme] [cache-bytes] [--fault-profile=<name>]
//             [--threads=N] [--proxies=N] [--trace-out=PATH]
//             [--snapshot-out=PATH] [--snapshot-in=PATH] [--expect-first-warm]
//
// Every combination of the options below runs through the one replay,
// workload::SkyExperiment::Replay (docs/FORMATS.md §5).
//
// scheme: nc | pc | full | region | containment   (default: full)
// cache-bytes: result-store budget in bytes, 0 = unlimited (default).
// threads: closed-loop clients, 1 to kMaxThreads = 256 (default 1, the
//   classic sequential replay, exact in virtual time). N > 1 shards each
//   proxy's cache 8 ways, paces the clock and adds wall-clock throughput and
//   latency lines.
// proxies: size of the cooperative tier, 1 to kMaxProxies = 64 (default 1,
//   the classic single proxy). N > 1 wires N proxies behind a round-robin
//   router, with consistent-hash ownership and peer lookups before origin
//   trips.
// trace-out: write one JSON span tree per query (JSONL) to PATH; the schema
//   is documented in docs/OBSERVABILITY.md.
// snapshot-out: enable the storage tier and write a warm-restart snapshot
//   (docs/FORMATS.md §13) at clean shutdown. Requires --proxies=1.
// snapshot-in: restore cache + stats from a snapshot before replaying (the
//   warm-restart half of the round trip). Requires --proxies=1.
// expect-first-warm: exit nonzero unless the first query of this replay was
//   answered from the (restored) cache without an origin round trip — the
//   CI warm-restart smoke check. Requires --threads=1.
// fault-profile:
//   healthy — no faults (default); exits 1 if any query failed.
//   flaky   — intermittent 500s, connection drops, garbage bodies and
//             latency spikes; the WAN channels retry with jittered backoff
//             and a circuit breaker guards the origin.
//   outage  — a hard origin outage covering 30% of the run's timeline
//             (placed by a fault-free calibration replay from the same
//             restored snapshot, which writes none); degraded-mode serving
//             answers what the cache can.
//
// Exit status: 0 on success, 1 when the trace cannot be read or (healthy
// profile) a query failed, 2 on a bad argument — any count or byte budget
// that is not a plain decimal number in range — before any work starts.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/string_util.h"
#include "workload/experiment.h"

using namespace fnproxy;

namespace {

/// Client threads one replay may start.
constexpr size_t kMaxThreads = 256;
/// Proxies one tier may wire; every ordered pair gets a peer channel.
constexpr size_t kMaxProxies = 64;

int Usage() {
  std::fprintf(stderr,
               "usage: run_trace <trace-file> [nc|pc|full|region|containment]"
               " [cache-bytes] [--fault-profile=healthy|flaky|outage]"
               " [--threads=N] [--proxies=N] [--trace-out=PATH]"
               " [--snapshot-out=PATH] [--snapshot-in=PATH]"
               " [--expect-first-warm]\n");
  return 2;
}

/// Says which argument `why` rejects, then prints the usage text.
int BadArgument(const char* what, const util::Status& why) {
  std::fprintf(stderr, "run_trace: %s: %s\n", what, why.message().c_str());
  return Usage();
}

/// Per-phase latency table.
void PrintPhases(const std::vector<obs::PhaseBreakdown>& phases) {
  if (phases.empty()) return;
  std::printf("phase breakdown (virtual micros):\n");
  std::printf("  %-18s %10s %14s %10s %10s %10s\n", "phase", "count",
              "total", "p50", "p95", "p99");
  for (const obs::PhaseBreakdown& row : phases) {
    std::printf("  %-18s %10lu %14lld %10lld %10lld %10lld\n",
                row.phase.c_str(), static_cast<unsigned long>(row.count),
                static_cast<long long>(row.total_micros),
                static_cast<long long>(row.p50_micros),
                static_cast<long long>(row.p95_micros),
                static_cast<long long>(row.p99_micros));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string fault_profile = "healthy";
  std::string trace_out;
  std::string snapshot_out;
  std::string snapshot_in;
  bool expect_first_warm = false;
  size_t num_threads = 1;
  size_t num_proxies = 1;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fault-profile=", 16) == 0) {
      fault_profile = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const auto value = util::ParseUint64InRange(argv[i] + 10, 1, kMaxThreads);
      if (!value.ok()) return BadArgument("--threads", value.status());
      num_threads = *value;
    } else if (std::strncmp(argv[i], "--proxies=", 10) == 0) {
      const auto value = util::ParseUint64InRange(argv[i] + 10, 1, kMaxProxies);
      if (!value.ok()) return BadArgument("--proxies", value.status());
      num_proxies = *value;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--snapshot-out=", 15) == 0) {
      snapshot_out = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--snapshot-in=", 14) == 0) {
      snapshot_in = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--expect-first-warm") == 0) {
      expect_first_warm = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 3) return Usage();
  core::CachingMode mode = core::CachingMode::kActiveFull;
  if (positional.size() > 1) {
    std::string name = positional[1];
    if (name == "nc") mode = core::CachingMode::kNoCache;
    else if (name == "pc") mode = core::CachingMode::kPassive;
    else if (name == "full") mode = core::CachingMode::kActiveFull;
    else if (name == "region") mode = core::CachingMode::kActiveRegionContainment;
    else if (name == "containment") mode = core::CachingMode::kActiveContainmentOnly;
    else {
      std::fprintf(stderr, "unknown scheme %s\n", name.c_str());
      return 2;
    }
  }
  size_t cache_bytes = 0;
  if (positional.size() > 2) {
    const auto value = util::ParseUint64InRange(
        positional[2], 0, std::numeric_limits<size_t>::max());
    if (!value.ok()) return BadArgument("cache-bytes", value.status());
    cache_bytes = *value;
  }
  if ((!snapshot_out.empty() || !snapshot_in.empty()) && num_proxies > 1) {
    // Every proxy of a tier would read and write the one snapshot path.
    std::fprintf(stderr, "--snapshot-out/--snapshot-in require --proxies=1\n");
    return 2;
  }
  if (expect_first_warm && num_threads > 1) {
    // With several clients the proxy records arrive in completion order, so
    // the first record is not the first query's.
    std::fprintf(stderr, "--expect-first-warm requires --threads=1\n");
    return 2;
  }
  if (!snapshot_out.empty() && !snapshot_in.empty() &&
      snapshot_out != snapshot_in) {
    std::fprintf(stderr,
                 "--snapshot-in and --snapshot-out must name the same file "
                 "when both are given\n");
    return 2;
  }
  if (fault_profile != "healthy" && fault_profile != "flaky" &&
      fault_profile != "outage") {
    std::fprintf(stderr, "unknown fault profile %s\n", fault_profile.c_str());
    return 2;
  }
  std::ifstream in(positional[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", positional[0]);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto trace = workload::Trace::Deserialize(buffer.str());
  if (!trace.ok()) {
    std::fprintf(stderr, "trace parse error: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  if (trace->form_path != "/radial") {
    std::fprintf(stderr, "run_trace drives the /radial form; got %s\n",
                 trace->form_path.c_str());
    return 1;
  }

  // Build the standard experiment substrate but replay the user's trace.
  workload::SkyExperiment experiment{workload::SkyExperiment::Options()};

  std::unique_ptr<obs::JsonlTraceWriter> trace_writer;
  if (!trace_out.empty()) {
    auto writer = obs::JsonlTraceWriter::Open(trace_out);
    if (!writer.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", trace_out.c_str(),
                   writer.status().ToString().c_str());
      return 1;
    }
    trace_writer = std::move(*writer);
  }

  workload::ReplayOptions options;
  options.tier.num_proxies = num_proxies;
  options.tier.proxy.mode = mode;
  options.tier.proxy.max_cache_bytes = cache_bytes;
  options.tier.proxy.trace_sink = trace_writer.get();
  options.rbe.clients = num_threads;
  if (num_threads > 1) {
    // Spread lock contention across shards, and pace the clock so modeled
    // waits overlap across clients in wall-clock.
    options.tier.proxy.cache_shards = 8;
    options.real_time_scale = 0.01;
  }
  if (!snapshot_out.empty() || !snapshot_in.empty()) {
    options.tier.proxy.storage.enable = true;
    // Inline maintenance keeps the single-threaded replay deterministic.
    options.tier.proxy.storage.background_maintenance = false;
    options.tier.proxy.storage.snapshot_path =
        snapshot_out.empty() ? snapshot_in : snapshot_out;
    options.tier.proxy.storage.restore_on_start = !snapshot_in.empty();
  }
  if (fault_profile != "healthy") {
    // An unreliable origin warrants retries and a breaker.
    options.tier.proxy.breaker.enabled = true;
    options.tier.proxy.breaker.open_cooldown_micros = 120'000'000;
    options.origin_retry.max_attempts = 3;
    options.origin_retry.base_backoff_micros = 200'000;
    options.origin_retry.max_backoff_micros = 2'000'000;
    options.origin_retry.jitter_seed = 42;
  }
  if (fault_profile == "flaky") {
    options.faults = net::FlakyProfile();
  } else if (fault_profile == "outage") {
    options.outage_fractions = {{0.3, 0.3}};
    // Think time anchors query arrivals to the timeline so the outage
    // fraction translates into a query fraction (see RbeOptions).
    options.rbe.think_time_micros = 30'000'000;
  }

  const workload::ReplayResult result = experiment.Replay(*trace, options);
  const workload::RbeResult& run = result.rbe;
  const core::ProxyStats& stats = result.proxy_stats;
  std::printf("scheme:              %s\n", core::CachingModeName(mode));
  std::printf("fault profile:       %s\n", fault_profile.c_str());
  std::printf("tier:                proxies %zu, clients %zu\n", num_proxies,
              num_threads);
  std::printf("queries:             %zu (%lu failed)\n",
              trace->queries.size(), static_cast<unsigned long>(run.failed));
  std::printf("avg response:        %.0f ms (first 10k: %.0f ms)\n",
              run.AverageResponseMillis(), run.AverageResponseMillis(10000));
  if (num_threads > 1) {
    // Wall-clock numbers only under concurrency: a one-client replay is
    // exact in virtual time, and its output repeats byte for byte.
    std::printf("wall time:           %.1f ms (%.0f req/s)\n", run.wall_millis,
                run.RequestsPerSecond());
    std::printf("latency (wall):      p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, "
                "max %.2f ms\n",
                static_cast<double>(run.WallPercentileMicros(50)) / 1000.0,
                static_cast<double>(run.WallPercentileMicros(95)) / 1000.0,
                static_cast<double>(run.WallPercentileMicros(99)) / 1000.0,
                static_cast<double>(run.WallPercentileMicros(100)) / 1000.0);
  }
  std::printf("cache efficiency:    %.3f\n", stats.AverageCacheEfficiency());
  std::printf("hits:                exact %lu, containment %lu, "
              "region-containment %lu, overlap %lu\n",
              static_cast<unsigned long>(stats.exact_hits),
              static_cast<unsigned long>(stats.containment_hits),
              static_cast<unsigned long>(stats.region_containments),
              static_cast<unsigned long>(stats.overlaps_handled));
  std::printf("peer lookups:        %lu (%lu served by a sibling, "
              "%lu failures)\n",
              static_cast<unsigned long>(stats.peer_lookups),
              static_cast<unsigned long>(stats.peer_hits),
              static_cast<unsigned long>(stats.peer_failures));
  std::printf("misses:              %lu\n",
              static_cast<unsigned long>(stats.misses));
  std::printf("origin requests:     %lu (%.1f MB received)\n",
              static_cast<unsigned long>(result.origin_requests),
              static_cast<double>(result.origin_bytes_received) /
                  (1024 * 1024));
  std::printf("origin queries:      %lu form, %lu sql\n",
              static_cast<unsigned long>(result.origin_form_queries),
              static_cast<unsigned long>(result.origin_sql_queries));
  std::printf("final cache:         %zu entries, %.1f MB\n",
              result.cache_entries_final,
              static_cast<double>(result.cache_bytes_final) / (1024 * 1024));
  if (!snapshot_out.empty()) {
    std::printf("snapshot:            will be written to %s at shutdown\n",
                snapshot_out.c_str());
  }
  if (expect_first_warm) {
    // stats.records = [restored records..., this replay's records]; the
    // first record of this replay sits queries.size() from the end.
    if (stats.records.size() < trace->queries.size()) {
      std::fprintf(stderr, "expect-first-warm: missing query records\n");
      return 1;
    }
    const core::QueryRecord& first =
        stats.records[stats.records.size() - trace->queries.size()];
    const bool warm = first.handled_by_template && !first.failed &&
                      !first.contacted_origin;
    std::printf("first query:         %s\n",
                warm ? "warm (served from restored cache, no origin trip)"
                     : "COLD (origin contacted)");
    if (!warm) return 1;
  }
  PrintPhases(result.phases);
  if (fault_profile == "healthy") return run.failed == 0 ? 0 : 1;
  std::printf(
      "availability:        %.1f%% (%lu ok, %lu partial, %lu failed), "
      "coverage-weighted %.1f%%\n",
      100 * run.Availability(), static_cast<unsigned long>(run.ok),
      static_cast<unsigned long>(run.partial),
      static_cast<unsigned long>(run.failed),
      100 * run.CoverageWeightedAvailability());
  std::printf(
      "degraded answers:    %lu full, %lu partial, %lu unavailable (503)\n",
      static_cast<unsigned long>(stats.degraded_full),
      static_cast<unsigned long>(stats.degraded_partial),
      static_cast<unsigned long>(stats.degraded_unavailable));
  std::printf(
      "origin channel:      %lu failures, %lu retries, %lu timeouts, "
      "%lu breaker rejections, %lu breaker transitions\n",
      static_cast<unsigned long>(stats.origin_failures),
      static_cast<unsigned long>(result.origin_retry_stats.retries),
      static_cast<unsigned long>(result.origin_retry_stats.timeouts),
      static_cast<unsigned long>(stats.breaker_open_rejections),
      static_cast<unsigned long>(stats.breaker_transitions));
  std::printf(
      "faults injected:     %lu (drops %lu, errors %lu, garbage %lu, "
      "truncations %lu, outage drops %lu)\n",
      static_cast<unsigned long>(result.fault_stats.total_faults()),
      static_cast<unsigned long>(result.fault_stats.injected_drops),
      static_cast<unsigned long>(result.fault_stats.injected_errors),
      static_cast<unsigned long>(result.fault_stats.injected_garbage),
      static_cast<unsigned long>(result.fault_stats.injected_truncations),
      static_cast<unsigned long>(result.fault_stats.outage_drops));
  return 0;
}
