// Fault-recovery comparison of the five caching schemes: the same Radial
// trace is replayed while the origin suffers a scripted hard outage covering
// 30% of the run's timeline (plus a flaky-origin pass with intermittent
// 500s, drops and latency spikes). The proxy retries with jittered backoff,
// trips a circuit breaker, and — in the active schemes — keeps serving
// subsumed queries from the cache and the cached portion of overlapping
// queries as partial answers.
//
// Expected shape: during the outage kNoCache and kPassive fail nearly every
// query (passive saves only exact-URL repeats), while kActiveFull keeps the
// highest availability — full answers for subsumed queries, partial answers
// with a coverage fraction for overlaps — and coverage-weighted availability
// orders First > Second > Third > PC > NC.

#include <cstdio>

#include "bench_common.h"

using namespace fnproxy;

namespace {

struct Scheme {
  const char* name;
  core::CachingMode mode;
};

const Scheme kSchemes[] = {
    {"NC (no cache)", core::CachingMode::kNoCache},
    {"PC (passive)", core::CachingMode::kPassive},
    {"First (full semantic)", core::CachingMode::kActiveFull},
    {"Second (region cont.)", core::CachingMode::kActiveRegionContainment},
    {"Third (containment)", core::CachingMode::kActiveContainmentOnly},
};

// Think time dominating per-query cost anchors arrivals to the virtual
// timeline, so an outage covering 30% of the timeline hits ~30% of the
// queries in every mode (see RbeOptions::think_time_micros).
constexpr int64_t kThinkMicros = 30'000'000;

core::ProxyConfig FaultTolerantConfig(core::CachingMode mode) {
  core::ProxyConfig config = bench::MakeProxyConfig(mode);
  config.breaker.enabled = true;
  config.breaker.window_size = 8;
  config.breaker.min_samples = 4;
  config.breaker.failure_threshold = 0.5;
  // Probe roughly every fourth query at the 30 s think cadence.
  config.breaker.open_cooldown_micros = 120'000'000;
  config.breaker.half_open_successes = 2;
  return config;
}

net::RetryPolicy WanRetryPolicy() {
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff_micros = 200'000;
  retry.max_backoff_micros = 2'000'000;
  // The 2004-era WAN moves ~6 KB/s, so legitimate bodies take tens of
  // seconds; 90 s only catches drops the injector models (1 s detect) and
  // pathological trickles.
  retry.per_attempt_timeout_micros = 90'000'000;
  retry.jitter_seed = 42;
  return retry;
}

void PrintHeader() {
  std::printf("%-24s %7s %7s %7s %7s %8s %8s %7s %7s %8s\n", "scheme", "ok",
              "partial", "failed", "avail", "covAvail", "cacheEff", "brkOpen",
              "retries", "faults");
}

/// The fault-tolerant replay of one scheme; the caller adds the faults.
workload::ReplayOptions FaultTolerantReplay(core::CachingMode mode) {
  workload::ReplayOptions options;
  options.tier.proxy = FaultTolerantConfig(mode);
  options.origin_retry = WanRetryPolicy();
  options.rbe.think_time_micros = kThinkMicros;
  return options;
}

void PrintRow(const char* name, const workload::ReplayResult& r) {
  std::printf("%-24s %7lu %7lu %7lu %6.1f%% %7.1f%% %8.3f %7lu %7lu %8lu\n",
              name, static_cast<unsigned long>(r.rbe.ok),
              static_cast<unsigned long>(r.rbe.partial),
              static_cast<unsigned long>(r.rbe.failed),
              100 * r.rbe.Availability(),
              100 * r.rbe.CoverageWeightedAvailability(),
              r.proxy_stats.AverageCacheEfficiency(),
              static_cast<unsigned long>(r.proxy_stats.breaker_open_rejections),
              static_cast<unsigned long>(r.origin_retry_stats.retries),
              static_cast<unsigned long>(r.fault_stats.total_faults()));
}

}  // namespace

int main() {
  std::printf("=== Fault recovery: caching schemes under origin failures ===\n");
  workload::SkyExperiment experiment(bench::PaperOptions(3000));
  bench::PrintTraceMix(experiment.trace());

  std::printf(
      "\n--- Scripted outage: origin dark for 30%% of the timeline "
      "(starting at 30%%) ---\n");
  PrintHeader();
  for (const Scheme& scheme : kSchemes) {
    workload::ReplayOptions options = FaultTolerantReplay(scheme.mode);
    options.outage_fractions = {{0.3, 0.3}};
    PrintRow(scheme.name, experiment.Replay(experiment.trace(), options));
  }

  std::printf(
      "\n--- Flaky origin: 10%% 500s, 5%% drops, 2%% garbage bodies, "
      "latency spikes ---\n");
  PrintHeader();
  for (const Scheme& scheme : kSchemes) {
    workload::ReplayOptions options = FaultTolerantReplay(scheme.mode);
    options.faults = net::FlakyProfile(/*seed=*/7);
    PrintRow(scheme.name, experiment.Replay(experiment.trace(), options));
  }

  std::printf(
      "\nExpected shape: under the outage the active schemes keep answering "
      "subsumed\nqueries (ok) and overlaps (partial, discounted by coverage); "
      "NC/PC fail almost\neverything. Against a flaky origin, retries absorb "
      "most transient faults and\nthe breaker bounds the damage of bursts.\n");
  return 0;
}
