// Overload-resilience sweep: replays a flash-crowd trace (background Radial
// mix with a burst window where ~85% of queries slam one hot cone) through
// one shared proxy while the closed-loop client count climbs past the
// proxy's admission bound. Measures what the overload controls buy:
//
//   - single-flight collapsing: concurrent identical/subsumed misses on the
//     hot cone share one origin fetch (collapse ratio = hot client requests
//     per hot origin fetch);
//   - admission control: past `max_queue_depth` in-flight requests the proxy
//     answers 503 + Retry-After instead of queueing unboundedly, so goodput
//     holds near its peak and p99 stays bounded;
//   - deadline propagation: a tight X-Deadline-Micros budget short-circuits
//     origin-bound work that cannot fit a WAN trip.
//
//   bench_overload [num-queries] [max-threads] [pacing] [--smoke]
//                  [--json[=path]]
//
// Defaults: 2400 queries, threads swept over {1, 4, 16, 64}, pacing 0.02.
// Queries run from 1 to 10,000,000, threads from 1 to 256 and pacing from
// 0 to 1; anything else exits 2 with the usage text.
// --smoke shrinks to 500 queries / {4, 16} threads for CI. With --json each
// sweep point appends one JSON-lines record (see docs/FORMATS.md); the
// regression gate watches overload/goodput.
//
// Expected shape: collapse ratio >= 10x at 64 threads (one origin fetch
// serves the whole crowd), goodput at 64 threads within 20% of the peak
// sweep point, nonzero shed count once threads exceed the admission bound.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace fnproxy;

namespace {

/// Origin-side tap: counts requests whose URL (form query or instantiated
/// SQL) mentions the hot cone's center — every fetch the flash crowd forced
/// past the cache and the in-flight table.
class CountingOriginHandler final : public net::HttpHandler {
 public:
  CountingOriginHandler(net::HttpHandler* inner, std::string hot_marker)
      : inner_(inner), hot_marker_(std::move(hot_marker)) {}

  net::HttpResponse Handle(const net::HttpRequest& request) override {
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (request.ToUrl().find(hot_marker_) != std::string::npos) {
      hot_requests_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_->Handle(request);
  }

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t hot_requests() const {
    return hot_requests_.load(std::memory_order_relaxed);
  }

 private:
  net::HttpHandler* inner_;
  std::string hot_marker_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> hot_requests_{0};
};

struct OverloadPoint {
  workload::RbeResult run;
  core::ProxyStats stats;
  uint64_t origin_requests = 0;
  uint64_t origin_hot_requests = 0;
};

OverloadPoint RunPoint(workload::SkyExperiment& experiment,
                       const workload::Trace& trace,
                       const core::ProxyConfig& config, size_t threads,
                       double pacing, int64_t deadline_budget_micros,
                       const std::string& hot_marker) {
  util::SimulatedClock clock;
  clock.set_real_time_scale(pacing);
  server::OriginWebApp app(experiment.database(), &clock,
                           experiment.options().server_costs);
  if (!app.RegisterForm("/radial", workload::kRadialTemplateSql).ok()) {
    std::abort();
  }
  CountingOriginHandler origin(&app, hot_marker);
  net::SimulatedChannel wan(&origin, experiment.options().wan, &clock);
  core::FunctionProxy proxy(config, &experiment.templates(), &wan, &clock);
  net::SimulatedChannel lan(&proxy, experiment.options().lan, &clock);
  workload::RbeOptions browsers;
  browsers.clients = threads;
  browsers.deadline_budget_micros = deadline_budget_micros;
  workload::RemoteBrowserEmulator rbe(&lan, &clock, browsers);

  OverloadPoint point;
  point.run = rbe.Run(trace);
  point.stats = proxy.stats();
  point.origin_requests = wan.total_requests();
  point.origin_hot_requests = origin.hot_requests();
  return point;
}

constexpr char kUsage[] =
    "usage: bench_overload [num-queries 1-10000000] [max-threads 1-256]"
    " [pacing 0-1] [--smoke] [--json[=path]] [--git-sha=SHA]\n";

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json =
      bench::BenchJson::FromArgs(&argc, argv, "bench_overload");
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
               : (smoke ? 500 : 2400);
  const size_t max_threads =
      argc > 2 ? bench::CountArg(kUsage, "max-threads", argv[2], 1,
                                 bench::kMaxClients)
               : (smoke ? 16 : 64);
  const double pacing =
      argc > 3 ? bench::RealArg(kUsage, "pacing", argv[3], 0.0, 1.0) : 0.02;

  std::printf("=== Overload resilience: flash crowd (%zu queries, up to %zu "
              "clients, pacing %.3f) ===\n",
              num_queries, max_threads, pacing);

  workload::SkyExperiment experiment(bench::PaperOptions(num_queries));

  workload::FlashCrowdTraceConfig crowd;
  crowd.base = experiment.options().trace;
  crowd.base.num_queries = num_queries;
  // Keep the hot cone inside the catalog's populated footprint.
  crowd.hot_ra = 180.0;
  crowd.hot_dec = 30.0;
  crowd.hot_radius_arcmin = 20.0;
  workload::Trace trace = workload::GenerateFlashCrowdTrace(crowd);
  const std::string hot_marker = "180.0000";
  uint64_t hot_client_requests = 0;
  for (const workload::TraceQuery& query : trace.queries) {
    auto it = query.params.find("ra");
    if (it != query.params.end() && it->second == hot_marker) {
      ++hot_client_requests;
    }
  }
  std::printf("Flash crowd: %zu queries, %llu on the hot cone (ra=%s)\n",
              trace.queries.size(),
              static_cast<unsigned long long>(hot_client_requests),
              hot_marker.c_str());

  core::ProxyConfig config =
      bench::MakeProxyConfig(core::CachingMode::kActiveFull);
  config.cache_shards = 8;
  config.collapse_inflight = true;
  // Admit at most 48 in-flight requests; past that, shed. The watermark sits
  // at the bound so only the hard limit fires in this closed-loop sweep
  // (the soft origin-backlog lane is exercised by the unit tests).
  config.max_queue_depth = 48;
  config.origin_shed_watermark = 1.0;

  // A generous budget: several WAN round trips fit, so only pathological
  // waits are cut short. Virtual micros.
  const int64_t kDeadlineBudgetMicros = 120'000'000;

  std::vector<size_t> sweep;
  for (size_t t = smoke ? 4 : 1; t <= max_threads; t *= 4) sweep.push_back(t);
  if (sweep.empty() || sweep.back() != max_threads)
    sweep.push_back(max_threads);

  std::printf("\n%8s %10s %10s %9s %9s %9s %10s %9s %9s\n", "threads",
              "goodput/s", "shed", "shed %", "collapsed", "hot org",
              "ratio", "p50 ms", "p99 ms");
  double peak_goodput = 0.0;
  double final_goodput = 0.0;
  for (size_t threads : sweep) {
    OverloadPoint point = RunPoint(experiment, trace, config, threads, pacing,
                                   kDeadlineBudgetMicros, hot_marker);
    const workload::RbeResult& run = point.run;
    const double requests = static_cast<double>(run.queries.size());
    double wall_seconds = run.wall_millis / 1000.0;
    double goodput_rps =
        wall_seconds > 0.0
            ? static_cast<double>(run.ok + run.partial) / wall_seconds
            : 0.0;
    peak_goodput = std::max(peak_goodput, goodput_rps);
    final_goodput = goodput_rps;
    double shed_pct =
        requests > 0 ? 100.0 * static_cast<double>(run.shed) / requests : 0.0;
    const double p50_ms =
        static_cast<double>(run.WallPercentileMicros(50)) / 1000.0;
    const double p99_ms =
        static_cast<double>(run.WallPercentileMicros(99)) / 1000.0;
    double collapse_ratio =
        point.origin_hot_requests > 0
            ? static_cast<double>(hot_client_requests) /
                  static_cast<double>(point.origin_hot_requests)
            : static_cast<double>(hot_client_requests);
    std::printf("%8zu %10.0f %10llu %8.1f%% %9llu %9llu %9.0fx %9.2f %9.2f\n",
                threads, goodput_rps,
                static_cast<unsigned long long>(run.shed), shed_pct,
                static_cast<unsigned long long>(point.stats.collapsed),
                static_cast<unsigned long long>(point.origin_hot_requests),
                collapse_ratio, p50_ms, p99_ms);
    json.Record(
        std::string("overload/t") + std::to_string(threads), goodput_rps,
        "req/s",
        {{"threads", static_cast<double>(threads)},
         {"goodput_rps", goodput_rps},
         {"requests", requests},
         {"errors", static_cast<double>(run.failed)},
         {"shed", static_cast<double>(run.shed)},
         {"shed_pct", shed_pct},
         {"partials", static_cast<double>(run.partial)},
         {"collapsed", static_cast<double>(point.stats.collapsed)},
         {"deadline_exceeded",
          static_cast<double>(point.stats.deadline_exceeded)},
         {"origin_requests", static_cast<double>(point.origin_requests)},
         {"origin_hot_requests",
          static_cast<double>(point.origin_hot_requests)},
         {"collapse_ratio", collapse_ratio},
         {"p50_ms", p50_ms},
         {"p99_ms", p99_ms}});
  }
  // The regression-gate headline: goodput at the highest client count,
  // normalized by the sweep's peak — stays near 1.0 when shedding works,
  // collapses toward 0 if overload degrades goodput.
  double goodput_retention =
      peak_goodput > 0.0 ? final_goodput / peak_goodput : 0.0;
  json.Record("overload/goodput_retention", goodput_retention, "fraction",
              {{"peak_goodput_rps", peak_goodput},
               {"final_goodput_rps", final_goodput}});
  std::printf("\nGoodput retention at %zu clients: %.2f of peak\n",
              max_threads, goodput_retention);

  // Contrast run: collapsing disabled at the top client count. Every
  // concurrent hot-cone miss pays its own origin fetch.
  core::ProxyConfig solo = config;
  solo.collapse_inflight = false;
  OverloadPoint no_collapse = RunPoint(experiment, trace, solo, max_threads,
                                       pacing, kDeadlineBudgetMicros,
                                       hot_marker);
  std::printf("No-collapse contrast at %zu threads: %llu hot origin fetches "
              "(vs collapsed sweep above)\n",
              max_threads,
              static_cast<unsigned long long>(
                  no_collapse.origin_hot_requests));
  json.Record("overload/no_collapse_hot_fetches",
              static_cast<double>(no_collapse.origin_hot_requests), "requests",
              {{"threads", static_cast<double>(max_threads)},
               {"origin_requests",
                static_cast<double>(no_collapse.origin_requests)}});

  // Tight-deadline run: a budget smaller than one WAN round trip. Misses are
  // short-circuited as deadline-exceeded (503 or degraded partial); cache
  // hits still answer.
  const int64_t kTightBudgetMicros = 50'000;  // < 2 x 150 ms WAN latency.
  OverloadPoint tight = RunPoint(experiment, trace, config,
                                 smoke ? 4 : 16, pacing, kTightBudgetMicros,
                                 hot_marker);
  std::printf("Tight deadline (%lld us budget): %llu shed, %llu partials, "
              "%llu deadline-exceeded, %llu origin requests\n",
              static_cast<long long>(kTightBudgetMicros),
              static_cast<unsigned long long>(tight.run.shed),
              static_cast<unsigned long long>(tight.run.partial),
              static_cast<unsigned long long>(tight.stats.deadline_exceeded),
              static_cast<unsigned long long>(tight.origin_requests));
  json.Record("overload/tight_deadline_exceeded",
              static_cast<double>(tight.stats.deadline_exceeded), "requests",
              {{"budget_us", static_cast<double>(kTightBudgetMicros)},
               {"shed", static_cast<double>(tight.run.shed)},
               {"partials", static_cast<double>(tight.run.partial)},
               {"origin_requests",
                static_cast<double>(tight.origin_requests)}});

  std::printf("\nExpected: collapse ratio >= 10x at the top client count; "
              "goodput retention >= 0.8; nonzero shed once clients exceed "
              "the admission bound.\n");
  return 0;
}
