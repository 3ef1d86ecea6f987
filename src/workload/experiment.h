#ifndef FNPROXY_WORKLOAD_EXPERIMENT_H_
#define FNPROXY_WORKLOAD_EXPERIMENT_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "core/template_registry.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "server/cost_model.h"
#include "server/database.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "workload/multi_proxy.h"
#include "workload/rbe.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"

namespace fnproxy::workload {

/// The Radial query template the experiments register at both ends: the
/// origin site's /radial form and the proxy's template registry use the
/// same SQL (paper Fig. 2, with a photo-flags filter as the
/// "other_predicates").
extern const char kRadialTemplateSql[];

/// Function template XML for fGetNearbyObjEq (paper Fig. 3 plus coordinate
/// columns).
extern const char kNearbyObjEqTemplateXml[];

/// The rectangular-search template pair for fGetObjFromRect.
extern const char kRectTemplateSql[];
extern const char kObjFromRectTemplateXml[];

/// Every setting of one trace replay (see SkyExperiment::Replay).
struct ReplayOptions {
  /// The proxies under test: one by default, each configured by
  /// `tier.proxy`.
  ProxyTierOptions tier;
  /// The browsers driving them.
  RbeOptions rbe;
  /// Faults injected in front of the origin, behind every proxy's origin
  /// channel. Outage windows here use absolute virtual time; see
  /// `outage_fractions` for the usual duration-relative way to place them.
  net::FaultProfile faults;
  /// Retry schedule on every proxy's origin channel.
  net::RetryPolicy origin_retry;
  /// Outage windows as (start, length) fractions of the replay's virtual
  /// duration, e.g. {0.3, 0.3} = an outage covering the middle third. Each
  /// scheme finishes the trace at a different virtual time, so a fault-free
  /// calibration replay with the same settings first measures that
  /// duration, and the fractions become absolute windows: "30% outage" hits
  /// every scheme for the same share of its own timeline. The calibration
  /// starts from the same restored snapshot as the measured replay but
  /// writes none and traces nothing.
  std::vector<std::pair<double, double>> outage_fractions;
  /// > 0 paces the shared clock: every modeled microsecond also sleeps
  /// `real_time_scale` real microseconds, so modeled waits overlap across
  /// clients in wall-clock, the basis of the throughput measurements on any
  /// host (see SimulatedClock).
  double real_time_scale = 0.0;
};

/// What one replay measured.
struct ReplayResult {
  RbeResult rbe;
  /// Tier-wide statistics: the field-wise sum of `per_proxy`, records
  /// concatenated in proxy order.
  core::ProxyStats proxy_stats;
  std::vector<core::ProxyStats> per_proxy;
  /// Wire traffic on the proxies' origin channels (each retry counts).
  uint64_t origin_requests = 0;
  uint64_t origin_bytes_received = 0;
  net::ChannelRetryStats origin_retry_stats;
  /// Queries the origin web app executed, by endpoint.
  uint64_t origin_form_queries = 0;
  uint64_t origin_sql_queries = 0;
  net::FaultStats fault_stats;
  size_t cache_entries_final = 0;
  size_t cache_bytes_final = 0;
  /// Entries the replacement policy evicted over the replay.
  uint64_t evictions = 0;
  /// The shared clock when the last query was answered.
  int64_t virtual_duration_micros = 0;
  /// Per-phase latency breakdown (count/total/p50/p95/p99 in virtual µs)
  /// from the proxies' fnproxy_phase_duration_micros histograms. Counts and
  /// totals are summed across proxies; the percentile columns carry the
  /// worst per-proxy value (histograms cannot be merged exactly, and the
  /// conservative bound is the right side to gate on).
  std::vector<obs::PhaseBreakdown> phases;
};

/// One fully wired sky experiment: synthetic catalog, origin site, trace,
/// and shared templates. Each `Replay` builds a fresh pipeline on a fresh
/// clock and replays a trace through it. The experiment's own trace is
/// generated on the first call to `trace()`, so callers that replay other
/// traces never pay for it.
class SkyExperiment {
 public:
  struct Options {
    catalog::SkyCatalogConfig catalog;
    RadialTraceConfig trace;
    server::ServerCostModel server_costs;
    net::LinkConfig lan;
    net::LinkConfig wan;

    Options()
        : lan(net::LanLink()), wan(net::WanLink()) {
      // Moderate defaults so a full Figure-5 sweep stays laptop-friendly.
      catalog.num_objects = 300000;
      catalog.num_clusters = 40;
      catalog.cluster_fraction = 0.75;
      catalog.ra_min = 130.0;
      catalog.ra_max = 230.0;
      catalog.dec_min = 0.0;
      catalog.dec_max = 60.0;
      trace.ra_min = 132.0;
      trace.ra_max = 228.0;
      trace.dec_min = 2.0;
      trace.dec_max = 58.0;
    }
  };

  explicit SkyExperiment(Options options);

  /// The experiment's Radial trace (`options().trace`, aimed at the
  /// catalog's clusters). Built on the first call; safe to call from
  /// several threads at once.
  const Trace& trace() const;
  /// The configuration trace() generates from: `options().trace` with the
  /// catalog's cluster centers inside the trace footprint as hotspots.
  const RadialTraceConfig& trace_config() const { return trace_config_; }
  const core::TemplateRegistry& templates() const { return templates_; }
  server::Database* database() { return &db_; }
  const Options& options() const { return options_; }

  /// Total XML bytes of the results of the trace's *distinct* queries — the
  /// paper's "total result size of the query trace" against which cache-size
  /// fractions are set (§4.2). Computed once on first use (no clock
  /// involved).
  size_t TotalDistinctResultBytes();

  /// Replays `trace` (the built-in Radial trace, a rect trace from
  /// GenerateRectTrace, or a file) through a fresh pipeline:
  ///   origin web app (/radial and /rect forms) → FaultInjector →
  ///   ProxyTier (each proxy on its own WAN channel carrying the retry
  ///   policy) → LAN → RemoteBrowserEmulator.
  /// The paper's set-up (§4.1) is the default: one proxy, one client, no
  /// faults.
  ReplayResult Replay(const Trace& trace, const ReplayOptions& options);

 private:
  /// One pass of Replay: builds the pipeline, restores `restore_from` (if
  /// set) into every proxy, and replays the trace. Ignores
  /// `outage_fractions`.
  ReplayResult RunPipeline(const Trace& trace, const ReplayOptions& options,
                           const std::string& restore_from);

  Options options_;
  std::unique_ptr<server::SkyGrid> grid_;
  server::Database db_;
  core::TemplateRegistry templates_;
  /// `options_.trace` with the catalog's cluster centers as hotspots.
  RadialTraceConfig trace_config_;
  mutable std::once_flag trace_once_;
  mutable Trace trace_;
  size_t total_distinct_bytes_ = 0;
  bool total_bytes_computed_ = false;
};

}  // namespace fnproxy::workload

#endif  // FNPROXY_WORKLOAD_EXPERIMENT_H_
