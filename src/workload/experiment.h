#ifndef FNPROXY_WORKLOAD_EXPERIMENT_H_
#define FNPROXY_WORKLOAD_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "core/template_registry.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "server/cost_model.h"
#include "server/database.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "workload/concurrent_driver.h"
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

/// One fully wired sky experiment: synthetic catalog, origin site, trace,
/// and shared templates. Each `Run` builds a fresh proxy/clock pipeline
/// (RBE → LAN → proxy → WAN → origin) and replays the trace.
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

  const Trace& trace() const { return trace_; }
  const core::TemplateRegistry& templates() const { return templates_; }
  server::Database* database() { return &db_; }
  const Options& options() const { return options_; }

  /// Total XML bytes of the results of the trace's *distinct* queries — the
  /// paper's "total result size of the query trace" against which cache-size
  /// fractions are set (§4.2). Computed once on first use (no clock
  /// involved).
  size_t TotalDistinctResultBytes();

  struct RunResult {
    RbeResult rbe;
    core::ProxyStats proxy_stats;
    uint64_t origin_requests = 0;
    uint64_t origin_bytes_received = 0;
    size_t cache_entries_final = 0;
    size_t cache_bytes_final = 0;
    /// Entries the replacement policy evicted over the replay.
    uint64_t evictions = 0;
    /// Per-phase latency breakdown (count/total/p50/p95/p99 in virtual µs)
    /// from the proxy's fnproxy_phase_duration_micros histograms.
    std::vector<obs::PhaseBreakdown> phases;
  };

  /// Replays the built-in Radial trace through a fresh proxy.
  RunResult Run(const core::ProxyConfig& proxy_config);

  /// Replays an arbitrary trace (e.g. a rect trace from GenerateRectTrace or
  /// a file) through a fresh proxy pipeline. The origin registers both the
  /// /radial and /rect forms, so either workload can be driven.
  RunResult RunTrace(const Trace& trace, const core::ProxyConfig& proxy_config);

  struct ConcurrentRunOutput {
    ConcurrentRunResult driver;
    core::ProxyStats proxy_stats;
    uint64_t origin_requests = 0;
    uint64_t origin_bytes_received = 0;
    size_t cache_entries_final = 0;
    size_t cache_bytes_final = 0;
    /// Per-phase latency breakdown, as in RunResult::phases.
    std::vector<obs::PhaseBreakdown> phases;
  };

  /// Replays a trace through a fresh proxy pipeline from `num_threads`
  /// closed-loop workers sharing one proxy (see ConcurrentDriver). With
  /// num_threads == 1 this issues the same requests as RunTrace, in order.
  /// `real_time_scale` > 0 paces the shared clock (every modeled
  /// microsecond also sleeps `scale` real microseconds) so modeled waits
  /// overlap across threads in wall-clock — the basis of the
  /// throughput-vs-threads measurement on any host (see SimulatedClock).
  ConcurrentRunOutput RunTraceConcurrent(const Trace& trace,
                                         const core::ProxyConfig& proxy_config,
                                         size_t num_threads,
                                         double real_time_scale = 0.0);

 private:
  Options options_;
  sql::Table* photo_primary_ = nullptr;  // Owned by db_.
  std::unique_ptr<server::SkyGrid> grid_;
  server::Database db_;
  core::TemplateRegistry templates_;
  Trace trace_;
  size_t total_distinct_bytes_ = 0;
  bool total_bytes_computed_ = false;
};

}  // namespace fnproxy::workload

#endif  // FNPROXY_WORKLOAD_EXPERIMENT_H_
