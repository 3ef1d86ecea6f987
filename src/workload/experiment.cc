#include "workload/experiment.h"

#include <algorithm>
#include <set>

#include "catalog/sky_catalog.h"
#include "util/logging.h"

namespace fnproxy::workload {

const char kRadialTemplateSql[] =
    "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID "
    "WHERE (p.flags & fPhotoFlags('SATURATED')) = 0";

const char kNearbyObjEqTemplateXml[] = R"(<FunctionTemplate>
  <Name>fGetNearbyObjEq</Name>
  <Params><P>$ra</P><P>$dec</P><P>$radius</P></Params>
  <Shape>hypersphere</Shape>
  <NumDimensions>3</NumDimensions>
  <CenterCoordinate>
    <C>cos(radians($ra))*cos(radians($dec))</C>
    <C>sin(radians($ra))*cos(radians($dec))</C>
    <C>sin(radians($dec))</C>
  </CenterCoordinate>
  <Radius>2*sin(radians($radius/60.0)/2)</Radius>
  <CoordinateColumns><C>cx</C><C>cy</C><C>cz</C></CoordinateColumns>
</FunctionTemplate>)";

const char kRectTemplateSql[] =
    "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.r "
    "FROM fGetObjFromRect($ra_min, $ra_max, $dec_min, $dec_max) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID";

const char kObjFromRectTemplateXml[] = R"(<FunctionTemplate>
  <Name>fGetObjFromRect</Name>
  <Params><P>$ra_min</P><P>$ra_max</P><P>$dec_min</P><P>$dec_max</P></Params>
  <Shape>hyperrectangle</Shape>
  <NumDimensions>2</NumDimensions>
  <Lo><C>$ra_min</C><C>$dec_min</C></Lo>
  <Hi><C>$ra_max</C><C>$dec_max</C></Hi>
  <CoordinateColumns><C>ra</C><C>dec</C></CoordinateColumns>
</FunctionTemplate>)";

namespace {

void Check(const util::Status& status, const char* what) {
  if (!status.ok()) {
    FNPROXY_LOG(kError) << what << ": " << status.ToString();
    std::abort();
  }
}

/// Registers origin-side serving counters into the proxy's registry so one
/// /metrics scrape covers the whole pipeline (the web app keeps the atomics;
/// callbacks read them at render time).
void RegisterOriginMetrics(core::FunctionProxy* proxy,
                           server::OriginWebApp* app) {
  obs::MetricsRegistry& registry = proxy->metrics();
  registry.AddCallback(
      "fnproxy_origin_queries_served_total",
      "Queries the origin web app answered, by endpoint kind",
      /*is_counter=*/true, {{"endpoint", "form"}},
      [app] { return static_cast<double>(app->form_queries_served()); });
  registry.AddCallback(
      "fnproxy_origin_queries_served_total",
      "Queries the origin web app answered, by endpoint kind",
      /*is_counter=*/true, {{"endpoint", "sql"}},
      [app] { return static_cast<double>(app->sql_queries_served()); });
  registry.AddCallback(
      "fnproxy_origin_processing_micros_total",
      "Virtual time the origin spent executing queries",
      /*is_counter=*/true, {},
      [app] { return static_cast<double>(app->total_processing_micros()); });
}

}  // namespace

SkyExperiment::SkyExperiment(Options options) : options_(std::move(options)) {
  // Catalog and origin database.
  std::vector<std::pair<double, double>> clusters;
  db_.AddTable("PhotoPrimary",
                catalog::GenerateSkyCatalog(options_.catalog, &clusters));
  grid_ = std::make_unique<server::SkyGrid>(db_.FindTable("PhotoPrimary"));
  db_.RegisterTableFunction(server::MakeGetNearbyObjEq(grid_.get()));
  db_.RegisterTableFunction(server::MakeGetObjFromRect(grid_.get()));
  db_.RegisterTableFunction(server::MakeGetObjInTriangle(grid_.get()));
  db_.scalar_functions()->Register(
      "fPhotoFlags",
      [](const std::vector<sql::Value>& args)
          -> util::StatusOr<sql::Value> {
        if (args.size() != 1 ||
            args[0].type() != sql::ValueType::kString) {
          return util::Status::InvalidArgument(
              "fPhotoFlags expects one flag-name string");
        }
        FNPROXY_ASSIGN_OR_RETURN(int64_t bit,
                                 catalog::PhotoFlagValue(args[0].AsString()));
        return sql::Value::Int(bit);
      });

  // Templates shared by all proxy runs.
  Check(templates_.RegisterFunctionTemplateXml(kNearbyObjEqTemplateXml),
        "register fGetNearbyObjEq template");
  auto qt = core::QueryTemplate::Create("radial", "/radial", kRadialTemplateSql);
  Check(qt.status(), "parse radial query template");
  Check(templates_.RegisterQueryTemplate(std::move(*qt)),
        "register radial query template");
  Check(templates_.RegisterFunctionTemplateXml(kObjFromRectTemplateXml),
        "register fGetObjFromRect template");
  auto rect_qt = core::QueryTemplate::Create("rect", "/rect", kRectTemplateSql);
  Check(rect_qt.status(), "parse rect query template");
  Check(templates_.RegisterQueryTemplate(std::move(*rect_qt)),
        "register rect query template");

  // Trace hotspots follow the catalog's clusters (drop centers outside the
  // trace footprint). The trace itself waits for the first trace() call.
  trace_config_ = options_.trace;
  for (const auto& [ra, dec] : clusters) {
    if (ra >= trace_config_.ra_min && ra <= trace_config_.ra_max &&
        dec >= trace_config_.dec_min && dec <= trace_config_.dec_max) {
      trace_config_.hotspot_centers.emplace_back(ra, dec);
    }
  }
}

const Trace& SkyExperiment::trace() const {
  std::call_once(trace_once_,
                 [this] { trace_ = GenerateRadialTrace(trace_config_); });
  return trace_;
}

size_t SkyExperiment::TotalDistinctResultBytes() {
  if (total_bytes_computed_) return total_distinct_bytes_;
  util::SimulatedClock scratch_clock;
  server::OriginWebApp app(&db_, &scratch_clock, options_.server_costs);
  Check(app.RegisterForm("/radial", kRadialTemplateSql), "register /radial");
  const Trace& queries = trace();
  std::set<std::string> seen;
  size_t total = 0;
  for (const TraceQuery& query : queries.queries) {
    std::string key = net::BuildQueryString(query.params);
    if (!seen.insert(key).second) continue;
    net::HttpResponse response = app.Handle(MakeRequest(queries, query));
    if (response.ok()) total += response.body.size();
  }
  total_distinct_bytes_ = total;
  total_bytes_computed_ = true;
  return total;
}

ReplayResult SkyExperiment::Replay(const Trace& trace,
                                   const ReplayOptions& options) {
  if (options.outage_fractions.empty()) {
    return RunPipeline(trace, options, /*restore_from=*/"");
  }
  // Calibration: the same replay without faults, from the same restored
  // state. It writes no snapshot, so the measured replay restores what the
  // caller's file held, not the calibration's end state.
  ReplayOptions healthy = options;
  healthy.faults = net::HealthyProfile();
  healthy.outage_fractions.clear();
  healthy.tier.proxy.trace_sink = nullptr;  // Calibration is not user-visible.
  core::StorageTierConfig& storage = healthy.tier.proxy.storage;
  const std::string restore_from =
      storage.enable && storage.restore_on_start ? storage.snapshot_path : "";
  storage.snapshot_path.clear();
  const double healthy_micros = static_cast<double>(
      RunPipeline(trace, healthy, restore_from).virtual_duration_micros);

  ReplayOptions measured = options;
  for (const auto& [start_frac, length_frac] : options.outage_fractions) {
    net::OutageWindow window;
    window.start_micros = static_cast<int64_t>(start_frac * healthy_micros);
    window.end_micros =
        static_cast<int64_t>((start_frac + length_frac) * healthy_micros);
    measured.faults.outages.push_back(window);
  }
  return RunPipeline(trace, measured, /*restore_from=*/"");
}

ReplayResult SkyExperiment::RunPipeline(const Trace& trace,
                                        const ReplayOptions& options,
                                        const std::string& restore_from) {
  util::SimulatedClock clock;
  clock.set_real_time_scale(options.real_time_scale);
  server::OriginWebApp app(&db_, &clock, options_.server_costs);
  Check(app.RegisterForm("/radial", kRadialTemplateSql), "register /radial");
  Check(app.RegisterForm("/rect", kRectTemplateSql), "register /rect");
  net::FaultInjector injector(&app, options.faults, &clock);
  ProxyTier tier(options.tier, &templates_, &injector, options_.wan, &clock);
  for (size_t i = 0; i < tier.num_proxies(); ++i) {
    tier.origin_channel(i).set_retry_policy(options.origin_retry);
    RegisterOriginMetrics(&tier.proxy(i), &app);
    if (!restore_from.empty()) {
      // A missing or unreadable snapshot is a cold start, as at
      // construction.
      (void)tier.proxy(i).RestoreSnapshot(restore_from);
    }
  }
  net::SimulatedChannel lan(&tier, options_.lan, &clock);
  RemoteBrowserEmulator rbe(&lan, &clock, options.rbe);

  ReplayResult result;
  result.rbe = rbe.Run(trace);
  result.virtual_duration_micros = clock.NowMicros();
  result.proxy_stats = tier.AggregateStats();
  result.origin_form_queries = app.form_queries_served();
  result.origin_sql_queries = app.sql_queries_served();
  result.fault_stats = injector.stats();
  net::ChannelRetryStats& retries = result.origin_retry_stats;
  std::vector<obs::PhaseBreakdown>& phases = result.phases;
  for (size_t i = 0; i < tier.num_proxies(); ++i) {
    const core::FunctionProxy& proxy = tier.proxy(i);
    result.per_proxy.push_back(proxy.stats());
    result.cache_entries_final += proxy.cache().num_entries();
    result.cache_bytes_final += proxy.cache().bytes_used();
    result.evictions += proxy.cache().evictions();

    const net::SimulatedChannel& channel = tier.origin_channel(i);
    result.origin_requests += channel.total_requests();
    result.origin_bytes_received += channel.total_bytes_received();
    const net::ChannelRetryStats r = channel.retry_stats();
    retries.attempts += r.attempts;
    retries.retries += r.retries;
    retries.timeouts += r.timeouts;
    retries.deadline_exhausted += r.deadline_exhausted;
    retries.failed_round_trips += r.failed_round_trips;
    retries.backoff_micros_total += r.backoff_micros_total;

    // Tier-wide phase view: sum counts and totals, keep the worst
    // per-proxy percentile (see ReplayResult::phases).
    for (const obs::PhaseBreakdown& phase : obs::PhaseBreakdownFromRegistry(
             proxy.metrics(), "fnproxy_phase_duration_micros")) {
      auto it = std::find_if(
          phases.begin(), phases.end(),
          [&](const obs::PhaseBreakdown& m) { return m.phase == phase.phase; });
      if (it == phases.end()) {
        phases.push_back(phase);
        continue;
      }
      it->count += phase.count;
      it->total_micros += phase.total_micros;
      it->p50_micros = std::max(it->p50_micros, phase.p50_micros);
      it->p95_micros = std::max(it->p95_micros, phase.p95_micros);
      it->p99_micros = std::max(it->p99_micros, phase.p99_micros);
    }
  }
  return result;
}

}  // namespace fnproxy::workload
