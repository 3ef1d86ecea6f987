#include "workload/experiment.h"

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
  sql::Table photo = catalog::GenerateSkyCatalog(options_.catalog, &clusters);
  db_.AddTable("PhotoPrimary", std::move(photo));
  const sql::Table* stored = db_.FindTable("PhotoPrimary");
  grid_ = std::make_unique<server::SkyGrid>(stored);
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
  // trace footprint).
  RadialTraceConfig trace_config = options_.trace;
  for (const auto& [ra, dec] : clusters) {
    if (ra >= trace_config.ra_min && ra <= trace_config.ra_max &&
        dec >= trace_config.dec_min && dec <= trace_config.dec_max) {
      trace_config.hotspot_centers.emplace_back(ra, dec);
    }
  }
  trace_ = GenerateRadialTrace(trace_config);
}

size_t SkyExperiment::TotalDistinctResultBytes() {
  if (total_bytes_computed_) return total_distinct_bytes_;
  util::SimulatedClock scratch_clock;
  server::OriginWebApp app(&db_, &scratch_clock, options_.server_costs);
  Check(app.RegisterForm("/radial", kRadialTemplateSql), "register /radial");
  std::set<std::string> seen;
  size_t total = 0;
  for (const TraceQuery& query : trace_.queries) {
    std::string key = net::BuildQueryString(query.params);
    if (!seen.insert(key).second) continue;
    net::HttpResponse response = app.Handle(MakeRequest(trace_, query));
    if (response.ok()) total += response.body.size();
  }
  total_distinct_bytes_ = total;
  total_bytes_computed_ = true;
  return total;
}

SkyExperiment::RunResult SkyExperiment::Run(
    const core::ProxyConfig& proxy_config) {
  return RunTrace(trace_, proxy_config);
}

SkyExperiment::RunResult SkyExperiment::RunTrace(
    const Trace& trace, const core::ProxyConfig& proxy_config) {
  util::SimulatedClock clock;
  server::OriginWebApp app(&db_, &clock, options_.server_costs);
  Check(app.RegisterForm("/radial", kRadialTemplateSql), "register /radial");
  Check(app.RegisterForm("/rect", kRectTemplateSql), "register /rect");
  net::SimulatedChannel wan_channel(&app, options_.wan, &clock);
  core::FunctionProxy proxy(proxy_config, &templates_, &wan_channel, &clock);
  RegisterOriginMetrics(&proxy, &app);
  net::SimulatedChannel lan_channel(&proxy, options_.lan, &clock);
  RemoteBrowserEmulator rbe(&lan_channel, &clock);

  RunResult result;
  result.rbe = rbe.Run(trace);
  result.proxy_stats = proxy.stats();
  result.origin_requests = wan_channel.total_requests();
  result.origin_bytes_received = wan_channel.total_bytes_received();
  result.cache_entries_final = proxy.cache().num_entries();
  result.cache_bytes_final = proxy.cache().bytes_used();
  result.evictions = proxy.cache().evictions();
  result.phases = obs::PhaseBreakdownFromRegistry(
      proxy.metrics(), "fnproxy_phase_duration_micros");
  return result;
}

SkyExperiment::ConcurrentRunOutput SkyExperiment::RunTraceConcurrent(
    const Trace& trace, const core::ProxyConfig& proxy_config,
    size_t num_threads, double real_time_scale) {
  util::SimulatedClock clock;
  clock.set_real_time_scale(real_time_scale);
  server::OriginWebApp app(&db_, &clock, options_.server_costs);
  Check(app.RegisterForm("/radial", kRadialTemplateSql), "register /radial");
  Check(app.RegisterForm("/rect", kRectTemplateSql), "register /rect");
  net::SimulatedChannel wan_channel(&app, options_.wan, &clock);
  core::FunctionProxy proxy(proxy_config, &templates_, &wan_channel, &clock);
  RegisterOriginMetrics(&proxy, &app);
  net::SimulatedChannel lan_channel(&proxy, options_.lan, &clock);
  ConcurrentDriver driver(&lan_channel, &clock);
  driver.set_latency_histogram(proxy.metrics().AddHistogram(
      "fnproxy_client_latency_micros",
      "Client-observed wall-clock latency per request"));

  ConcurrentRunOutput result;
  result.driver = driver.Replay(trace, num_threads);
  result.proxy_stats = proxy.stats();
  result.origin_requests = wan_channel.total_requests();
  result.origin_bytes_received = wan_channel.total_bytes_received();
  result.cache_entries_final = proxy.cache().num_entries();
  result.cache_bytes_final = proxy.cache().bytes_used();
  result.phases = obs::PhaseBreakdownFromRegistry(
      proxy.metrics(), "fnproxy_phase_duration_micros");
  return result;
}

}  // namespace fnproxy::workload
