// The system's central correctness property (paper §3.2): whatever the
// caching scheme, cache size, or description structure, the proxy must
// return exactly the tuples the origin site would return — active caching is
// an optimization, never an approximation.
//
// These tests replay generated traces (with the full exact/containment/
// region-containment/overlap mix) through a proxy pipeline and compare every
// response against a direct origin execution.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/network.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "workload/experiment.h"
#include "workload/rbe.h"
#include "workload/trace_generator.h"

namespace fnproxy {
namespace {

using core::CachingMode;

std::multiset<std::string> RowSet(const sql::Table& table) {
  std::multiset<std::string> rows;
  for (const auto& row : table.rows()) {
    std::string key;
    for (const sql::Value& v : row) {
      key += v.ToSqlLiteral();
      key += '|';
    }
    rows.insert(std::move(key));
  }
  return rows;
}

struct TransparencyParam {
  CachingMode mode;
  bool rtree;
  size_t max_cache_bytes;  // 0 = unlimited.
  bool origin_sql_enabled;
};

class TransparencyTest : public ::testing::TestWithParam<TransparencyParam> {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 25000;
    config.num_clusters = 8;
    config.seed = 2024;
    config.ra_min = 170.0;
    config.ra_max = 210.0;
    config.dec_min = 20.0;
    config.dec_max = 50.0;
    std::vector<std::pair<double, double>> clusters;
    db_ = new server::Database();
    db_->AddTable("PhotoPrimary",
                  catalog::GenerateSkyCatalog(config, &clusters));
    grid_ = new server::SkyGrid(db_->FindTable("PhotoPrimary"));
    db_->RegisterTableFunction(server::MakeGetNearbyObjEq(grid_));
    db_->scalar_functions()->Register(
        "fPhotoFlags",
        [](const std::vector<sql::Value>& args)
            -> util::StatusOr<sql::Value> {
          FNPROXY_ASSIGN_OR_RETURN(
              int64_t bit, catalog::PhotoFlagValue(args.at(0).AsString()));
          return sql::Value::Int(bit);
        });

    templates_ = new core::TemplateRegistry();
    ASSERT_TRUE(
        templates_
            ->RegisterFunctionTemplateXml(workload::kNearbyObjEqTemplateXml)
            .ok());
    auto qt = core::QueryTemplate::Create("radial", "/radial",
                                          workload::kRadialTemplateSql);
    ASSERT_TRUE(qt.ok());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*qt)).ok());

    workload::RadialTraceConfig trace_config;
    trace_config.num_queries = 220;
    trace_config.seed = 31337;
    trace_config.ra_min = 172.0;
    trace_config.ra_max = 208.0;
    trace_config.dec_min = 22.0;
    trace_config.dec_max = 48.0;
    for (const auto& c : clusters) trace_config.hotspot_centers.push_back(c);
    trace_ = new workload::Trace(workload::GenerateRadialTrace(trace_config));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete templates_;
    delete grid_;
    delete db_;
    trace_ = nullptr;
    templates_ = nullptr;
    grid_ = nullptr;
    db_ = nullptr;
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static core::TemplateRegistry* templates_;
  static workload::Trace* trace_;
};

server::Database* TransparencyTest::db_ = nullptr;
server::SkyGrid* TransparencyTest::grid_ = nullptr;
core::TemplateRegistry* TransparencyTest::templates_ = nullptr;
workload::Trace* TransparencyTest::trace_ = nullptr;

TEST_P(TransparencyTest, ProxyResultsEqualOriginResults) {
  const TransparencyParam& param = GetParam();

  util::SimulatedClock clock;
  server::OriginWebApp origin(db_, &clock);
  ASSERT_TRUE(origin.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
  origin.set_sql_endpoint_enabled(param.origin_sql_enabled);
  net::SimulatedChannel wan(&origin, net::LinkConfig{0.0, 1e9}, &clock);

  core::ProxyConfig config;
  config.mode = param.mode;
  config.use_rtree_description = param.rtree;
  config.max_cache_bytes = param.max_cache_bytes;
  core::FunctionProxy proxy(config, templates_, &wan, &clock);

  // The reference origin runs on its own clock so statistics don't mix.
  util::SimulatedClock reference_clock;
  server::OriginWebApp reference(db_, &reference_clock);
  ASSERT_TRUE(
      reference.RegisterForm("/radial", workload::kRadialTemplateSql).ok());

  size_t nonempty = 0;
  for (size_t i = 0; i < trace_->queries.size(); ++i) {
    net::HttpRequest request = MakeRequest(*trace_, trace_->queries[i]);
    net::HttpResponse via_proxy = proxy.Handle(request);
    net::HttpResponse direct = reference.Handle(request);
    ASSERT_TRUE(via_proxy.ok()) << "query " << i << ": " << via_proxy.body;
    ASSERT_TRUE(direct.ok());
    auto proxy_table = sql::TableFromXml(via_proxy.body);
    auto direct_table = sql::TableFromXml(direct.body);
    ASSERT_TRUE(proxy_table.ok());
    ASSERT_TRUE(direct_table.ok());
    if (direct_table->num_rows() > 0) ++nonempty;
    ASSERT_EQ(RowSet(*proxy_table), RowSet(*direct_table))
        << "divergence at query " << i << " (" << request.ToUrl() << "), "
        << "status "
        << geometry::RegionRelationName(proxy.stats().records.back().status);
  }
  // The trace must actually exercise data-carrying queries.
  EXPECT_GT(nonempty, trace_->queries.size() / 2);

  // And the cache must have been genuinely active for caching modes.
  if (param.mode != CachingMode::kNoCache &&
      param.mode != CachingMode::kPassive) {
    EXPECT_GT(proxy.stats().exact_hits + proxy.stats().containment_hits, 20u);
  }
  // Every budgeted run must have answered while the cache evicted.
  if (param.max_cache_bytes != 0) {
    EXPECT_GT(proxy.cache().evictions(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, TransparencyTest,
    ::testing::Values(
        TransparencyParam{CachingMode::kNoCache, false, 0, true},
        TransparencyParam{CachingMode::kPassive, false, 0, true},
        TransparencyParam{CachingMode::kPassive, false, 256 * 1024, true},
        TransparencyParam{CachingMode::kActiveContainmentOnly, false, 0, true},
        TransparencyParam{CachingMode::kActiveRegionContainment, false, 0, true},
        TransparencyParam{CachingMode::kActiveFull, false, 0, true},
        TransparencyParam{CachingMode::kActiveFull, true, 0, true},
        TransparencyParam{CachingMode::kActiveRegionContainment, true, 0, true},
        // About a sixth of the unlimited AC_full run's final 236 KB, so the
        // active run answers while it evicts.
        TransparencyParam{CachingMode::kActiveFull, false, 40 * 1024, true},
        TransparencyParam{CachingMode::kActiveFull, false, 0, false},
        TransparencyParam{CachingMode::kActiveRegionContainment, false, 0,
                          false}),
    [](const ::testing::TestParamInfo<TransparencyParam>& info) {
      std::string name = core::CachingModeName(info.param.mode);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      if (info.param.rtree) name += "_rtree";
      if (info.param.max_cache_bytes != 0) name += "_limited";
      if (!info.param.origin_sql_enabled) name += "_nosql";
      return name;
    });

}  // namespace
}  // namespace fnproxy
