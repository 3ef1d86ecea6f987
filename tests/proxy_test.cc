#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/network.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "workload/experiment.h"

namespace fnproxy::core {
namespace {

using geometry::RegionRelation;
using net::HttpRequest;
using net::HttpResponse;
using sql::Table;
using sql::Value;

/// Canonical multiset representation of a result table for comparisons that
/// ignore row order.
std::multiset<std::string> RowSet(const Table& table) {
  std::multiset<std::string> rows;
  for (const auto& row : table.rows()) {
    std::string key;
    for (const Value& v : row) {
      key += v.ToSqlLiteral();
      key += '|';
    }
    rows.insert(std::move(key));
  }
  return rows;
}

HttpRequest RadialRequest(double ra, double dec, double radius) {
  HttpRequest request;
  request.path = "/radial";
  request.query_params["ra"] = std::to_string(ra);
  request.query_params["dec"] = std::to_string(dec);
  request.query_params["radius"] = std::to_string(radius);
  return request;
}

/// Shared origin environment (catalog + database + templates), fresh
/// proxy per test.
class ProxyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 15000;
    config.num_clusters = 6;
    config.seed = 99;
    // Small dense footprint so 10-40 arcmin cones return tens of tuples.
    config.ra_min = 175.0;
    config.ra_max = 205.0;
    config.dec_min = 25.0;
    config.dec_max = 50.0;
    db_ = new server::Database();
    db_->AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(config));
    grid_ = new server::SkyGrid(db_->FindTable("PhotoPrimary"));
    db_->RegisterTableFunction(server::MakeGetNearbyObjEq(grid_));
    db_->scalar_functions()->Register(
        "fPhotoFlags",
        [](const std::vector<Value>& args) -> util::StatusOr<Value> {
          FNPROXY_ASSIGN_OR_RETURN(
              int64_t bit, catalog::PhotoFlagValue(args.at(0).AsString()));
          return Value::Int(bit);
        });
    templates_ = new TemplateRegistry();
    ASSERT_TRUE(templates_
                    ->RegisterFunctionTemplateXml(
                        workload::kNearbyObjEqTemplateXml)
                    .ok());
    auto qt = QueryTemplate::Create("radial", "/radial",
                                    workload::kRadialTemplateSql);
    ASSERT_TRUE(qt.ok());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*qt)).ok());
  }
  static void TearDownTestSuite() {
    delete templates_;
    delete grid_;
    delete db_;
    templates_ = nullptr;
    grid_ = nullptr;
    db_ = nullptr;
  }

  void SetUp() override {
    clock_ = std::make_unique<util::SimulatedClock>();
    app_ = std::make_unique<server::OriginWebApp>(db_, clock_.get());
    ASSERT_TRUE(app_->RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    channel_ = std::make_unique<net::SimulatedChannel>(
        app_.get(), net::LinkConfig{0.0, 1e9}, clock_.get());
  }

  void MakeProxy(CachingMode mode, bool rtree = false, size_t max_bytes = 0) {
    ProxyConfig config;
    config.mode = mode;
    config.use_rtree_description = rtree;
    config.max_cache_bytes = max_bytes;
    proxy_ = std::make_unique<FunctionProxy>(config, templates_,
                                             channel_.get(), clock_.get());
  }

  /// Expected result straight from the origin (separate app so statistics
  /// of the proxy's channel are unaffected).
  Table Direct(const HttpRequest& request) {
    util::SimulatedClock scratch;
    server::OriginWebApp app(db_, &scratch);
    EXPECT_TRUE(app.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    HttpResponse response = app.Handle(request);
    EXPECT_TRUE(response.ok()) << response.body;
    auto table = sql::TableFromXml(response.body);
    EXPECT_TRUE(table.ok());
    return std::move(table).value();
  }

  Table ThroughProxy(const HttpRequest& request) {
    HttpResponse response = proxy_->Handle(request);
    EXPECT_TRUE(response.ok()) << response.body;
    auto table = sql::TableFromXml(response.body);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return std::move(table).value();
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static TemplateRegistry* templates_;

  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<server::OriginWebApp> app_;
  std::unique_ptr<net::SimulatedChannel> channel_;
  std::unique_ptr<FunctionProxy> proxy_;
};

server::Database* ProxyTest::db_ = nullptr;
server::SkyGrid* ProxyTest::grid_ = nullptr;
TemplateRegistry* ProxyTest::templates_ = nullptr;

/// The canonical probe set: base query, exact repeat, contained, zoom-out
/// (contains), overlapping, disjoint.
std::vector<HttpRequest> ProbeSequence() {
  return {
      RadialRequest(180.0, 30.0, 20.0),  // Miss (fills cache).
      RadialRequest(180.0, 30.0, 20.0),  // Exact repeat.
      RadialRequest(180.05, 30.0, 8.0),  // Contained.
      RadialRequest(180.0, 30.0, 35.0),  // Contains the first (zoom out).
      RadialRequest(180.4, 30.0, 20.0),  // Overlaps.
      RadialRequest(200.0, 45.0, 15.0),  // Disjoint.
      RadialRequest(180.0, 30.0, 20.0),  // Exact repeat again.
  };
}

/// Transparency: every scheme returns exactly the origin's answer.
class ProxyTransparencyTest
    : public ProxyTest,
      public ::testing::WithParamInterface<CachingMode> {};

TEST_P(ProxyTransparencyTest, ResultsMatchOriginForAllRelationships) {
  MakeProxy(GetParam());
  for (const HttpRequest& request : ProbeSequence()) {
    Table expected = Direct(request);
    Table actual = ThroughProxy(request);
    EXPECT_EQ(RowSet(actual), RowSet(expected))
        << "mode=" << CachingModeName(GetParam())
        << " url=" << request.ToUrl() << " (expected " << expected.num_rows()
        << " rows, got " << actual.num_rows() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ProxyTransparencyTest,
    ::testing::Values(CachingMode::kNoCache, CachingMode::kPassive,
                      CachingMode::kActiveFull,
                      CachingMode::kActiveRegionContainment,
                      CachingMode::kActiveContainmentOnly),
    [](const ::testing::TestParamInfo<CachingMode>& info) {
      std::string name = CachingModeName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_F(ProxyTest, TransparencyWithRTreeDescription) {
  MakeProxy(CachingMode::kActiveFull, /*rtree=*/true);
  for (const HttpRequest& request : ProbeSequence()) {
    EXPECT_EQ(RowSet(ThroughProxy(request)), RowSet(Direct(request)))
        << request.ToUrl();
  }
}

TEST_F(ProxyTest, ExactHitAvoidsOrigin) {
  MakeProxy(CachingMode::kActiveFull);
  HttpRequest request = RadialRequest(180.0, 30.0, 20.0);
  ThroughProxy(request);
  uint64_t origin_before = channel_->total_requests();
  ThroughProxy(request);
  EXPECT_EQ(channel_->total_requests(), origin_before);
  EXPECT_EQ(proxy_->stats().exact_hits, 1u);
  EXPECT_EQ(proxy_->stats().records.back().status, RegionRelation::kEqual);
  EXPECT_EQ(proxy_->stats().records.back().CacheEfficiency(), 1.0);
}

TEST_F(ProxyTest, ContainedQueryAnsweredLocally) {
  MakeProxy(CachingMode::kActiveFull);
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  uint64_t origin_before = channel_->total_requests();
  Table result = ThroughProxy(RadialRequest(180.05, 30.0, 8.0));
  EXPECT_EQ(channel_->total_requests(), origin_before);
  EXPECT_EQ(proxy_->stats().containment_hits, 1u);
  // The contained result is not cached again (paper §3.2 case b).
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
}

TEST_F(ProxyTest, RegionContainmentCoalescesCache) {
  MakeProxy(CachingMode::kActiveRegionContainment);
  ThroughProxy(RadialRequest(180.0, 30.0, 10.0));
  ThroughProxy(RadialRequest(180.3, 30.0, 10.0));
  EXPECT_EQ(proxy_->cache().num_entries(), 2u);
  uint64_t sql_before = proxy_->stats().origin_sql_requests;
  // Zoom out over both cached cones.
  ThroughProxy(RadialRequest(180.15, 30.0, 40.0));
  EXPECT_EQ(proxy_->stats().origin_sql_requests, sql_before + 1);
  EXPECT_EQ(proxy_->stats().region_containments, 1u);
  // Subsumed entries removed, merged entry cached.
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
  // The merged entry now serves exact repeats of the big query.
  uint64_t origin_before = channel_->total_requests();
  ThroughProxy(RadialRequest(180.15, 30.0, 40.0));
  EXPECT_EQ(channel_->total_requests(), origin_before);
}

TEST_F(ProxyTest, OverlapHandledOnlyInFullMode) {
  // Full semantic caching ships a remainder query for partial overlap.
  MakeProxy(CachingMode::kActiveFull);
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  ThroughProxy(RadialRequest(180.4, 30.0, 20.0));
  EXPECT_EQ(proxy_->stats().overlaps_handled, 1u);
  EXPECT_EQ(proxy_->stats().origin_sql_requests, 1u);
  EXPECT_GT(proxy_->stats().records.back().tuples_from_cache, 0u);

  // The region-containment variant does not.
  SetUp();
  MakeProxy(CachingMode::kActiveRegionContainment);
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  ThroughProxy(RadialRequest(180.4, 30.0, 20.0));
  EXPECT_EQ(proxy_->stats().overlaps_handled, 0u);
  EXPECT_EQ(proxy_->stats().origin_sql_requests, 0u);
  EXPECT_EQ(proxy_->stats().misses, 2u);
}

TEST_F(ProxyTest, ContainmentOnlyModeSkipsRegionContainment) {
  MakeProxy(CachingMode::kActiveContainmentOnly);
  ThroughProxy(RadialRequest(180.0, 30.0, 10.0));
  ThroughProxy(RadialRequest(180.0, 30.0, 35.0));  // Contains the cached one.
  EXPECT_EQ(proxy_->stats().region_containments, 0u);
  EXPECT_EQ(proxy_->stats().origin_sql_requests, 0u);
  // Both results cached; the subsumed one is not evicted.
  EXPECT_EQ(proxy_->cache().num_entries(), 2u);
  // But plain containment still works.
  uint64_t origin_before = channel_->total_requests();
  ThroughProxy(RadialRequest(180.0, 30.0, 8.0));
  EXPECT_EQ(channel_->total_requests(), origin_before);
  EXPECT_EQ(proxy_->stats().containment_hits, 1u);
}

TEST_F(ProxyTest, PassiveCacheExactUrlOnly) {
  MakeProxy(CachingMode::kPassive);
  // The passive entries live in the one cache, visible to its reporting.
  auto stats_entries = [&] {
    HttpRequest stats;
    stats.path = "/proxy/stats";
    const std::string body = proxy_->Handle(stats).body;
    const size_t at = body.find("<Cache entries=\"");
    EXPECT_NE(at, std::string::npos) << body;
    return std::stoul(body.substr(at + 16));
  };
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
  EXPECT_EQ(stats_entries(), 1u);
  uint64_t origin_before = channel_->total_requests();
  // Exact repeat: hit.
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  EXPECT_EQ(channel_->total_requests(), origin_before);
  EXPECT_EQ(proxy_->stats().exact_hits, 1u);
  EXPECT_EQ(proxy_->stats().records.back().status, RegionRelation::kEqual);
  // Contained query: passive caching cannot use it.
  ThroughProxy(RadialRequest(180.05, 30.0, 8.0));
  EXPECT_EQ(channel_->total_requests(), origin_before + 1);
  EXPECT_EQ(proxy_->cache().num_entries(), 2u);
  EXPECT_EQ(stats_entries(), 2u);
  // The region of the first request under different parameter text: a URL
  // cache has never seen this URL, so it is a miss that reaches the origin.
  HttpRequest same_region;
  same_region.path = "/radial";
  same_region.query_params = {{"ra", "180"}, {"dec", "30"}, {"radius", "20"}};
  EXPECT_EQ(RowSet(ThroughProxy(same_region)), RowSet(Direct(same_region)));
  EXPECT_EQ(channel_->total_requests(), origin_before + 2);
  EXPECT_EQ(proxy_->stats().exact_hits, 1u);
  EXPECT_EQ(proxy_->stats().misses, 3u);
  // Parameter text that merely concatenates like another URL's is still
  // another URL.
  HttpRequest joined = RadialRequest(180.0, 30.0, 20.0);
  joined.query_params["x"] = "1;y=2";
  HttpRequest split = RadialRequest(180.0, 30.0, 20.0);
  split.query_params["x"] = "1";
  split.query_params["y"] = "2";
  ThroughProxy(joined);
  ThroughProxy(split);
  EXPECT_EQ(channel_->total_requests(), origin_before + 4);
  EXPECT_EQ(proxy_->stats().exact_hits, 1u);
}

TEST_F(ProxyTest, NoCacheModeAlwaysForwards) {
  MakeProxy(CachingMode::kNoCache);
  HttpRequest request = RadialRequest(180.0, 30.0, 20.0);
  ThroughProxy(request);
  ThroughProxy(request);
  EXPECT_EQ(channel_->total_requests(), 2u);
  EXPECT_EQ(proxy_->stats().records.back().CacheEfficiency(), 0.0);
}

TEST_F(ProxyTest, NonTemplatePathTunneled) {
  MakeProxy(CachingMode::kActiveFull);
  HttpRequest request;
  request.path = "/sql";
  request.query_params["q"] =
      "SELECT objID FROM fGetNearbyObjEq(180.0, 30.0, 5.0)";
  HttpResponse response = proxy_->Handle(request);
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(channel_->total_requests(), 1u);
  EXPECT_FALSE(proxy_->stats().records.back().handled_by_template);
}

TEST_F(ProxyTest, SqlFacilityDisabledFallsBackToOriginalQuery) {
  app_->set_sql_endpoint_enabled(false);
  MakeProxy(CachingMode::kActiveFull);
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  HttpRequest overlapping = RadialRequest(180.4, 30.0, 20.0);
  Table expected = Direct(overlapping);
  Table actual = ThroughProxy(overlapping);
  EXPECT_EQ(RowSet(actual), RowSet(expected));
  EXPECT_EQ(proxy_->stats().overlaps_handled, 0u);
}

TEST_F(ProxyTest, CacheByteLimitRespected) {
  MakeProxy(CachingMode::kActiveFull, false, 64 * 1024);
  for (int i = 0; i < 8; ++i) {
    ThroughProxy(RadialRequest(170.0 + i * 3.0, 30.0, 20.0));
    EXPECT_LE(proxy_->cache().bytes_used(), 64u * 1024u);
  }
}

TEST_F(ProxyTest, CacheEfficiencyAccountsPartialAnswers) {
  MakeProxy(CachingMode::kActiveFull);
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  ThroughProxy(RadialRequest(180.4, 30.0, 20.0));  // Overlap.
  const QueryRecord record = proxy_->stats().records.back();
  ASSERT_GT(record.tuples_total, 0u);
  EXPECT_GT(record.tuples_from_cache, 0u);
  EXPECT_LT(record.tuples_from_cache, record.tuples_total);
  double eff = record.CacheEfficiency();
  EXPECT_GT(eff, 0.0);
  EXPECT_LT(eff, 1.0);
}

TEST_F(ProxyTest, StatsAverageCacheEfficiency) {
  MakeProxy(CachingMode::kActiveFull);
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));  // Miss -> 0.
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));  // Exact -> 1.
  double avg = proxy_->stats().AverageCacheEfficiency();
  EXPECT_NEAR(avg, 0.5, 1e-9);
}

TEST_F(ProxyTest, VirtualClockAdvancesMoreOnMissThanHit) {
  MakeProxy(CachingMode::kActiveFull);
  int64_t t0 = clock_->NowMicros();
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  int64_t miss_cost = clock_->NowMicros() - t0;
  t0 = clock_->NowMicros();
  ThroughProxy(RadialRequest(180.0, 30.0, 20.0));
  int64_t hit_cost = clock_->NowMicros() - t0;
  EXPECT_LT(hit_cost, miss_cost / 2);
}

}  // namespace
}  // namespace fnproxy::core
