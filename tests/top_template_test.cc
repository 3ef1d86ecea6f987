// End-to-end behaviour of templates with a TOP clause (paper Fig. 2 shows
// the optional top-N). A TOP-cut result may be missing in-region tuples, so
// the proxy marks such entries truncated: they may serve exact repeats but
// never containment or region-containment reasoning — correctness over
// cleverness.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/network.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "workload/experiment.h"

namespace fnproxy {
namespace {

constexpr char kTopRadialSql[] =
    "SELECT TOP 10 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, n.distance "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID "
    "ORDER BY n.distance";

// Same TOP shape but with no function-computed values in the projection or
// order: cache reuse beyond exact matches is sound for complete entries.
constexpr char kTopMagnitudeSql[] =
    "SELECT TOP 10 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.r "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID "
    "ORDER BY p.r";

class TopTemplateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 20000;
    config.num_clusters = 4;
    config.seed = 777;
    config.ra_min = 178.0;
    config.ra_max = 192.0;
    config.dec_min = 28.0;
    config.dec_max = 40.0;
    db_ = new server::Database();
    db_->AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(config));
    grid_ = new server::SkyGrid(db_->FindTable("PhotoPrimary"));
    db_->RegisterTableFunction(server::MakeGetNearbyObjEq(grid_));
    templates_ = new core::TemplateRegistry();
    ASSERT_TRUE(templates_
                    ->RegisterFunctionTemplateXml(
                        workload::kNearbyObjEqTemplateXml)
                    .ok());
    auto qt =
        core::QueryTemplate::Create("top_radial", "/top_radial", kTopRadialSql);
    ASSERT_TRUE(qt.ok()) << qt.status().ToString();
    EXPECT_TRUE(qt->has_top());
    // Projects and orders by n.distance: function-dependent.
    EXPECT_TRUE(qt->function_dependent_projection());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*qt)).ok());

    auto mag = core::QueryTemplate::Create("top_magnitude", "/top_magnitude",
                                           kTopMagnitudeSql);
    ASSERT_TRUE(mag.ok()) << mag.status().ToString();
    EXPECT_FALSE(mag->function_dependent_projection());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*mag)).ok());
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
    ASSERT_TRUE(app_->RegisterForm("/top_radial", kTopRadialSql).ok());
    ASSERT_TRUE(app_->RegisterForm("/top_magnitude", kTopMagnitudeSql).ok());
    channel_ = std::make_unique<net::SimulatedChannel>(
        app_.get(), net::LinkConfig{0.0, 1e9}, clock_.get());
    core::ProxyConfig config;  // Full semantic caching.
    proxy_ = std::make_unique<core::FunctionProxy>(config, templates_,
                                                   channel_.get(), clock_.get());
  }

  static net::HttpRequest Request(double ra, double dec, double radius,
                                  const char* path = "/top_radial") {
    net::HttpRequest request;
    request.path = path;
    request.query_params["ra"] = std::to_string(ra);
    request.query_params["dec"] = std::to_string(dec);
    request.query_params["radius"] = std::to_string(radius);
    return request;
  }

  sql::Table Ask(const net::HttpRequest& request) {
    net::HttpResponse response = proxy_->Handle(request);
    EXPECT_TRUE(response.ok()) << response.body;
    auto table = sql::TableFromXml(response.body);
    EXPECT_TRUE(table.ok());
    return std::move(table).value();
  }

  sql::Table Direct(const net::HttpRequest& request) {
    util::SimulatedClock scratch;
    server::OriginWebApp app(db_, &scratch);
    EXPECT_TRUE(app.RegisterForm("/top_radial", kTopRadialSql).ok());
    EXPECT_TRUE(app.RegisterForm("/top_magnitude", kTopMagnitudeSql).ok());
    net::HttpResponse response = app.Handle(request);
    EXPECT_TRUE(response.ok());
    auto table = sql::TableFromXml(response.body);
    EXPECT_TRUE(table.ok());
    return std::move(table).value();
  }

  static std::multiset<int64_t> Ids(const sql::Table& table) {
    std::multiset<int64_t> ids;
    for (const auto& row : table.rows()) ids.insert(row[0].AsInt());
    return ids;
  }

  static std::vector<int64_t> OrderedIds(const sql::Table& table) {
    std::vector<int64_t> ids;
    for (const auto& row : table.rows()) ids.push_back(row[0].AsInt());
    return ids;
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static core::TemplateRegistry* templates_;

  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<server::OriginWebApp> app_;
  std::unique_ptr<net::SimulatedChannel> channel_;
  std::unique_ptr<core::FunctionProxy> proxy_;
};

server::Database* TopTemplateTest::db_ = nullptr;
server::SkyGrid* TopTemplateTest::grid_ = nullptr;
core::TemplateRegistry* TopTemplateTest::templates_ = nullptr;

TEST_F(TopTemplateTest, TopCutResultsAreOrderedAndCapped) {
  // A wide cone certainly has more than 10 objects.
  sql::Table table = Ask(Request(185.0, 34.0, 40.0));
  ASSERT_EQ(table.num_rows(), 10u);
  size_t dist_col = *table.schema().FindColumn("distance");
  for (size_t i = 1; i < table.num_rows(); ++i) {
    EXPECT_LE(table.row(i - 1)[dist_col].AsDouble(),
              table.row(i)[dist_col].AsDouble());
  }
}

TEST_F(TopTemplateTest, ExactRepeatOfTruncatedEntryIsServed) {
  net::HttpRequest request = Request(185.0, 34.0, 40.0);
  sql::Table first = Ask(request);
  uint64_t before = channel_->total_requests();
  sql::Table second = Ask(request);
  EXPECT_EQ(channel_->total_requests(), before);
  EXPECT_EQ(Ids(first), Ids(second));
  EXPECT_EQ(proxy_->stats().exact_hits, 1u);
}

TEST_F(TopTemplateTest, ContainedQueryNeverUsesTruncatedEntry) {
  Ask(Request(185.0, 34.0, 40.0));  // Truncated (10 of many).
  uint64_t before = channel_->total_requests();
  net::HttpRequest contained = Request(185.0, 34.0, 15.0);
  sql::Table via_proxy = Ask(contained);
  // Correctness requires going back to the origin: the truncated cache
  // entry may be missing this cone's nearest objects.
  EXPECT_GT(channel_->total_requests(), before);
  EXPECT_EQ(Ids(via_proxy), Ids(Direct(contained)));
  EXPECT_EQ(proxy_->stats().containment_hits, 0u);
}

TEST_F(TopTemplateTest, FunctionDependentProjectionRestrictedToExactMatch) {
  // The distance column's values depend on the query center: a contained
  // query with a *different* center would read stale distances from the
  // cached entry. The proxy must go back to the origin — and the answer
  // (including the distance values) must match a direct execution.
  net::HttpRequest small = Request(185.0, 34.0, 2.5);
  sql::Table small_result = Ask(small);
  ASSERT_LT(small_result.num_rows(), 10u);  // Complete (non-truncated) entry.
  uint64_t before = channel_->total_requests();
  net::HttpRequest shifted = Request(185.01, 34.0, 1.5);  // Inside, new center.
  sql::Table via_proxy = Ask(shifted);
  EXPECT_GT(channel_->total_requests(), before);
  EXPECT_EQ(proxy_->stats().containment_hits, 0u);
  sql::Table direct = Direct(shifted);
  ASSERT_EQ(via_proxy.num_rows(), direct.num_rows());
  // Compare full rows, not just ids: distances must be to the new center.
  size_t dist_col = *via_proxy.schema().FindColumn("distance");
  for (size_t i = 0; i < via_proxy.num_rows(); ++i) {
    EXPECT_TRUE(
        via_proxy.row(i)[dist_col].EqualsValue(direct.row(i)[dist_col]));
  }
}

TEST_F(TopTemplateTest, CleanTopTemplateServesContainmentWhenComplete) {
  // The magnitude-ordered template has no function-computed projection, so
  // a complete (below-TOP) entry may answer contained queries locally.
  net::HttpRequest small = Request(185.0, 34.0, 2.5, "/top_magnitude");
  sql::Table small_result = Ask(small);
  ASSERT_LT(small_result.num_rows(), 10u);
  uint64_t before = channel_->total_requests();
  net::HttpRequest inner = Request(185.0, 34.0, 1.0, "/top_magnitude");
  sql::Table via_proxy = Ask(inner);
  EXPECT_EQ(channel_->total_requests(), before);
  EXPECT_EQ(proxy_->stats().containment_hits, 1u);
  EXPECT_EQ(Ids(via_proxy), Ids(Direct(inner)));
}

TEST_F(TopTemplateTest, CleanTopTemplateTruncatedEntryBlocksContainment) {
  net::HttpRequest wide = Request(185.0, 34.0, 40.0, "/top_magnitude");
  sql::Table wide_result = Ask(wide);
  ASSERT_EQ(wide_result.num_rows(), 10u);  // Hit the TOP cutoff.
  uint64_t before = channel_->total_requests();
  net::HttpRequest inner = Request(185.0, 34.0, 15.0, "/top_magnitude");
  sql::Table via_proxy = Ask(inner);
  EXPECT_GT(channel_->total_requests(), before);
  EXPECT_EQ(Ids(via_proxy), Ids(Direct(inner)));
}

TEST_F(TopTemplateTest, ExactRepeatOfCompleteEntryIsOrderedAndCapped) {
  // The remainder drops TOP and ORDER BY, so region containment caches the
  // wide cone's answer complete; its exact repeat must still be cut to the
  // top 10 in ORDER BY order, as the origin answers it.
  Ask(Request(185.0, 34.0, 2.5, "/top_magnitude"));
  net::HttpRequest wide = Request(185.0, 34.0, 40.0, "/top_magnitude");
  const std::vector<int64_t> direct = OrderedIds(Direct(wide));
  ASSERT_EQ(direct.size(), 10u);
  EXPECT_EQ(OrderedIds(Ask(wide)), direct);
  uint64_t before = channel_->total_requests();
  EXPECT_EQ(OrderedIds(Ask(wide)), direct);
  EXPECT_EQ(channel_->total_requests(), before);
  EXPECT_EQ(proxy_->stats().region_containments, 1u);
  EXPECT_EQ(proxy_->stats().exact_hits, 1u);
}

TEST_F(TopTemplateTest, TransparencyAcrossSequence) {
  for (const auto& request :
       {Request(185.0, 34.0, 40.0), Request(185.0, 34.0, 40.0),
        Request(185.0, 34.0, 15.0), Request(185.2, 34.0, 40.0),
        Request(188.0, 36.0, 3.0), Request(188.0, 36.0, 1.5)}) {
    EXPECT_EQ(Ids(Ask(request)), Ids(Direct(request))) << request.ToUrl();
  }
}

}  // namespace
}  // namespace fnproxy
