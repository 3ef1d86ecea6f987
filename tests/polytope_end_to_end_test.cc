// End-to-end exercise of polytope-shaped function templates (the paper's
// "more complex" region class, §3.1): a triangle-search TVF at the origin,
// a polytope function template whose halfspaces are *computed from the
// form parameters* by template expressions, and the full proxy pipeline
// answering containment/region-containment cases over triangles.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/network.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"

namespace fnproxy {
namespace {

using core::CachingMode;
using sql::Value;

// Halfspace for CCW edge (i -> j):
//   (dec_j - dec_i) * ra - (ra_j - ra_i) * dec
//     <= (dec_j - dec_i) * ra_i - (ra_j - ra_i) * dec_i
constexpr char kTriangleTemplateXml[] = R"(<FunctionTemplate>
  <Name>fGetObjInTriangle</Name>
  <Params><P>$ra1</P><P>$dec1</P><P>$ra2</P><P>$dec2</P><P>$ra3</P><P>$dec3</P></Params>
  <Shape>polytope</Shape>
  <NumDimensions>2</NumDimensions>
  <Halfspaces>
    <H><Normal><C>$dec2 - $dec1</C><C>0 - ($ra2 - $ra1)</C></Normal>
       <Offset>($dec2 - $dec1) * $ra1 - ($ra2 - $ra1) * $dec1</Offset></H>
    <H><Normal><C>$dec3 - $dec2</C><C>0 - ($ra3 - $ra2)</C></Normal>
       <Offset>($dec3 - $dec2) * $ra2 - ($ra3 - $ra2) * $dec2</Offset></H>
    <H><Normal><C>$dec1 - $dec3</C><C>0 - ($ra1 - $ra3)</C></Normal>
       <Offset>($dec1 - $dec3) * $ra3 - ($ra1 - $ra3) * $dec3</Offset></H>
  </Halfspaces>
  <Vertices>
    <V><C>$ra1</C><C>$dec1</C></V>
    <V><C>$ra2</C><C>$dec2</C></V>
    <V><C>$ra3</C><C>$dec3</C></V>
  </Vertices>
  <CoordinateColumns><C>ra</C><C>dec</C></CoordinateColumns>
</FunctionTemplate>)";

constexpr char kTriangleSql[] =
    "SELECT p.objID, p.ra, p.dec "
    "FROM fGetObjInTriangle($ra1, $dec1, $ra2, $dec2, $ra3, $dec3) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID";

class PolytopeEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 20000;
    config.num_clusters = 5;
    config.seed = 4242;
    config.ra_min = 175.0;
    config.ra_max = 195.0;
    config.dec_min = 25.0;
    config.dec_max = 45.0;
    db_ = new server::Database();
    db_->AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(config));
    grid_ = new server::SkyGrid(db_->FindTable("PhotoPrimary"));
    db_->RegisterTableFunction(server::MakeGetObjInTriangle(grid_));

    templates_ = new core::TemplateRegistry();
    ASSERT_TRUE(
        templates_->RegisterFunctionTemplateXml(kTriangleTemplateXml).ok());
    auto qt = core::QueryTemplate::Create("triangle", "/triangle", kTriangleSql);
    ASSERT_TRUE(qt.ok()) << qt.status().ToString();
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
    ASSERT_TRUE(app_->RegisterForm("/triangle", kTriangleSql).ok());
    channel_ = std::make_unique<net::SimulatedChannel>(
        app_.get(), net::LinkConfig{0.0, 1e9}, clock_.get());
    core::ProxyConfig config;
    config.mode = CachingMode::kActiveFull;
    proxy_ = std::make_unique<core::FunctionProxy>(config, templates_,
                                                   channel_.get(), clock_.get());
  }

  static net::HttpRequest TriangleRequest(double ra1, double dec1, double ra2,
                                          double dec2, double ra3,
                                          double dec3) {
    net::HttpRequest request;
    request.path = "/triangle";
    request.query_params["ra1"] = std::to_string(ra1);
    request.query_params["dec1"] = std::to_string(dec1);
    request.query_params["ra2"] = std::to_string(ra2);
    request.query_params["dec2"] = std::to_string(dec2);
    request.query_params["ra3"] = std::to_string(ra3);
    request.query_params["dec3"] = std::to_string(dec3);
    return request;
  }

  std::multiset<int64_t> Ask(const net::HttpRequest& request) {
    net::HttpResponse response = proxy_->Handle(request);
    EXPECT_TRUE(response.ok()) << response.body;
    auto table = sql::TableFromXml(response.body);
    EXPECT_TRUE(table.ok());
    std::multiset<int64_t> ids;
    for (const auto& row : table->rows()) ids.insert(row[0].AsInt());
    return ids;
  }

  std::multiset<int64_t> Direct(const net::HttpRequest& request) {
    util::SimulatedClock scratch;
    server::OriginWebApp app(db_, &scratch);
    EXPECT_TRUE(app.RegisterForm("/triangle", kTriangleSql).ok());
    net::HttpResponse response = app.Handle(request);
    EXPECT_TRUE(response.ok()) << response.body;
    auto table = sql::TableFromXml(response.body);
    EXPECT_TRUE(table.ok());
    std::multiset<int64_t> ids;
    for (const auto& row : table->rows()) ids.insert(row[0].AsInt());
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

server::Database* PolytopeEndToEndTest::db_ = nullptr;
server::SkyGrid* PolytopeEndToEndTest::grid_ = nullptr;
core::TemplateRegistry* PolytopeEndToEndTest::templates_ = nullptr;

TEST_F(PolytopeEndToEndTest, TvfMatchesBruteForce) {
  const server::TableValuedFunction* fn =
      db_->FindTableFunction("fGetObjInTriangle");
  ASSERT_NE(fn, nullptr);
  // CCW triangle (180,30) (186,30) (183,36).
  auto result = fn->Execute({Value::Double(180), Value::Double(30),
                             Value::Double(186), Value::Double(30),
                             Value::Double(183), Value::Double(36)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const sql::Table cat = db_->FindTable("PhotoPrimary")->ToTable();
  size_t ra_col = *cat.schema().FindColumn("ra");
  size_t dec_col = *cat.schema().FindColumn("dec");
  size_t id_col = *cat.schema().FindColumn("objID");
  std::set<int64_t> expected;
  for (const auto& row : cat.rows()) {
    double x = row[ra_col].AsDouble(), y = row[dec_col].AsDouble();
    // Inside the CCW triangle: all three cross products nonnegative.
    double c1 = (186 - 180) * (y - 30) - (30 - 30) * (x - 180);
    double c2 = (183 - 186) * (y - 30) - (36 - 30) * (x - 186);
    double c3 = (180 - 183) * (y - 36) - (30 - 36) * (x - 183);
    if (c1 >= 0 && c2 >= 0 && c3 >= 0) expected.insert(row[id_col].AsInt());
  }
  std::set<int64_t> got;
  for (const auto& row : result->table.rows()) got.insert(row[0].AsInt());
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(got.empty());
}

TEST_F(PolytopeEndToEndTest, ClockwiseRejected) {
  const server::TableValuedFunction* fn =
      db_->FindTableFunction("fGetObjInTriangle");
  EXPECT_FALSE(fn->Execute({Value::Double(180), Value::Double(30),
                            Value::Double(183), Value::Double(36),
                            Value::Double(186), Value::Double(30)})
                   .ok());
}

TEST_F(PolytopeEndToEndTest, TemplateRegionMatchesServerSemantics) {
  const core::FunctionTemplate* tmpl =
      templates_->FindFunctionTemplate("fGetObjInTriangle");
  ASSERT_NE(tmpl, nullptr);
  EXPECT_EQ(tmpl->shape(), geometry::ShapeKind::kPolytope);
  auto region = tmpl->BuildRegion(
      {Value::Double(180), Value::Double(30), Value::Double(186),
       Value::Double(30), Value::Double(183), Value::Double(36)});
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_TRUE((*region)->ContainsPoint({183.0, 31.0}));
  EXPECT_FALSE((*region)->ContainsPoint({183.0, 29.0}));
  EXPECT_FALSE((*region)->ContainsPoint({180.5, 35.0}));
}

TEST_F(PolytopeEndToEndTest, ProxyTransparencyAcrossRelationships) {
  std::vector<net::HttpRequest> sequence = {
      TriangleRequest(180, 30, 186, 30, 183, 36),   // Miss.
      TriangleRequest(180, 30, 186, 30, 183, 36),   // Exact.
      TriangleRequest(182, 31, 184, 31, 183, 33),   // Contained.
      TriangleRequest(178, 29, 188, 29, 183, 38),   // Contains (zoom out).
      TriangleRequest(184, 30, 190, 30, 187, 36),   // Overlap.
      TriangleRequest(176, 40, 179, 40, 177.5, 43), // Disjoint.
  };
  for (const auto& request : sequence) {
    EXPECT_EQ(Ask(request), Direct(request)) << request.ToUrl();
  }
  const core::ProxyStats& stats = proxy_->stats();
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_GE(stats.containment_hits, 1u);
  EXPECT_GE(stats.region_containments, 1u);
  EXPECT_GE(stats.overlaps_handled, 1u);
}

TEST_F(PolytopeEndToEndTest, ContainedTriangleAnsweredWithoutOrigin) {
  Ask(TriangleRequest(180, 30, 186, 30, 183, 36));
  uint64_t before = channel_->total_requests();
  auto ids = Ask(TriangleRequest(182, 31, 184, 31, 183, 33));
  EXPECT_EQ(channel_->total_requests(), before);
  EXPECT_EQ(ids, Direct(TriangleRequest(182, 31, 184, 31, 183, 33)));
}

}  // namespace
}  // namespace fnproxy
