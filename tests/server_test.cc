#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "catalog/book_catalog.h"
#include "catalog/sky_catalog.h"
#include "geometry/celestial.h"
#include "net/http.h"
#include "server/book_functions.h"
#include "server/database.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/parser.h"
#include "sql/table_xml.h"
#include "util/clock.h"

namespace fnproxy::server {
namespace {

using sql::Table;
using sql::Value;

class SkyServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 20000;
    config.num_clusters = 10;
    config.seed = 321;
    db_ = new Database();
    db_->AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(config));
    grid_ = new SkyGrid(db_->FindTable("PhotoPrimary"));
    db_->RegisterTableFunction(MakeGetNearbyObjEq(grid_));
    db_->RegisterTableFunction(MakeGetObjFromRect(grid_));
    db_->scalar_functions()->Register(
        "fPhotoFlags",
        [](const std::vector<Value>& args) -> util::StatusOr<Value> {
          FNPROXY_ASSIGN_OR_RETURN(int64_t bit,
                                   catalog::PhotoFlagValue(args.at(0).AsString()));
          return Value::Int(bit);
        });
  }
  static void TearDownTestSuite() {
    delete grid_;
    delete db_;
    grid_ = nullptr;
    db_ = nullptr;
  }

  static Database* db_;
  static SkyGrid* grid_;
};

Database* SkyServerTest::db_ = nullptr;
SkyGrid* SkyServerTest::grid_ = nullptr;

/// Brute-force reference for fGetNearbyObjEq.
std::set<int64_t> BruteForceCone(const Table& catalog_table, double ra,
                                 double dec, double radius_arcmin) {
  std::set<int64_t> ids;
  size_t id_col = *catalog_table.schema().FindColumn("objID");
  size_t ra_col = *catalog_table.schema().FindColumn("ra");
  size_t dec_col = *catalog_table.schema().FindColumn("dec");
  for (const auto& row : catalog_table.rows()) {
    double sep = geometry::AngularSeparationDeg(
                     ra, dec, row[ra_col].AsDouble(), row[dec_col].AsDouble()) *
                 60.0;
    if (sep <= radius_arcmin) ids.insert(row[id_col].AsInt());
  }
  return ids;
}

TEST_F(SkyServerTest, NearbyObjEqMatchesBruteForce) {
  const TableValuedFunction* fn = db_->FindTableFunction("fGetNearbyObjEq");
  ASSERT_NE(fn, nullptr);
  const Table catalog_table = db_->FindTable("PhotoPrimary")->ToTable();
  struct Probe {
    double ra, dec, radius;
  };
  for (const Probe& p : {Probe{180.0, 30.0, 20.0}, Probe{150.5, 10.25, 45.0},
                         Probe{220.0, 55.0, 5.0}, Probe{180.0, 30.0, 0.0}}) {
    auto result = fn->Execute(
        {Value::Double(p.ra), Value::Double(p.dec), Value::Double(p.radius)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::set<int64_t> got;
    for (const auto& row : result->table.rows()) got.insert(row[0].AsInt());
    EXPECT_EQ(got, BruteForceCone(catalog_table, p.ra, p.dec, p.radius))
        << "ra=" << p.ra << " dec=" << p.dec << " r=" << p.radius;
    EXPECT_LE(result->table.num_rows(), result->tuples_examined);
  }
}

TEST_F(SkyServerTest, NearbyObjEqDistancesCorrect) {
  const TableValuedFunction* fn = db_->FindTableFunction("fGetNearbyObjEq");
  auto result = fn->Execute(
      {Value::Double(180.0), Value::Double(30.0), Value::Double(30.0)});
  ASSERT_TRUE(result.ok());
  for (const auto& row : result->table.rows()) {
    double d = row[1].AsDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 30.0 + 1e-6);
  }
}

TEST_F(SkyServerTest, NearbyObjEqRejectsBadArgs) {
  const TableValuedFunction* fn = db_->FindTableFunction("fGetNearbyObjEq");
  EXPECT_FALSE(fn->Execute({Value::Double(1)}).ok());
  EXPECT_FALSE(fn->Execute({Value::Double(1), Value::Double(2),
                            Value::Double(-5)})
                   .ok());
}

TEST_F(SkyServerTest, ObjFromRectMatchesBruteForce) {
  const TableValuedFunction* fn = db_->FindTableFunction("fGetObjFromRect");
  ASSERT_NE(fn, nullptr);
  const Table catalog_table = db_->FindTable("PhotoPrimary")->ToTable();
  auto result =
      fn->Execute({Value::Double(170.0), Value::Double(175.0),
                   Value::Double(20.0), Value::Double(28.0)});
  ASSERT_TRUE(result.ok());
  std::set<int64_t> got;
  for (const auto& row : result->table.rows()) got.insert(row[0].AsInt());

  std::set<int64_t> expected;
  size_t id_col = *catalog_table.schema().FindColumn("objID");
  size_t ra_col = *catalog_table.schema().FindColumn("ra");
  size_t dec_col = *catalog_table.schema().FindColumn("dec");
  for (const auto& row : catalog_table.rows()) {
    double ra = row[ra_col].AsDouble();
    double dec = row[dec_col].AsDouble();
    if (ra >= 170 && ra <= 175 && dec >= 20 && dec <= 28) {
      expected.insert(row[id_col].AsInt());
    }
  }
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(got.empty());
}

TEST_F(SkyServerTest, FunctionLookupNormalizesName) {
  EXPECT_NE(db_->FindTableFunction("fgetnearbyobjeq"), nullptr);
  EXPECT_NE(db_->FindTableFunction("dbo.fGetNearbyObjEq"), nullptr);
  EXPECT_EQ(db_->FindTableFunction("fNoSuch"), nullptr);
}

sql::SelectStatement MustParse(std::string_view sql) {
  auto stmt = sql::ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::move(stmt).value();
}

TEST_F(SkyServerTest, ExecuteJoinQuery) {
  auto result = db_->ExecuteSelect(MustParse(
      "SELECT p.objID, p.ra, p.dec, n.distance "
      "FROM fGetNearbyObjEq(180.0, 30.0, 30.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.schema().num_columns(), 4u);
  // Join keeps every function tuple exactly once (objID is a key).
  auto fn_only = db_->FindTableFunction("fGetNearbyObjEq")
                     ->Execute({Value::Double(180.0), Value::Double(30.0),
                                Value::Double(30.0)});
  ASSERT_TRUE(fn_only.ok());
  EXPECT_EQ(result->table.num_rows(), fn_only->table.num_rows());
}

TEST_F(SkyServerTest, ExecuteWhereFilters) {
  auto all = db_->ExecuteSelect(MustParse(
      "SELECT p.objID, p.type FROM fGetNearbyObjEq(180.0, 30.0, 40.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID"));
  auto galaxies = db_->ExecuteSelect(MustParse(
      "SELECT p.objID, p.type FROM fGetNearbyObjEq(180.0, 30.0, 40.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID WHERE p.type = 3"));
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(galaxies.ok());
  EXPECT_LT(galaxies->table.num_rows(), all->table.num_rows());
  for (const auto& row : galaxies->table.rows()) {
    EXPECT_EQ(row[1].AsInt(), 3);
  }
}

TEST_F(SkyServerTest, ExecuteScalarFunctionInWhere) {
  auto result = db_->ExecuteSelect(MustParse(
      "SELECT p.objID, p.flags FROM fGetNearbyObjEq(180.0, 30.0, 40.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID "
      "WHERE (p.flags & fPhotoFlags('SATURATED')) = 0"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& row : result->table.rows()) {
    EXPECT_EQ(row[1].AsInt() & 0x40000, 0);
  }
}

TEST_F(SkyServerTest, ExecuteTopAndOrderBy) {
  auto result = db_->ExecuteSelect(MustParse(
      "SELECT TOP 5 p.objID, n.distance "
      "FROM fGetNearbyObjEq(180.0, 30.0, 60.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID ORDER BY n.distance"));
  ASSERT_TRUE(result.ok());
  ASSERT_LE(result->table.num_rows(), 5u);
  for (size_t i = 1; i < result->table.num_rows(); ++i) {
    EXPECT_LE(result->table.row(i - 1)[1].AsDouble(),
              result->table.row(i)[1].AsDouble());
  }
}

TEST_F(SkyServerTest, ExecuteStarProjection) {
  auto result = db_->ExecuteSelect(
      MustParse("SELECT * FROM fGetNearbyObjEq(180.0, 30.0, 10.0)"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.schema().num_columns(), 2u);  // objID, distance.
}

TEST_F(SkyServerTest, ExecuteExpressionProjection) {
  auto result = db_->ExecuteSelect(MustParse(
      "SELECT p.g - p.r AS color FROM fGetNearbyObjEq(180.0, 30.0, 20.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.schema().column(0).name, "color");
}

TEST_F(SkyServerTest, ExecuteErrorsSurfaced) {
  EXPECT_FALSE(db_->ExecuteSelect(MustParse("SELECT * FROM NoTable")).ok());
  EXPECT_FALSE(db_->ExecuteSelect(MustParse("SELECT * FROM fNoFn(1)")).ok());
  EXPECT_FALSE(
      db_->ExecuteSelect(MustParse("SELECT * FROM f($unbound)")).ok());
  EXPECT_FALSE(db_->ExecuteSelect(
                      MustParse("SELECT zzz FROM fGetNearbyObjEq(1, 2, 3)"))
                   .ok());
}

TEST_F(SkyServerTest, RemainderStyleQueryWithNotRegion) {
  // The kind of statement the proxy ships to /sql: original query plus a
  // negated sphere predicate over the coordinate columns.
  geometry::Point c = geometry::RaDecToUnitVector(180.0, 30.0);
  double chord = geometry::ArcminToChord(15.0);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "SELECT p.objID, p.cx, p.cy, p.cz "
      "FROM fGetNearbyObjEq(180.0, 30.0, 30.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID "
      "WHERE NOT (((p.cx - %.17g) * (p.cx - %.17g) + (p.cy - %.17g) * "
      "(p.cy - %.17g) + (p.cz - %.17g) * (p.cz - %.17g)) <= %.17g)",
      c[0], c[0], c[1], c[1], c[2], c[2], chord * chord);
  auto remainder = db_->ExecuteSelect(MustParse(buf));
  ASSERT_TRUE(remainder.ok()) << remainder.status().ToString();
  auto inner = db_->ExecuteSelect(MustParse(
      "SELECT p.objID FROM fGetNearbyObjEq(180.0, 30.0, 15.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID"));
  auto outer = db_->ExecuteSelect(MustParse(
      "SELECT p.objID FROM fGetNearbyObjEq(180.0, 30.0, 30.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID"));
  ASSERT_TRUE(inner.ok());
  ASSERT_TRUE(outer.ok());
  EXPECT_EQ(remainder->table.num_rows() + inner->table.num_rows(),
            outer->table.num_rows());
}

TEST_F(SkyServerTest, WebAppFormEndpoint) {
  util::SimulatedClock clock;
  ServerCostModel costs;
  costs.base_query_ms = 100.0;
  OriginWebApp app(db_, &clock, costs);
  ASSERT_TRUE(app.RegisterForm(
                     "/radial",
                     "SELECT p.objID, p.ra, p.dec "
                     "FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
                     "JOIN PhotoPrimary AS p ON n.objID = p.objID")
                  .ok());
  auto request = net::HttpRequest::Get("/radial?ra=180.0&dec=30.0&radius=20.0");
  ASSERT_TRUE(request.ok());
  net::HttpResponse response = app.Handle(*request);
  ASSERT_TRUE(response.ok()) << response.body;
  auto table = sql::TableFromXml(response.body);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(clock.NowMicros(), 100000);  // At least the base cost.
  EXPECT_EQ(app.form_queries_served(), 1u);
}

TEST_F(SkyServerTest, WebAppSqlEndpoint) {
  util::SimulatedClock clock;
  OriginWebApp app(db_, &clock);
  net::HttpRequest request;
  request.path = "/sql";
  request.query_params["q"] =
      "SELECT TOP 3 objID FROM fGetNearbyObjEq(180.0, 30.0, 60.0)";
  net::HttpResponse response = app.Handle(request);
  ASSERT_TRUE(response.ok()) << response.body;
  auto table = sql::TableFromXml(response.body);
  ASSERT_TRUE(table.ok());
  EXPECT_LE(table->num_rows(), 3u);
  EXPECT_EQ(app.sql_queries_served(), 1u);
}

TEST_F(SkyServerTest, WebAppRemainderCostsMore) {
  ServerCostModel costs;
  const char* sql_text = "SELECT objID FROM fGetNearbyObjEq(180.0, 30.0, 30.0)";
  util::SimulatedClock clock_form;
  OriginWebApp form_app(db_, &clock_form, costs);
  ASSERT_TRUE(form_app.RegisterForm("/q", sql_text).ok());
  auto form_request = net::HttpRequest::Get("/q");
  ASSERT_TRUE(form_request.ok());
  form_app.Handle(*form_request);

  util::SimulatedClock clock_sql;
  OriginWebApp sql_app(db_, &clock_sql, costs);
  net::HttpRequest sql_request;
  sql_request.path = "/sql";
  sql_request.query_params["q"] = sql_text;
  sql_app.Handle(sql_request);

  EXPECT_GT(clock_sql.NowMicros(), clock_form.NowMicros());
}

TEST_F(SkyServerTest, WebAppErrors) {
  util::SimulatedClock clock;
  OriginWebApp app(db_, &clock);
  auto bad_path = net::HttpRequest::Get("/nope");
  EXPECT_EQ(app.Handle(*bad_path).status_code, 404);

  net::HttpRequest bad_sql;
  bad_sql.path = "/sql";
  bad_sql.query_params["q"] = "NOT SQL AT ALL";
  EXPECT_EQ(app.Handle(bad_sql).status_code, 400);

  net::HttpRequest no_q;
  no_q.path = "/sql";
  EXPECT_EQ(app.Handle(no_q).status_code, 400);

  app.set_sql_endpoint_enabled(false);
  net::HttpRequest disabled;
  disabled.path = "/sql";
  disabled.query_params["q"] = "SELECT * FROM PhotoPrimary";
  EXPECT_EQ(app.Handle(disabled).status_code, 403);
}

TEST_F(SkyServerTest, WebAppMissingFormParam) {
  util::SimulatedClock clock;
  OriginWebApp app(db_, &clock);
  ASSERT_TRUE(app.RegisterForm("/radial",
                               "SELECT objID FROM fGetNearbyObjEq($ra, $dec, "
                               "$radius)")
                  .ok());
  auto request = net::HttpRequest::Get("/radial?ra=180.0");  // Missing params.
  EXPECT_EQ(app.Handle(*request).status_code, 400);
}

TEST(BookServerTest, SimilarBooksMatchesBruteForce) {
  catalog::BookCatalogConfig config;
  config.num_books = 5000;
  Database db;
  db.AddTable("Books", catalog::GenerateBookCatalog(config));
  db.RegisterTableFunction(MakeGetSimilarBooks(db.FindTable("Books")));
  const Table books = db.FindTable("Books")->ToTable();

  const TableValuedFunction* fn = db.FindTableFunction("fGetSimilarBooks");
  ASSERT_NE(fn, nullptr);
  auto result = fn->Execute({Value::Double(0.4), Value::Double(0.5),
                             Value::Double(0.6), Value::Double(0.15)});
  ASSERT_TRUE(result.ok());

  size_t f1 = *books.schema().FindColumn("f1");
  size_t f2 = *books.schema().FindColumn("f2");
  size_t f3 = *books.schema().FindColumn("f3");
  size_t expected = 0;
  for (const auto& row : books.rows()) {
    double d1 = row[f1].AsDouble() - 0.4;
    double d2 = row[f2].AsDouble() - 0.5;
    double d3 = row[f3].AsDouble() - 0.6;
    if (d1 * d1 + d2 * d2 + d3 * d3 <= 0.15 * 0.15) ++expected;
  }
  EXPECT_EQ(result->table.num_rows(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(CostModelTest, RemainderMultiplierAppliesToCompute) {
  ServerCostModel costs;
  costs.base_query_ms = 100;
  costs.per_candidate_us = 10;
  costs.per_result_us = 5;
  costs.remainder_multiplier = 2.0;
  int64_t normal = costs.ProcessingMicros(1000, 100, false);
  int64_t remainder = costs.ProcessingMicros(1000, 100, true);
  EXPECT_EQ(normal, 100000 + 10000 + 500);
  EXPECT_EQ(remainder, 2 * (100000 + 10000) + 500);
}

}  // namespace
}  // namespace fnproxy::server
