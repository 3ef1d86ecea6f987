#include <gtest/gtest.h>

#include <unordered_set>

#include "core/local_eval.h"
#include "core/region_predicate.h"
#include "geometry/celestial.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/random.h"

namespace fnproxy::core {
namespace {

using geometry::Hyperrectangle;
using geometry::Hypersphere;
using sql::Row;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

Table PointsTable(const std::vector<std::pair<double, double>>& points) {
  Table table(Schema({{"id", ValueType::kInt},
                      {"x", ValueType::kDouble},
                      {"y", ValueType::kDouble}}));
  int64_t id = 0;
  for (const auto& [x, y] : points) {
    table.AddRow({Value::Int(id++), Value::Double(x), Value::Double(y)});
  }
  return table;
}

TEST(SelectInRegionTest, FiltersBySphere) {
  Table cached = PointsTable({{0, 0}, {0.5, 0.5}, {3, 3}, {-0.9, 0}});
  Hypersphere region({0, 0}, 1.0);
  auto result = SelectInRegion(cached, region, {"x", "y"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 3u);
  EXPECT_EQ(result->tuples_scanned, 4u);
}

TEST(SelectInRegionTest, MissingCoordinateColumnIsError) {
  Table cached = PointsTable({{0, 0}});
  Hypersphere region({0, 0}, 1.0);
  EXPECT_FALSE(SelectInRegion(cached, region, {"x", "nope"}).ok());
}

// The region's parameters are indexed by coordinate column, so a region
// with another dimension count is an error in both layouts, not a read past
// the end of the center, the bounds or the point.
TEST(SelectInRegionTest, RegionOfOtherDimensionIsError) {
  Table cached = PointsTable({{0, 0}, {0.5, 0.5}});
  sql::ColumnarTable columnar(cached);
  Hypersphere sphere({0, 0, 0}, 1.0);
  Hyperrectangle rect({-1}, {1});
  for (const geometry::Region* region :
       {static_cast<const geometry::Region*>(&sphere),
        static_cast<const geometry::Region*>(&rect)}) {
    auto row_wise = SelectInRegion(cached, *region, {"x", "y"});
    ASSERT_FALSE(row_wise.ok()) << region->ToString();
    EXPECT_EQ(row_wise.status().code(), util::StatusCode::kInvalidArgument);
    auto kernel = SelectInRegion(columnar, *region, {"x", "y"});
    ASSERT_FALSE(kernel.ok()) << region->ToString();
    EXPECT_EQ(kernel.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(kernel.status().message(), row_wise.status().message());
  }
}

TEST(SelectInRegionTest, EmptyInputEmptyOutput) {
  Table cached = PointsTable({});
  Hypersphere region({0, 0}, 1.0);
  auto result = SelectInRegion(cached, region, {"x", "y"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows(), 0u);
}

TEST(SelectInRegionTest, SchemaPreserved) {
  Table cached = PointsTable({{0, 0}});
  Hypersphere region({0, 0}, 1.0);
  auto result = SelectInRegion(cached, region, {"x", "y"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->table.schema().SameColumns(cached.schema()));
}

// Regression: the origin's fGetNearbyObjEq keeps a tuple iff d^2 <= chord^2,
// compared exactly, so a cached tuple a hair outside the query cone must not
// be served. Selection once widened the cone by kGeomEpsilon and served an
// object 3.9e-10 outside /radial?ra=207.7597&dec=42.1316&radius=7.22.
TEST(SelectInRegionTest, TupleJustOutsideConeIsNotSelected) {
  Hypersphere cone = geometry::ConeToHypersphere(207.7597, 42.1316, 7.22);
  const geometry::Point& c = cone.center();
  // Step from the center along a tangent (orthogonal to the center vector).
  const geometry::Point tangent = {-c[1], c[0], 0.0};
  const double norm = geometry::Norm(tangent);
  auto at_distance = [&](double d) {
    return geometry::Point{c[0] + d * tangent[0] / norm,
                           c[1] + d * tangent[1] / norm, c[2]};
  };
  const geometry::Point outside = at_distance(cone.radius() + 3.9e-10);
  const geometry::Point inside = at_distance(cone.radius() - 3.9e-10);
  auto origin_selects = [&](const geometry::Point& p) {
    double dx = p[0] - c[0];
    double dy = p[1] - c[1];
    double dz = p[2] - c[2];
    return dx * dx + dy * dy + dz * dz <= cone.radius() * cone.radius();
  };
  ASSERT_FALSE(origin_selects(outside));
  ASSERT_TRUE(origin_selects(inside));
  // The relationship checks' tolerant test still counts it as inside.
  ASSERT_TRUE(cone.ContainsPoint(outside));

  Table cached(Schema({{"objID", ValueType::kInt},
                       {"cx", ValueType::kDouble},
                       {"cy", ValueType::kDouble},
                       {"cz", ValueType::kDouble}}));
  for (const geometry::Point& p : {outside, inside}) {
    cached.AddRow({Value::Int(static_cast<int64_t>(cached.num_rows())),
                   Value::Double(p[0]), Value::Double(p[1]),
                   Value::Double(p[2])});
  }
  const std::vector<std::string> coords = {"cx", "cy", "cz"};

  auto row_wise = SelectInRegion(cached, cone, coords);
  ASSERT_TRUE(row_wise.ok()) << row_wise.status().ToString();
  ASSERT_EQ(row_wise->table.num_rows(), 1u);
  EXPECT_EQ(row_wise->table.row(0)[0].AsInt(), 1);

  sql::ColumnarTable columnar(cached);
  auto kernel = SelectInRegion(columnar, cone, coords);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  EXPECT_EQ(kernel->selection, std::vector<uint32_t>{1});
}

TEST(MergeDistinctTest, RemovesDuplicates) {
  Table a = PointsTable({{0, 0}, {1, 1}});
  Table b = PointsTable({{1, 1}, {2, 2}});
  // Note: PointsTable assigns ids 0,1 in both, so (1,1) rows differ in id.
  // Use tables with identical full rows instead.
  Table c(a.schema());
  c.AddRow(a.row(0));
  c.AddRow(a.row(1));
  auto merged = MergeDistinct({&a, &c});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 2u);
  (void)b;
}

TEST(MergeDistinctTest, DifferentSchemasRejected) {
  Table a = PointsTable({{0, 0}});
  Table b(Schema({{"z", ValueType::kInt}}));
  EXPECT_FALSE(MergeDistinct({&a, &b}).ok());
  EXPECT_FALSE(MergeDistinct({}).ok());
}

TEST(MergeDistinctTest, NearDuplicateRowsKept) {
  Table a = PointsTable({{0, 0}});
  Table b = PointsTable({{0, 1e-12}});
  auto merged = MergeDistinct({&a, &b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 2u);  // Distinct values stay distinct.
}

// Regression for the hash-based dedup rewrite: a duplicate-heavy merge must
// keep exactly the rows the seed's per-row key strings (ToSqlLiteral joined
// on 0x1f) kept, in the same first-occurrence order — including the dedup
// corner cases that identity implies: Int(100000) merges with
// Double(100000.0) (both rendered "100000") while Int(1000000) stays
// distinct from Double(1e6) ("1000000" vs "1e+06"), and +0.0 stays distinct
// from -0.0 ("0" vs "-0").
TEST(MergeDistinctTest, DuplicateHeavyMergeMatchesSeedKeyOracle) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kDouble}});
  util::Random rng(42);
  Table a(schema);
  Table b(schema);
  // ~70% duplication across parts, plus intra-part repeats.
  for (int i = 0; i < 400; ++i) {
    Row row = {Value::Int(static_cast<int64_t>(rng.NextUint64(50))),
               Value::Double(static_cast<double>(rng.NextUint64(10)))};
    a.AddRow(row);
    if (rng.NextUint64(10) < 7) b.AddRow(row);
    if (rng.NextUint64(4) == 0) a.AddRow(row);
  }
  // Cross-type and signed-zero corner cases.
  a.AddRow({Value::Int(100000), Value::Double(0.0)});
  b.AddRow({Value::Double(100000.0), Value::Double(0.0)});   // Same keys.
  a.AddRow({Value::Int(1000000), Value::Double(1.0)});
  b.AddRow({Value::Double(1e6), Value::Double(1.0)});        // Distinct keys.
  a.AddRow({Value::Int(7), Value::Double(0.0)});
  b.AddRow({Value::Int(7), Value::Double(-0.0)});            // Distinct keys.

  std::unordered_set<std::string> seen;
  Table expected(schema);
  for (const Table* part : {&a, &b}) {
    for (const Row& row : part->rows()) {
      std::string key;
      for (const Value& v : row) {
        key += v.ToSqlLiteral();
        key += '\x1f';
      }
      if (seen.insert(key).second) expected.AddRow(row);
    }
  }

  auto merged = MergeDistinct({&a, &b});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->num_rows(), expected.num_rows());
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(merged->row(r)[c].ToSqlLiteral(),
                expected.row(r)[c].ToSqlLiteral())
          << "row " << r << " col " << c;
    }
  }
}

TEST(ApplyOrderAndTopTest, SortsAndLimits) {
  Table table = PointsTable({{3, 0}, {1, 0}, {2, 0}});
  auto stmt = sql::ParseSelect("SELECT TOP 2 id, x, y FROM f(1) ORDER BY x");
  ASSERT_TRUE(stmt.ok());
  auto out = ApplyOrderAndTop(table, *stmt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out->row(0)[1].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(out->row(1)[1].AsDouble(), 2.0);
}

TEST(ApplyOrderAndTopTest, DescendingAndNoTop) {
  Table table = PointsTable({{3, 0}, {1, 0}, {2, 0}});
  auto stmt = sql::ParseSelect("SELECT id, x, y FROM f(1) ORDER BY x DESC");
  ASSERT_TRUE(stmt.ok());
  auto out = ApplyOrderAndTop(table, *stmt);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  EXPECT_DOUBLE_EQ(out->row(0)[1].AsDouble(), 3.0);
}

TEST(ApplyOrderAndTopTest, NoOrderNoTopIsIdentity) {
  Table table = PointsTable({{3, 0}, {1, 0}});
  auto stmt = sql::ParseSelect("SELECT id, x, y FROM f(1)");
  ASSERT_TRUE(stmt.ok());
  auto out = ApplyOrderAndTop(table, *stmt);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out->row(0)[1].AsDouble(), 3.0);
}

TEST(ApplyOrderAndTopTest, UnknownOrderColumnRejected) {
  Table table = PointsTable({{1, 0}});
  auto stmt = sql::ParseSelect("SELECT id FROM f(1) ORDER BY zzz");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ApplyOrderAndTop(table, *stmt).ok());
}

/// Property: RegionToPredicate agrees with Region::ContainsPoint for random
/// points and all three shapes.
class RegionPredicateTest : public ::testing::TestWithParam<int> {};

TEST_P(RegionPredicateTest, PredicateMatchesGeometry) {
  int shape = GetParam();
  util::Random rng(static_cast<uint64_t>(500 + shape));
  std::unique_ptr<geometry::Region> region;
  switch (shape) {
    case 0:
      region = std::make_unique<Hypersphere>(geometry::Point{0.3, -0.2}, 1.1);
      break;
    case 1:
      region = std::make_unique<Hyperrectangle>(geometry::Point{-1.0, -0.5},
                                                geometry::Point{0.5, 1.5});
      break;
    default: {
      std::vector<geometry::Halfspace> halfspaces = {
          {{-1, 0}, 0.5}, {{0, -1}, 0.5}, {{1, 1}, 1.5}};
      std::vector<geometry::Point> vertices = {
          {-0.5, -0.5}, {2.0, -0.5}, {-0.5, 2.0}};
      region = std::make_unique<geometry::Polytope>(halfspaces, vertices);
    }
  }

  auto predicate = RegionToPredicate(*region, {"x", "y"});
  ASSERT_TRUE(predicate.ok()) << predicate.status().ToString();

  // The printed predicate must also survive a parse round trip (it is
  // shipped inside remainder queries).
  std::string printed = sql::ExprToSql(**predicate);
  auto reparsed = sql::ParseExpression(printed);
  ASSERT_TRUE(reparsed.ok()) << printed;

  sql::ScalarFunctionRegistry registry =
      sql::ScalarFunctionRegistry::WithBuiltins();
  sql::ExprEvaluator evaluator(&registry);
  Schema schema({{"x", ValueType::kDouble}, {"y", ValueType::kDouble}});

  int boundary_skips = 0;
  for (int i = 0; i < 1000; ++i) {
    geometry::Point p = {rng.NextDouble(-3, 3), rng.NextDouble(-3, 3)};
    Row row = {Value::Double(p[0]), Value::Double(p[1])};
    sql::RowBinding binding;
    binding.AddSource("t", &schema, &row);
    auto from_sql = evaluator.EvalPredicate(**reparsed, binding);
    ASSERT_TRUE(from_sql.ok());
    bool from_geometry = region->ContainsPoint(p);
    if (*from_sql != from_geometry) {
      // Allowed only within the geometric epsilon of the boundary.
      ++boundary_skips;
      continue;
    }
  }
  EXPECT_LE(boundary_skips, 2);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RegionPredicateTest,
                         ::testing::Values(0, 1, 2));

TEST(BuildRemainderQueryTest, AppendsNegatedRegionsAndStripsTop) {
  auto stmt = sql::ParseSelect(
      "SELECT TOP 10 id, x, y FROM f(1, 2) WHERE id > 0 ORDER BY x");
  ASSERT_TRUE(stmt.ok());
  Hypersphere hole({0, 0}, 1.0);
  std::vector<const geometry::Region*> excluded = {&hole};
  auto remainder = BuildRemainderQuery(*stmt, excluded, {"x", "y"});
  ASSERT_TRUE(remainder.ok());
  EXPECT_FALSE(remainder->top_n.has_value());
  EXPECT_TRUE(remainder->order_by.empty());
  std::string printed = sql::SelectToSql(*remainder);
  EXPECT_NE(printed.find("NOT"), std::string::npos);
  EXPECT_NE(printed.find("id > 0"), std::string::npos);
  // Re-parses cleanly.
  EXPECT_TRUE(sql::ParseSelect(printed).ok()) << printed;
}

TEST(BuildRemainderQueryTest, NoWhereNoExclusions) {
  auto stmt = sql::ParseSelect("SELECT x FROM f(1)");
  ASSERT_TRUE(stmt.ok());
  auto remainder = BuildRemainderQuery(*stmt, {}, {"x"});
  ASSERT_TRUE(remainder.ok());
  EXPECT_EQ(remainder->where, nullptr);
}

TEST(BuildRemainderQueryTest, DimensionMismatchRejected) {
  auto stmt = sql::ParseSelect("SELECT x FROM f(1)");
  ASSERT_TRUE(stmt.ok());
  Hypersphere hole({0, 0}, 1.0);
  std::vector<const geometry::Region*> excluded = {&hole};
  EXPECT_FALSE(BuildRemainderQuery(*stmt, excluded, {"x"}).ok());
}

}  // namespace
}  // namespace fnproxy::core
