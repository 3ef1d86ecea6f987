// Randomized property tests for the columnar storage layer, with the
// row-wise implementations as oracles: the columnar representation must
// round-trip tables of typed cells and NULLs losslessly (and refuse a cell
// of another type than its column's), and the columnar subsumed-query
// pipeline (SelectInRegion / MergeDistinct / ApplyOrderAndTop / TableToXml)
// must agree with the row-wise path to the byte, including the historical
// dedup identity (ToSqlLiteral key strings) and Region::ContainsPoint float
// semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_set>

#include "core/local_eval.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "sql/columnar.h"
#include "sql/parser.h"
#include "sql/table_xml.h"
#include "storage/segment.h"
#include "util/random.h"

namespace fnproxy {
namespace {

using sql::ColumnarTable;
using sql::Row;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

// --- Adversarial value generation ------------------------------------------

double WeirdDouble(util::Random& rng) {
  static const double kDoubles[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      1e6,      // Renders as "1e+06": dedup-distinct from Int(1000000).
      100000.0,  // Renders as "100000": dedup-equal to Int(100000).
      1e-7,
      123456.789,
      1e15,
      1e308,
      5e-324,
      -2.5e-10,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      9007199254740992.0,  // 2^53.
  };
  if (rng.NextUint64(2) == 0) {
    return kDoubles[rng.NextUint64(sizeof(kDoubles) / sizeof(kDoubles[0]))];
  }
  return rng.NextDouble(-1e3, 1e3);
}

int64_t WeirdInt(util::Random& rng) {
  static const int64_t kInts[] = {
      0,
      1,
      -1,
      999999,
      1000000,   // Historical key "1000000" != FormatDouble(1e6) = "1e+06".
      10000000,
      12345,
      (int64_t{1} << 53),
      (int64_t{1} << 53) + 1,  // Not exactly representable as double.
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(),
  };
  if (rng.NextUint64(2) == 0) {
    return kInts[rng.NextUint64(sizeof(kInts) / sizeof(kInts[0]))];
  }
  return static_cast<int64_t>(rng.NextUint64(1000)) - 500;
}

std::string WeirdString(util::Random& rng) {
  static const char* kStrings[] = {
      "", "a", "hello world", "<&>\"'", "line\nbreak", "tab\there",
      "it's quoted", "x\x1fy",  // Embedded historical key separator.
      "0", "1e+06", "nan",      // Strings shadowing numeric renderings.
  };
  return kStrings[rng.NextUint64(sizeof(kStrings) / sizeof(kStrings[0]))];
}

Value RandomValueOfType(util::Random& rng, ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return Value::Int(WeirdInt(rng));
    case ValueType::kDouble:
      return Value::Double(WeirdDouble(rng));
    case ValueType::kBool:
      return Value::Bool(rng.NextUint64(2) == 0);
    case ValueType::kString:
      return Value::String(WeirdString(rng));
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

/// 90% a value of the declared type, 10% NULL.
Value RandomCell(util::Random& rng, ValueType declared) {
  if (rng.NextUint64(10) == 0) return Value::Null();
  return RandomValueOfType(rng, declared);
}

Table RandomTable(util::Random& rng, size_t max_rows) {
  static const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                     ValueType::kBool, ValueType::kString,
                                     ValueType::kNull};
  size_t num_cols = 1 + rng.NextUint64(5);
  std::vector<sql::Column> columns;
  for (size_t c = 0; c < num_cols; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    columns.push_back({std::move(name), kTypes[rng.NextUint64(5)]});
  }
  Table table((Schema(columns)));
  size_t rows = rng.NextUint64(max_rows + 1);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < num_cols; ++c) {
      row.push_back(RandomCell(rng, columns[c].type));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

// --- Exact comparison (bit-level for doubles, unlike SQL equality) ----------

bool CellsBitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble: {
      double x = a.AsDouble();
      double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

::testing::AssertionResult TablesBitEqual(const Table& a, const Table& b) {
  if (!a.schema().SameColumns(b.schema())) {
    return ::testing::AssertionFailure() << "schemas differ";
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().columns().size(); ++c) {
      if (!CellsBitEqual(a.row(r)[c], b.row(r)[c])) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << ") differs: "
               << a.row(r)[c].ToSqlLiteral() << " vs "
               << b.row(r)[c].ToSqlLiteral();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// --- Properties -------------------------------------------------------------

TEST(ColumnarPropertyTest, RoundTripIsLossless) {
  util::Random rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    Table table = RandomTable(rng, 40);
    ColumnarTable columnar(table);
    ASSERT_EQ(columnar.num_rows(), table.num_rows());
    EXPECT_TRUE(TablesBitEqual(columnar.ToTable(), table))
        << "iteration " << iter;
  }
}

TEST(ColumnarPropertyTest, AppendRowsFromMatchesPerRowAppend) {
  util::Random rng(12);
  for (int iter = 0; iter < 100; ++iter) {
    Table table = RandomTable(rng, 40);
    ColumnarTable src(table);
    std::vector<uint32_t> picks;
    for (size_t r = 0; r < src.num_rows(); ++r) {
      size_t copies = rng.NextUint64(3);  // 0, 1 or 2 copies per row.
      for (size_t k = 0; k < copies; ++k) {
        picks.push_back(static_cast<uint32_t>(r));
      }
    }
    ColumnarTable batch(table.schema());
    batch.AppendRowsFrom(src, picks.data(), picks.size());
    ColumnarTable scalar(table.schema());
    for (uint32_t r : picks) scalar.AppendRowFrom(src, r);
    EXPECT_TRUE(TablesBitEqual(batch.ToTable(), scalar.ToTable()))
        << "iteration " << iter;
  }
}

/// A frozen column whose every cell is NULL thaws as kAllNull whatever its
/// declared type, so a batch append from a thawed table meets a storage
/// kind other than its own column's.
TEST(ColumnarPropertyTest, AppendRowsFromThawedAllNullColumns) {
  util::Random rng(20);
  for (int iter = 0; iter < 50; ++iter) {
    Table table = RandomTable(rng, 40);
    if (table.num_rows() == 0) continue;
    const size_t null_column = rng.NextUint64(table.schema().num_columns());
    Table nulls(table.schema());
    for (const Row& row : table.rows()) {
      Row copy = row;
      copy[null_column] = Value::Null();
      nulls.AddRow(std::move(copy));
    }
    const ColumnarTable thawed =
        storage::FrozenSegment::Freeze(ColumnarTable(nulls)).Thaw();
    ASSERT_EQ(thawed.storage_kind(null_column),
              ColumnarTable::StorageKind::kAllNull);
    std::vector<uint32_t> picks;
    for (size_t r = 0; r < thawed.num_rows(); ++r) {
      if (rng.NextUint64(2) == 0) picks.push_back(static_cast<uint32_t>(r));
    }
    ColumnarTable batch(table.schema());
    batch.AppendRowsFrom(thawed, picks.data(), picks.size());
    ColumnarTable scalar(table.schema());
    for (uint32_t r : picks) scalar.AppendRowFrom(thawed, r);
    Table expected(table.schema());
    for (uint32_t r : picks) expected.AddRow(nulls.row(r));
    EXPECT_TRUE(TablesBitEqual(batch.ToTable(), expected))
        << "iteration " << iter;
    EXPECT_TRUE(TablesBitEqual(scalar.ToTable(), expected))
        << "iteration " << iter;
    EXPECT_EQ(sql::TableToXml(batch), sql::TableToXml(expected));
  }
}

TEST(ColumnarTableDeathTest, RefusesACellOfAnotherType) {
  // Each column is its declared type or NULL: an int in a DOUBLE column is
  // refused, not widened, and a NULL-typed column holds only NULLs.
  const std::pair<ValueType, Value> kCases[] = {
      {ValueType::kDouble, Value::Int(3)},
      {ValueType::kInt, Value::Double(2.5)},
      {ValueType::kString, Value::Bool(true)},
      {ValueType::kBool, Value::String("yes")},
      {ValueType::kNull, Value::Int(1)},
  };
  for (const auto& [declared, cell] : kCases) {
    const std::string declared_name = sql::ValueTypeName(declared);
    SCOPED_TRACE(declared_name);
    Table table(Schema({{"id", ValueType::kInt}, {"x", declared}}));
    table.AddRow({Value::Int(1), Value::Null()});
    table.AddRow({Value::Int(2), cell});
    const std::string message = std::string("column 'x' is declared ") +
                                declared_name + " but a cell holds " +
                                sql::ValueTypeName(cell.type());
    EXPECT_DEATH((void)ColumnarTable(table), message);
    ColumnarTable columnar(table.schema());
    EXPECT_DEATH(columnar.AppendRow({Value::Int(3), cell}), message);
  }
}

TEST(ColumnarPropertyTest, BatchRowHashesMatchScalarHashes) {
  util::Random rng(13);
  for (int iter = 0; iter < 100; ++iter) {
    Table table = RandomTable(rng, 40);
    ColumnarTable columnar(table);
    size_t n = columnar.num_rows();
    std::vector<uint64_t> batch(n);
    columnar.RowDedupHashes(nullptr, n, batch.data());
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(batch[r], columnar.RowDedupHash(r)) << "row " << r;
      // And both agree with the row-wise hash of the materialized row.
      ASSERT_EQ(batch[r], sql::DedupHashRow(table.row(r))) << "row " << r;
    }
  }
}

/// Coordinate column names, in dimension order.
const std::vector<std::string> kCoords = {"x", "y", "z", "u", "v"};

/// Coordinate tables over the first `dims` of kCoords: the last declared
/// INT, whose numeric view widens its ints to doubles, the others DOUBLE.
/// When `with_nulls` holds a coordinate is occasionally NULL, exercising
/// the validity-bitmap path of the membership kernels; otherwise no
/// coordinate column has a bitmap.
Table RandomPointsTable(util::Random& rng, size_t rows, size_t dims = 2,
                        bool with_nulls = true) {
  std::vector<sql::Column> columns = {{"id", ValueType::kInt}};
  for (size_t d = 0; d < dims; ++d) {
    columns.push_back(
        {kCoords[d], d + 1 == dims ? ValueType::kInt : ValueType::kDouble});
  }
  Table table((Schema(columns)));
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(r)));
    for (size_t d = 0; d < dims; ++d) {
      if (with_nulls && rng.NextUint64(8) == 0) {
        row.push_back(Value::Null());
      } else if (d + 1 == dims) {
        row.push_back(Value::Int(static_cast<int64_t>(rng.NextUint64(10))));
      } else {
        row.push_back(Value::Double(rng.NextDouble(0, 10)));
      }
    }
    table.AddRow(std::move(row));
  }
  return table;
}

/// A sphere, a box, or a box with one oblique face (so the polytope's dot
/// products round), over the points' [0, 10)^dims range.
std::unique_ptr<geometry::Region> RandomRegion(util::Random& rng,
                                               size_t dims) {
  geometry::Point lo(dims);
  geometry::Point hi(dims);
  for (size_t d = 0; d < dims; ++d) {
    double a = rng.NextDouble(0, 10);
    double b = rng.NextDouble(0, 10);
    lo[d] = std::min(a, b);
    hi[d] = std::max(a, b);
  }
  switch (rng.NextUint64(3)) {
    case 0:
      return std::make_unique<geometry::Hypersphere>(lo,
                                                     rng.NextDouble(0.5, 6));
    case 1:
      return std::make_unique<geometry::Hyperrectangle>(lo, hi);
    default: {
      std::vector<geometry::Halfspace> halfspaces =
          geometry::Polytope::FromRectangle(
              geometry::Hyperrectangle(lo, hi))
              .halfspaces();
      geometry::Halfspace cut{geometry::Point(dims), 0.0};
      for (size_t d = 0; d < dims; ++d) {
        cut.normal[d] = rng.NextDouble(-1, 1);
        cut.offset += cut.normal[d] * 0.5 * (lo[d] + hi[d]);
      }
      halfspaces.push_back(std::move(cut));
      // ContainsPointExact reads the halfspaces alone.
      return std::make_unique<geometry::Polytope>(
          std::move(halfspaces), std::vector<geometry::Point>{});
    }
  }
}

/// Scans `table` for `region` in both layouts, through admission-prepared
/// views when `prepared` holds, and returns the columnar selection after
/// checking that it names exactly the rows the row-wise scan copies (whose
/// ContainsPointExact is the oracle).
std::vector<uint32_t> ScanBothLayouts(const Table& table,
                                      const geometry::Region& region,
                                      bool prepared) {
  const std::vector<std::string> coords(
      kCoords.begin(), kCoords.begin() + region.dimensions());
  ColumnarTable columnar(table);
  if (prepared) {
    for (size_t c = 1; c <= coords.size(); ++c) {
      EXPECT_TRUE(columnar.PrepareNumericView(c).ok());
    }
  }
  auto row_result = core::SelectInRegion(table, region, coords);
  auto col_result = core::SelectInRegion(columnar, region, coords);
  EXPECT_TRUE(row_result.ok()) << row_result.status().ToString();
  EXPECT_TRUE(col_result.ok()) << col_result.status().ToString();
  if (!row_result.ok() || !col_result.ok()) return {};
  EXPECT_EQ(col_result->tuples_scanned, row_result->tuples_scanned);
  Table materialized(table.schema());
  for (uint32_t r : col_result->selection) {
    materialized.AddRow(table.row(r));
  }
  EXPECT_TRUE(TablesBitEqual(materialized, row_result->table))
      << region.ToString();
  return col_result->selection;
}

/// Short tables, both sides of a 64-row validity-bitmap word, and a larger
/// run.
const size_t kRowCounts[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,   9,
                             10, 13, 15, 16, 17, 63, 64, 65, 127, 500};

TEST(ColumnarPropertyTest, SelectInRegionMatchesRowWiseAllShapes) {
  util::Random rng(14);
  for (size_t dims : {2u, 3u, 5u}) {
    const geometry::Hypersphere clear(geometry::Point(dims, -100.0), 1.0);
    const geometry::Hypersphere around(geometry::Point(dims, 5.0), 1e6);
    for (size_t rows : kRowCounts) {
      std::vector<uint32_t> every(rows);
      for (size_t r = 0; r < rows; ++r) every[r] = static_cast<uint32_t>(r);
      for (int iter = 0; iter < 8; ++iter) {
        SCOPED_TRACE(::testing::Message() << dims << " dims, " << rows
                                          << " rows, iteration " << iter);
        const bool with_nulls = iter % 2 == 0;
        const bool prepared = iter % 4 < 2;
        Table table = RandomPointsTable(rng, rows, dims, with_nulls);
        auto region = RandomRegion(rng, dims);
        ScanBothLayouts(table, *region, prepared);
        // A sphere clear of the points selects nothing; without NULLs, one
        // around them selects every row, dense and ascending.
        EXPECT_TRUE(ScanBothLayouts(table, clear, prepared).empty());
        std::vector<uint32_t> inside = ScanBothLayouts(table, around, prepared);
        if (!with_nulls) {
          EXPECT_EQ(inside, every);
        }
        // With one coordinate column all NULL, no row is a candidate.
        const size_t null_column = 1 + static_cast<size_t>(iter) % dims;
        Table nulls(table.schema());
        for (const Row& row : table.rows()) {
          Row copy = row;
          copy[null_column] = Value::Null();
          nulls.AddRow(std::move(copy));
        }
        EXPECT_TRUE(ScanBothLayouts(nulls, around, prepared).empty());
      }
    }
  }
}

TEST(ColumnarPropertyTest, SelectInRegionMissingCoordinateColumn) {
  Table table = RandomPointsTable(*std::make_unique<util::Random>(1), 5);
  ColumnarTable columnar(table);
  geometry::Hypersphere region({0, 0}, 1.0);
  auto row_result = core::SelectInRegion(table, region, {"x", "missing"});
  auto col_result = core::SelectInRegion(columnar, region, {"x", "missing"});
  ASSERT_FALSE(row_result.ok());
  ASSERT_FALSE(col_result.ok());
  EXPECT_EQ(col_result.status().message(), row_result.status().message());
}

/// The seed's dedup identity: one key string per row, cells rendered with
/// ToSqlLiteral and joined on 0x1f. MergeDistinct (both layouts) must keep
/// exactly the first row per distinct key, in input order.
Table OracleMergeDistinct(const std::vector<const Table*>& parts) {
  Table merged(parts[0]->schema());
  std::unordered_set<std::string> seen;
  for (const Table* part : parts) {
    for (const Row& row : part->rows()) {
      std::string key;
      for (const Value& v : row) {
        key += v.ToSqlLiteral();
        key += '\x1f';
      }
      if (seen.insert(key).second) merged.AddRow(row);
    }
  }
  return merged;
}

TEST(ColumnarPropertyTest, MergeDistinctMatchesSeedKeyOracle) {
  util::Random rng(15);
  for (int iter = 0; iter < 100; ++iter) {
    Table base = RandomTable(rng, 30);
    // Build 2-3 parts over the same schema with heavy cross-part duplication.
    size_t num_parts = 2 + rng.NextUint64(2);
    std::vector<Table> parts;
    for (size_t p = 0; p < num_parts; ++p) {
      Table part(base.schema());
      for (size_t r = 0; r < base.num_rows(); ++r) {
        if (rng.NextUint64(3) != 0) part.AddRow(base.row(r));
        if (rng.NextUint64(4) == 0) part.AddRow(base.row(r));  // Intra-part dup.
      }
      parts.push_back(std::move(part));
    }
    std::vector<const Table*> part_ptrs;
    std::vector<core::ColumnarSlice> slices;
    std::vector<std::unique_ptr<ColumnarTable>> columnar_parts;
    for (const Table& part : parts) {
      part_ptrs.push_back(&part);
      columnar_parts.push_back(std::make_unique<ColumnarTable>(part));
      slices.push_back({columnar_parts.back().get(), nullptr});
    }
    Table expected = OracleMergeDistinct(part_ptrs);
    auto row_merged = core::MergeDistinct(part_ptrs);
    ASSERT_TRUE(row_merged.ok());
    EXPECT_TRUE(TablesBitEqual(*row_merged, expected)) << "iteration " << iter;
    auto col_merged = core::MergeDistinctColumnar(slices);
    ASSERT_TRUE(col_merged.ok());
    EXPECT_TRUE(TablesBitEqual(col_merged->ToTable(), expected))
        << "iteration " << iter;
  }
}

TEST(ColumnarPropertyTest, XmlSerializationByteIdentical) {
  util::Random rng(16);
  for (int iter = 0; iter < 100; ++iter) {
    Table table = RandomTable(rng, 30);
    ColumnarTable columnar(table);
    EXPECT_EQ(sql::TableToXml(columnar), sql::TableToXml(table))
        << "iteration " << iter;
    // Selection overload vs a row-wise table materialized from the same
    // selection.
    std::vector<uint32_t> selection;
    Table subset(table.schema());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (rng.NextUint64(2) == 0) {
        selection.push_back(static_cast<uint32_t>(r));
        subset.AddRow(table.row(r));
      }
    }
    EXPECT_EQ(sql::TableToXml(columnar, sql::ResultXmlAttrs{},
                              selection.data(), selection.size()),
              sql::TableToXml(subset))
        << "iteration " << iter;
  }
}

TEST(ColumnarPropertyTest, XmlRoundTripThroughParser) {
  util::Random rng(17);
  for (int iter = 0; iter < 50; ++iter) {
    Table table = RandomTable(rng, 20);
    // NaN has no parseable rendering: skip tables that hold one.
    bool parseable = true;
    for (size_t r = 0; r < table.num_rows() && parseable; ++r) {
      for (const Value& v : table.row(r)) {
        if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
          parseable = false;
          break;
        }
      }
    }
    if (!parseable) continue;
    auto reparsed = sql::TableFromXml(sql::TableToXml(ColumnarTable(table)));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_TRUE(TablesBitEqual(*reparsed, table)) << "iteration " << iter;
  }
}

TEST(ColumnarPropertyTest, OrderAndTopMatchesRowWise) {
  util::Random rng(18);
  auto stmt = sql::ParseSelect(
      "SELECT TOP 7 id, x, y FROM f(1) ORDER BY x DESC, id");
  ASSERT_TRUE(stmt.ok());
  for (int iter = 0; iter < 100; ++iter) {
    Table table = RandomPointsTable(rng, 1 + rng.NextUint64(40));
    ColumnarTable columnar(table);
    auto row_result = core::ApplyOrderAndTop(table, *stmt);
    ASSERT_TRUE(row_result.ok());
    std::vector<uint32_t> identity(table.num_rows());
    for (size_t r = 0; r < identity.size(); ++r) {
      identity[r] = static_cast<uint32_t>(r);
    }
    auto col_result = core::ApplyOrderAndTop(columnar, identity, *stmt);
    ASSERT_TRUE(col_result.ok());
    Table materialized(table.schema());
    for (uint32_t r : *col_result) materialized.AddRow(table.row(r));
    EXPECT_TRUE(TablesBitEqual(materialized, *row_result))
        << "iteration " << iter;
  }
}

/// Frozen-entry concurrency: after PrepareNumericView, concurrent readers
/// may scan, merge, hash and serialize the same table with no synchronization
/// (this is the CacheStore's shared_ptr<const CacheEntry> contract). Run
/// under TSan to prove it.
TEST(ColumnarPropertyTest, FrozenTableSupportsConcurrentReaders) {
  util::Random rng(19);
  Table table = RandomPointsTable(rng, 500);
  auto columnar = std::make_shared<const ColumnarTable>([&] {
    ColumnarTable t(table);
    EXPECT_TRUE(t.PrepareNumericView(1).ok());
    EXPECT_TRUE(t.PrepareNumericView(2).ok());
    return t;
  }());
  geometry::Hypersphere region({5, 5}, 3.0);
  const std::vector<std::string> coords = {"x", "y"};

  auto reference = core::SelectInRegion(*columnar, region, coords);
  ASSERT_TRUE(reference.ok());
  std::string reference_xml = sql::TableToXml(
      *columnar, sql::ResultXmlAttrs{}, reference->selection.data(),
      reference->selection.size());

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        auto selected = core::SelectInRegion(*columnar, region, coords);
        if (!selected.ok() ||
            selected->selection != reference->selection) {
          ++failures[t];
          continue;
        }
        auto merged = core::MergeDistinctColumnar(
            {{columnar.get(), &selected->selection},
             {columnar.get(), &selected->selection}});
        if (!merged.ok() ||
            merged->num_rows() > selected->selection.size()) {
          ++failures[t];
          continue;
        }
        std::string xml = sql::TableToXml(*columnar, sql::ResultXmlAttrs{},
                                          selected->selection.data(),
                                          selected->selection.size());
        if (xml != reference_xml) ++failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace fnproxy
