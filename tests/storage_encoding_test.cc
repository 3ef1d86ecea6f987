// Encoding oracle tests for the frozen-segment layer (docs/STORAGE.md):
// every encoder is checked against the raw hot table it came from. Freezing
// must be lossless and bit-exact — the thawed table serializes to the same
// XML bytes, prepared numeric views come back value-for-value, and the wire
// form round-trips through Serialize/Parse — for randomized tables and for
// the corner shapes (all-NULL columns, empty tables, degenerate
// dictionaries) that each encoder handles specially. Parse must reject
// every payload its decoders cannot decode, and the retired encoding id 7.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/cache_snapshot.h"
#include "snapshot_test_util.h"
#include "sql/columnar.h"
#include "sql/table_xml.h"
#include "storage/segment.h"
#include "storage/wire.h"
#include "storage_test_util.h"
#include "util/random.h"

namespace fnproxy::storage {
namespace {

using sql::ColumnarTable;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

/// Asserts the full lossless contract for one table under one option set:
/// thaw identity, wire round trip, and prepared numeric views.
void ExpectLossless(const ColumnarTable& source, const FreezeOptions& options,
                    const char* label) {
  SCOPED_TRACE(label);
  FrozenSegment segment = FrozenSegment::Freeze(source, options);
  ASSERT_EQ(segment.num_rows(), source.num_rows());
  ASSERT_EQ(segment.schema().num_columns(), source.num_columns());

  ColumnarTable thawed = segment.Thaw();
  EXPECT_EQ(sql::TableToXml(thawed), sql::TableToXml(source));

  auto parsed = FrozenSegment::Parse(segment.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), segment.Serialize());
  EXPECT_EQ(sql::TableToXml(parsed->Thaw()), sql::TableToXml(source));

  // Views prepared on the hot table come back prepared, and agree
  // bit-for-bit with the hot column's (NaN compares by payload here: both
  // sides hold the same stored bits).
  ColumnarTable prepared = source;
  for (size_t c = 0; c < source.num_columns(); ++c) {
    if (source.schema().column(c).type != ValueType::kDouble) continue;
    ASSERT_TRUE(prepared.PrepareNumericView(c).ok());
  }
  const ColumnarTable rethawed =
      FrozenSegment::Freeze(prepared, options).Thaw();
  for (size_t c = 0; c < source.num_columns(); ++c) {
    if (!prepared.view_prepared(c)) continue;
    ASSERT_TRUE(rethawed.view_prepared(c));
    auto hot = prepared.numeric_view(c);
    auto thawed_view = rethawed.numeric_view(c);
    ASSERT_TRUE(hot.has_value());
    ASSERT_TRUE(thawed_view.has_value());
    // A null validity pointer means the column is dense (all rows valid).
    const auto valid_bit = [](const uint64_t* valid, size_t row) {
      return valid == nullptr || ((valid[row / 64] >> (row % 64)) & 1) != 0;
    };
    for (size_t row = 0; row < source.num_rows(); ++row) {
      const bool thawed_valid = valid_bit(thawed_view->valid, row);
      const bool hot_valid = valid_bit(hot->valid, row);
      ASSERT_EQ(thawed_valid, hot_valid) << "row " << row;
      if (!hot_valid) continue;
      ASSERT_EQ(std::memcmp(&thawed_view->data[row], &hot->data[row],
                            sizeof(double)),
                0)
          << "row " << row << ": " << thawed_view->data[row] << " vs "
          << hot->data[row];
    }
  }
}

void ExpectLosslessUnderAllPolicies(const Table& rows, const char* label) {
  ColumnarTable source(rows);
  for (DoubleEncodingPolicy policy :
       {DoubleEncodingPolicy::kAuto, DoubleEncodingPolicy::kRaw,
        DoubleEncodingPolicy::kDecimal, DoubleEncodingPolicy::kShuffle}) {
    FreezeOptions options;
    options.double_policy = policy;
    ExpectLossless(source, options, label);
  }
}

TEST(StorageEncodingTest, SequentialIntsPickDelta) {
  Table rows(Schema({{"objID", ValueType::kInt}}));
  for (int64_t i = 0; i < 500; ++i) {
    rows.AddRow({Value::Int(1237650000000 + i)});
  }
  ColumnarTable source(rows);
  FrozenSegment segment = FrozenSegment::Freeze(source);
  EXPECT_EQ(segment.encoding(0), ColumnEncoding::kDeltaInt);
  EXPECT_LT(segment.ByteSize(), source.ByteSize());
  ExpectLosslessUnderAllPolicies(rows, "sequential ints");
}

TEST(StorageEncodingTest, QuantizedDoublesPickDecimal) {
  util::Random rng(3);
  Table rows(Schema({{"mag", ValueType::kDouble}}));
  for (size_t i = 0; i < 500; ++i) {
    rows.AddRow({Value::Double(
        std::round(rng.NextDouble(14.0, 25.0) * 1000.0) / 1000.0)});
  }
  ColumnarTable source(rows);
  FrozenSegment segment = FrozenSegment::Freeze(source);
  EXPECT_EQ(segment.encoding(0), ColumnEncoding::kDecimalDouble);
  EXPECT_LT(segment.ByteSize(), source.ByteSize());
  ExpectLosslessUnderAllPolicies(rows, "quantized doubles");
}

TEST(StorageEncodingTest, ViewColumnsPackLikeAnyOtherColumn) {
  util::Random rng(4);
  Table rows(Schema({{"ra", ValueType::kDouble}}));
  for (size_t i = 0; i < 200; ++i) {
    rows.AddRow({Value::Double(
        std::round(rng.NextDouble(130, 230) * 100.0) / 100.0)});
  }
  ColumnarTable source(rows);
  ASSERT_TRUE(source.PrepareNumericView(0).ok());
  // A coordinate column is packed by its values, and the thaw prepares its
  // view again before the table is scanned.
  FrozenSegment segment = FrozenSegment::Freeze(source);
  EXPECT_EQ(segment.encoding(0), ColumnEncoding::kDecimalDouble);
  EXPECT_LT(segment.ByteSize(), source.ByteSize());
  ColumnarTable thawed = segment.Thaw();
  EXPECT_TRUE(thawed.view_prepared(0));
  EXPECT_EQ(sql::TableToXml(thawed), sql::TableToXml(source));
}

TEST(StorageEncodingTest, DictStringsRoundTrip) {
  Table rows(Schema({{"class", ValueType::kString}}));
  // Degenerate dictionary shapes: empties, duplicates of "", a single
  // dominant code, XML-hostile bytes.
  const char* kValues[] = {"STAR", "", "STAR", "GALAXY", "", "<&>\"'",
                           "STAR", "line\nbreak", "STAR", "STAR"};
  for (int rep = 0; rep < 40; ++rep) {
    for (const char* v : kValues) rows.AddRow({Value::String(v)});
  }
  ColumnarTable source(rows);
  FrozenSegment segment = FrozenSegment::Freeze(source);
  EXPECT_EQ(segment.encoding(0), ColumnEncoding::kDictString);
  EXPECT_LT(segment.ByteSize(), source.ByteSize());
  ExpectLosslessUnderAllPolicies(rows, "dict strings");
}

TEST(StorageEncodingTest, AllNullColumnHasNoPayload) {
  Table rows(Schema({{"a", ValueType::kDouble}, {"b", ValueType::kString}}));
  for (size_t i = 0; i < 100; ++i) rows.AddRow({Value::Null(), Value::Null()});
  ColumnarTable source(rows);
  FrozenSegment segment = FrozenSegment::Freeze(source);
  EXPECT_EQ(segment.encoding(0), ColumnEncoding::kAllNull);
  EXPECT_EQ(segment.encoding(1), ColumnEncoding::kAllNull);
  ExpectLosslessUnderAllPolicies(rows, "all-null");
}

TEST(StorageEncodingTest, EmptyTableRoundTrips) {
  Table rows(Schema({{"objID", ValueType::kInt}, {"ra", ValueType::kDouble}}));
  ExpectLosslessUnderAllPolicies(rows, "empty table");
  ColumnarTable source(rows);
  FrozenSegment segment = FrozenSegment::Freeze(source);
  EXPECT_EQ(segment.num_rows(), 0u);
  auto parsed = FrozenSegment::Parse(segment.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->schema().num_columns(), 2u);
}

TEST(StorageEncodingTest, BoolsPackToBits) {
  util::Random rng(5);
  Table rows(Schema({{"flag", ValueType::kBool}}));
  for (size_t i = 0; i < 300; ++i) {
    sql::Row row(1);  // Null unless the draw below sets a bool.
    if (rng.NextUint64(10) != 0) row[0] = Value::Bool(rng.NextUint64(2) == 0);
    rows.AddRow(std::move(row));
  }
  ColumnarTable source(rows);
  FrozenSegment segment = FrozenSegment::Freeze(source);
  EXPECT_EQ(segment.encoding(0), ColumnEncoding::kPackedBool);
  ExpectLosslessUnderAllPolicies(rows, "packed bools");
}

TEST(StorageEncodingTest, RetiredTaggedEncodingIsRefused) {
  // Id 7 held one tagged value per cell (0 NULL, 1 int, 2 double, 3
  // string, 4 bool): here Int(7), a string, a double, NULL and a bool in a
  // column declared INT, as builds with mixed-type columns froze them.
  ByteWriter cells;
  cells.PutU8(1);
  cells.PutZigzag(7);
  cells.PutU8(3);
  cells.PutString("not an int");
  cells.PutU8(2);
  cells.PutDouble(2.5);
  cells.PutU8(0);
  cells.PutU8(4);
  cells.PutU8(1);
  auto parsed = FrozenSegment::Parse(
      OneColumnSegment(5, ValueType::kInt, static_cast<ColumnEncoding>(7),
                       cells.Release(), {}, {uint64_t{1} << 3}));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown encoding 7"),
            std::string::npos)
      << parsed.status().ToString();

  // A snapshot such a build wrote with one of them is refused whole, and a
  // proxy restoring it starts cold.
  auto file = ReadFileToString(std::string(FNPROXY_SNAPSHOT_FIXTURE_DIR) +
                               "/tagged-mixed-encoding.snap");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto snapshot = core::ParseSnapshot(*file);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.status().message().find("unknown encoding 7"),
            std::string::npos)
      << snapshot.status().ToString();
  const std::string path =
      ::testing::TempDir() + "/fnproxy_tagged_mixed_encoding.snap";
  ASSERT_TRUE(WriteFileAtomic(path, *file).ok());
  {
    core::RestoringProxy restored(path);
    EXPECT_EQ(restored.proxy()->cache().num_entries(), 0u);
    EXPECT_EQ(core::SnapshotErrors(restored.proxy()), 1);
  }
  std::remove(path.c_str());
}

TEST(StorageEncodingTest, AdversarialDoublesStayBitExact) {
  // Values the decimal encoder must either represent exactly or route
  // through its exception list / a different encoding: NaNs, signed zeros,
  // denormals, huge magnitudes, 2^53 neighbors.
  Table rows(Schema({{"x", ValueType::kDouble}}));
  const double kDoubles[] = {
      0.0, -0.0, 1.0, -1.0, 0.5, 1e6, 1e-7, 123456.789, 1e15, 1e308, 5e-324,
      -2.5e-10, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(), 9007199254740992.0,
      9007199254740993.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  util::Random rng(6);
  for (int rep = 0; rep < 30; ++rep) {
    for (double v : kDoubles) rows.AddRow({Value::Double(v)});
    rows.AddRow({Value::Null()});
    rows.AddRow({Value::Double(rng.NextDouble(-1e3, 1e3))});
  }
  ExpectLosslessUnderAllPolicies(rows, "adversarial doubles");
}

TEST(StorageEncodingTest, RandomizedTablesAcrossAllPolicies) {
  util::Random rng(99);
  static const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                     ValueType::kBool, ValueType::kString};
  for (int iter = 0; iter < 25; ++iter) {
    const size_t num_cols = 1 + rng.NextUint64(5);
    std::vector<sql::Column> cols;
    for (size_t c = 0; c < num_cols; ++c) {
      cols.push_back({std::string("c").append(std::to_string(c)),
                      kTypes[rng.NextUint64(4)]});
    }
    Table rows((Schema(cols)));
    const size_t num_rows = rng.NextUint64(200);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < num_cols; ++c) {
        const uint64_t roll = rng.NextUint64(10);
        if (roll == 0) {
          row.push_back(Value::Null());
          continue;
        }
        switch (cols[c].type) {
          case ValueType::kInt:
            row.push_back(Value::Int(
                static_cast<int64_t>(rng.NextUint64(1000000)) - 500000));
            break;
          case ValueType::kDouble:
            row.push_back(
                roll == 1
                    ? Value::Double(rng.NextDouble(-1e12, 1e12))
                    : Value::Double(std::round(rng.NextDouble(-100, 100) *
                                               1000.0) /
                                    1000.0));
            break;
          case ValueType::kBool:
            row.push_back(Value::Bool(rng.NextUint64(2) == 0));
            break;
          case ValueType::kString: {
            std::string text;
            if (rng.NextUint64(3) != 0) {
              text.push_back('s');
              text += std::to_string(rng.NextUint64(8));
            }
            row.push_back(Value::String(std::move(text)));
            break;
          }
          default:
            row.push_back(Value::Null());
        }
      }
      rows.AddRow(std::move(row));
    }
    ExpectLosslessUnderAllPolicies(
        rows,
        std::string("random iter ").append(std::to_string(iter)).c_str());
  }
}

TEST(StorageEncodingTest, ParseRejectsCorruptSegments) {
  Table rows(Schema({{"objID", ValueType::kInt}}));
  for (int64_t i = 0; i < 50; ++i) rows.AddRow({Value::Int(i)});
  FrozenSegment segment = FrozenSegment::Freeze(ColumnarTable(rows));
  std::string wire = segment.Serialize();
  EXPECT_FALSE(FrozenSegment::Parse(wire.substr(0, wire.size() / 2)).ok());
  EXPECT_FALSE(FrozenSegment::Parse("").ok());
}

TEST(StorageEncodingTest, ParseRejectsPayloadsTheDecodersCannotDecode) {
  for (const auto& [label, wire] : UndecodableSegments()) {
    SCOPED_TRACE(label);
    EXPECT_FALSE(FrozenSegment::Parse(wire).ok());
  }
}

TEST(StorageEncodingTest, ParseAcceptsTheWellFormedTwins) {
  // The same shapes with payloads that match the row count decode fully.
  auto ints = FrozenSegment::Parse(OneColumnSegment(
      10, ValueType::kInt, ColumnEncoding::kDeltaInt,
      DeltaPayload(10, 100, 2, 9)));
  ASSERT_TRUE(ints.ok()) << ints.status().ToString();
  Table want_ints(Schema({{"c", ValueType::kInt}}));
  for (int64_t i = 0; i < 10; ++i) want_ints.AddRow({Value::Int(100 + i)});
  EXPECT_EQ(sql::TableToXml(ints->Thaw()),
            sql::TableToXml(ColumnarTable(want_ints)));

  auto strings = FrozenSegment::Parse(OneColumnSegment(
      4, ValueType::kString, ColumnEncoding::kDictString,
      DictPayload(2, {0, 1, 2, 0}), {"STAR", "GALAXY"}, {uint64_t{1} << 2}));
  ASSERT_TRUE(strings.ok()) << strings.status().ToString();
  Table want_strings(Schema({{"c", ValueType::kString}}));
  want_strings.AddRow({Value::String("STAR")});
  want_strings.AddRow({Value::String("GALAXY")});
  want_strings.AddRow({Value::Null()});
  want_strings.AddRow({Value::String("STAR")});
  EXPECT_EQ(sql::TableToXml(strings->Thaw()),
            sql::TableToXml(ColumnarTable(want_strings)));
}

TEST(StorageEncodingTest, ParseRejectsWhatFreezeNeverWrites) {
  const std::pair<const char*, std::string> kCases[] = {
      // The NULL sentinel code on a row whose null bit is clear.
      {"sentinel code on a non-NULL row",
       OneColumnSegment(4, ValueType::kString, ColumnEncoding::kDictString,
                        DictPayload(2, {0, 1, 2, 0}), {"STAR", "GALAXY"})},
      {"null bit past the last row",
       OneColumnSegment(4, ValueType::kInt, ColumnEncoding::kDeltaInt,
                        DeltaPayload(4, 0, 2, 3), {}, {uint64_t{1} << 5})},
      {"encoding the declared type cannot hold",
       OneColumnSegment(10, ValueType::kString, ColumnEncoding::kDeltaInt,
                        DeltaPayload(10, 100, 2, 9))},
      {"trailing bytes after the packed payload",
       OneColumnSegment(10, ValueType::kInt, ColumnEncoding::kDeltaInt,
                        DeltaPayload(10, 100, 2, 9) + "x")},
      {"row count past the segment limit",
       OneColumnSegment(kMaxSegmentRows + 1, ValueType::kNull,
                        ColumnEncoding::kAllNull, "")},
  };
  for (const auto& [label, wire] : kCases) {
    SCOPED_TRACE(label);
    EXPECT_FALSE(FrozenSegment::Parse(wire).ok());
  }
}

}  // namespace
}  // namespace fnproxy::storage
