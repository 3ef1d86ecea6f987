#include <gtest/gtest.h>

#include <cmath>

#include "catalog/book_catalog.h"
#include "catalog/sky_catalog.h"
#include "geometry/celestial.h"

namespace fnproxy::catalog {
namespace {

using sql::ColumnarTable;
using sql::Table;
using sql::Value;

SkyCatalogConfig SmallSky() {
  SkyCatalogConfig config;
  config.num_objects = 5000;
  config.num_clusters = 8;
  config.seed = 123;
  return config;
}

TEST(SkyCatalogTest, SchemaMatchesDeclared) {
  ColumnarTable table = GenerateSkyCatalog(SmallSky());
  EXPECT_TRUE(table.schema().SameColumns(SkyCatalogSchema()));
  EXPECT_EQ(table.num_rows(), 5000u);
  // Every column is stored as its declared type, without NULLs.
  for (size_t col = 0; col < table.num_columns(); ++col) {
    EXPECT_EQ(table.storage_kind(col),
              table.schema().column(col).type == sql::ValueType::kInt
                  ? ColumnarTable::StorageKind::kInt
                  : ColumnarTable::StorageKind::kDouble);
    size_t null_words = 0;
    EXPECT_EQ(table.RawNullBits(col, &null_words), nullptr);
  }
}

TEST(SkyCatalogTest, DeterministicInSeed) {
  ColumnarTable a = GenerateSkyCatalog(SmallSky());
  ColumnarTable b = GenerateSkyCatalog(SmallSky());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(a.CellValue(i, 1).EqualsValue(b.CellValue(i, 1)));
    EXPECT_TRUE(a.CellValue(i, 12).EqualsValue(b.CellValue(i, 12)));
  }
  SkyCatalogConfig other = SmallSky();
  other.seed = 124;
  ColumnarTable c = GenerateSkyCatalog(other);
  bool differs = false;
  for (size_t i = 0; i < 100 && !differs; ++i) {
    differs = !a.CellValue(i, 1).EqualsValue(c.CellValue(i, 1));
  }
  EXPECT_TRUE(differs);
}

TEST(SkyCatalogTest, ObjectsInsideFootprint) {
  SkyCatalogConfig config = SmallSky();
  ColumnarTable table = GenerateSkyCatalog(config);
  auto ra_idx = *table.schema().FindColumn("ra");
  auto dec_idx = *table.schema().FindColumn("dec");
  for (size_t row = 0; row < table.num_rows(); ++row) {
    double ra = table.CellDouble(row, ra_idx);
    double dec = table.CellDouble(row, dec_idx);
    EXPECT_GE(ra, config.ra_min);
    EXPECT_LE(ra, config.ra_max);
    EXPECT_GE(dec, config.dec_min);
    EXPECT_LE(dec, config.dec_max);
  }
}

TEST(SkyCatalogTest, UnitVectorsMatchRaDec) {
  ColumnarTable table = GenerateSkyCatalog(SmallSky());
  const auto& schema = table.schema();
  size_t ra = *schema.FindColumn("ra"), dec = *schema.FindColumn("dec");
  size_t cx = *schema.FindColumn("cx"), cy = *schema.FindColumn("cy"),
         cz = *schema.FindColumn("cz");
  for (size_t i = 0; i < 200; ++i) {
    geometry::Point expected = geometry::RaDecToUnitVector(
        table.CellDouble(i, ra), table.CellDouble(i, dec));
    EXPECT_NEAR(table.CellDouble(i, cx), expected[0], 1e-12);
    EXPECT_NEAR(table.CellDouble(i, cy), expected[1], 1e-12);
    EXPECT_NEAR(table.CellDouble(i, cz), expected[2], 1e-12);
  }
}

TEST(SkyCatalogTest, ClusteringConcentratesObjects) {
  SkyCatalogConfig config = SmallSky();
  config.num_objects = 20000;
  std::vector<std::pair<double, double>> centers;
  ColumnarTable table = GenerateSkyCatalog(config, &centers);
  ASSERT_EQ(centers.size(), config.num_clusters);
  // Count objects within 2 sigma of any cluster center; with 70% clustered
  // this should be far above the uniform expectation.
  size_t ra = *table.schema().FindColumn("ra");
  size_t dec = *table.schema().FindColumn("dec");
  size_t near_cluster = 0;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (const auto& [cra, cdec] : centers) {
      double dr = table.CellDouble(row, ra) - cra;
      double dd = table.CellDouble(row, dec) - cdec;
      if (std::sqrt(dr * dr + dd * dd) < 2 * config.cluster_sigma_deg) {
        ++near_cluster;
        break;
      }
    }
  }
  double fraction = static_cast<double>(near_cluster) /
                    static_cast<double>(table.num_rows());
  EXPECT_GT(fraction, 0.5);
}

TEST(SkyCatalogTest, TypesAreGalaxyOrStar) {
  ColumnarTable table = GenerateSkyCatalog(SmallSky());
  size_t type = *table.schema().FindColumn("type");
  for (size_t row = 0; row < table.num_rows(); ++row) {
    int64_t t = table.CellInt(row, type);
    EXPECT_TRUE(t == 3 || t == 6);
  }
}

TEST(PhotoFlagTest, KnownFlagsResolve) {
  EXPECT_EQ(*PhotoFlagValue("SATURATED"), 0x40000);
  EXPECT_EQ(*PhotoFlagValue("saturated"), 0x40000);  // Case-insensitive.
  EXPECT_EQ(*PhotoFlagValue("BRIGHT"), 0x2);
  EXPECT_FALSE(PhotoFlagValue("NOT_A_FLAG").ok());
}

TEST(PhotoFlagTest, SomeObjectsSaturated) {
  ColumnarTable table = GenerateSkyCatalog(SmallSky());
  size_t flags = *table.schema().FindColumn("flags");
  size_t saturated = 0;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (table.CellInt(row, flags) & 0x40000) ++saturated;
  }
  // ~5% expected.
  EXPECT_GT(saturated, 100u);
  EXPECT_LT(saturated, 600u);
}

TEST(BookCatalogTest, SchemaAndDeterminism) {
  BookCatalogConfig config;
  config.num_books = 2000;
  Table a = GenerateBookCatalog(config);
  Table b = GenerateBookCatalog(config);
  EXPECT_TRUE(a.schema().SameColumns(BookCatalogSchema()));
  EXPECT_EQ(a.num_rows(), 2000u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(a.row(i)[3].EqualsValue(b.row(i)[3]));
  }
}

TEST(BookCatalogTest, FeatureCoordinatesNormalized) {
  BookCatalogConfig config;
  config.num_books = 3000;
  Table table = GenerateBookCatalog(config);
  for (const char* col : {"f1", "f2", "f3"}) {
    size_t idx = *table.schema().FindColumn(col);
    for (const auto& row : table.rows()) {
      EXPECT_GE(row[idx].AsDouble(), 0.0);
      EXPECT_LE(row[idx].AsDouble(), 1.0);
    }
  }
}

TEST(BookCatalogTest, GenresWithinRange) {
  BookCatalogConfig config;
  config.num_books = 1000;
  config.num_genres = 5;
  Table table = GenerateBookCatalog(config);
  size_t genre = *table.schema().FindColumn("genre");
  for (const auto& row : table.rows()) {
    EXPECT_LT(row[genre].AsInt(), 5);
    EXPECT_GE(row[genre].AsInt(), 0);
  }
}

}  // namespace
}  // namespace fnproxy::catalog
