#include <gtest/gtest.h>

#include "core/relationship.h"
#include "geometry/hypersphere.h"
#include "index/array_index.h"

namespace fnproxy::core {
namespace {

using geometry::Hypersphere;
using geometry::RegionRelation;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

CacheEntry MakeEntry(double x, double radius,
                     const std::string& template_id = "radial",
                     const std::string& nonspatial = "",
                     bool truncated = false) {
  CacheEntry entry;
  entry.template_id = template_id;
  entry.nonspatial_fingerprint = nonspatial;
  entry.region =
      std::make_unique<Hypersphere>(geometry::Point{x, 0.0}, radius);
  entry.result = Table(Schema({{"x", ValueType::kDouble}}));
  entry.truncated = truncated;
  return entry;
}

class RelationshipTest : public ::testing::Test {
 protected:
  RelationshipTest()
      : store_([] { return std::make_unique<index::ArrayRegionIndex>(); },
               /*num_shards=*/1, 0, ReplacementPolicy::kLru) {}

  RelationshipResult Check(double x, double radius,
                           const std::string& nonspatial = "") {
    Hypersphere query({x, 0.0}, radius);
    return CheckRelationship(store_, "radial", nonspatial, query);
  }

  CacheStore store_;
};

TEST_F(RelationshipTest, EmptyCacheIsDisjoint) {
  RelationshipResult result = Check(0, 1);
  EXPECT_EQ(result.status, RegionRelation::kDisjoint);
  EXPECT_EQ(result.regions_checked, 0u);
}

TEST_F(RelationshipTest, ExactMatchWins) {
  store_.Insert(MakeEntry(0, 1));
  store_.Insert(MakeEntry(0, 2));  // Contains the query too.
  RelationshipResult result = Check(0, 1);
  EXPECT_EQ(result.status, RegionRelation::kEqual);
  EXPECT_NE(result.matched, nullptr);
}

TEST_F(RelationshipTest, ContainmentDetected) {
  store_.Insert(MakeEntry(0, 2));
  RelationshipResult result = Check(0.5, 1);
  EXPECT_EQ(result.status, RegionRelation::kContainedBy);
  ASSERT_NE(result.matched, nullptr);
  EXPECT_NE(store_.Find(result.matched->id), nullptr);
}

TEST_F(RelationshipTest, RegionContainmentCollectsAllContained) {
  store_.Insert(MakeEntry(-2, 0.5));
  store_.Insert(MakeEntry(2, 0.5));
  store_.Insert(MakeEntry(50, 0.5));  // Far away.
  RelationshipResult result = Check(0, 4);
  EXPECT_EQ(result.status, RegionRelation::kContains);
  EXPECT_EQ(result.contained.size(), 2u);
}

TEST_F(RelationshipTest, OverlapCollected) {
  store_.Insert(MakeEntry(1.5, 1));
  RelationshipResult result = Check(0, 1);
  EXPECT_EQ(result.status, RegionRelation::kOverlap);
  EXPECT_EQ(result.overlapping.size(), 1u);
}

TEST_F(RelationshipTest, MixedContainsAndOverlapReportsContains) {
  store_.Insert(MakeEntry(0.5, 0.5));  // Inside the query.
  store_.Insert(MakeEntry(3.5, 1.0));  // Partially overlapping.
  RelationshipResult result = Check(0, 3);
  EXPECT_EQ(result.status, RegionRelation::kContains);
  EXPECT_EQ(result.contained.size(), 1u);
  EXPECT_EQ(result.overlapping.size(), 1u);
}

TEST_F(RelationshipTest, DifferentTemplateIgnored) {
  store_.Insert(MakeEntry(0, 1, "rect"));
  RelationshipResult result = Check(0, 1);
  EXPECT_EQ(result.status, RegionRelation::kDisjoint);
}

TEST_F(RelationshipTest, DifferentNonSpatialFingerprintIgnored) {
  store_.Insert(MakeEntry(0, 1, "radial", "maxmag=20;"));
  RelationshipResult result = Check(0, 1, "maxmag=21;");
  EXPECT_EQ(result.status, RegionRelation::kDisjoint);
  RelationshipResult matching = Check(0, 1, "maxmag=20;");
  EXPECT_EQ(matching.status, RegionRelation::kEqual);
}

TEST_F(RelationshipTest, TruncatedEntriesOnlyServeExactMatches) {
  store_.Insert(MakeEntry(0, 2, "radial", "", /*truncated=*/true));
  // Containment in a truncated entry must not be claimed.
  EXPECT_EQ(Check(0.5, 1).status, RegionRelation::kDisjoint);
  // Region containment over truncated entries must not be claimed.
  EXPECT_EQ(Check(0, 5).status, RegionRelation::kDisjoint);
  // Exact match is still fine (same query, same deterministic result).
  EXPECT_EQ(Check(0, 2).status, RegionRelation::kEqual);
}

TEST_F(RelationshipTest, WorkAccountingReported) {
  for (int i = 0; i < 10; ++i) {
    store_.Insert(MakeEntry(i * 1.5, 1.0));
  }
  RelationshipResult result = Check(5, 1);
  EXPECT_GT(result.description_comparisons, 0u);
  EXPECT_GT(result.regions_checked, 0u);
  EXPECT_LE(result.regions_checked, 10u);
}

TEST_F(RelationshipTest, DisjointWhenCandidateBoxesOverlapButRegionsDoNot) {
  // Bounding boxes of spheres at distance sqrt(2) with radius ~1 overlap in
  // the corner, the spheres themselves don't.
  store_.Insert(MakeEntry(0, 1));
  // Query bbox [0.85, 2.35]^2 overlaps the entry bbox [-1, 1]^2 at the
  // corner; the spheres are sqrt(2)*1.6 ~ 2.26 apart > 1.75.
  Hypersphere query({1.6, 1.6}, 0.75);
  RelationshipResult result =
      CheckRelationship(store_, "radial", "", query);
  EXPECT_EQ(result.status, RegionRelation::kDisjoint);
  EXPECT_GE(result.regions_checked, 1u);  // The box probe found a candidate.
}

}  // namespace
}  // namespace fnproxy::core
