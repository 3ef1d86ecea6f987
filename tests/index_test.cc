#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "index/array_index.h"
#include "index/rtree.h"
#include "util/random.h"

namespace fnproxy::index {
namespace {

using geometry::Hyperrectangle;

Hyperrectangle RandomBox(util::Random& rng, int dims) {
  geometry::Point lo(static_cast<size_t>(dims)), hi(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    double a = rng.NextDouble(0, 100);
    double w = rng.NextDouble(0.1, 5);
    lo[static_cast<size_t>(d)] = a;
    hi[static_cast<size_t>(d)] = a + w;
  }
  return Hyperrectangle(lo, hi);
}

std::set<EntryId> Sorted(std::vector<EntryId> ids) {
  return std::set<EntryId>(ids.begin(), ids.end());
}

/// Both index implementations run the same behavioural suite.
class RegionIndexTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<RegionIndex> MakeIndex() const {
    if (GetParam()) return std::make_unique<RTreeIndex>();
    return std::make_unique<ArrayRegionIndex>();
  }
};

TEST_P(RegionIndexTest, EmptySearch) {
  auto index = MakeIndex();
  EXPECT_EQ(index->size(), 0u);
  EXPECT_TRUE(index->SearchIntersecting(Hyperrectangle({0, 0}, {1, 1})).empty());
}

TEST_P(RegionIndexTest, InsertAndFind) {
  auto index = MakeIndex();
  index->Insert(1, Hyperrectangle({0, 0}, {1, 1}));
  index->Insert(2, Hyperrectangle({5, 5}, {6, 6}));
  EXPECT_EQ(index->size(), 2u);
  auto hits = Sorted(index->SearchIntersecting(Hyperrectangle({0.5, 0.5}, {5.5, 5.5})));
  EXPECT_EQ(hits, (std::set<EntryId>{1, 2}));
  hits = Sorted(index->SearchIntersecting(Hyperrectangle({2, 2}, {3, 3})));
  EXPECT_TRUE(hits.empty());
}

TEST_P(RegionIndexTest, RemoveExistingAndMissing) {
  auto index = MakeIndex();
  index->Insert(1, Hyperrectangle({0, 0}, {1, 1}));
  EXPECT_TRUE(index->Remove(1));
  EXPECT_FALSE(index->Remove(1));
  EXPECT_FALSE(index->Remove(99));
  EXPECT_EQ(index->size(), 0u);
}

TEST_P(RegionIndexTest, TouchingBoxesIntersect) {
  auto index = MakeIndex();
  index->Insert(1, Hyperrectangle({0, 0}, {1, 1}));
  auto hits = index->SearchIntersecting(Hyperrectangle({1, 1}, {2, 2}));
  EXPECT_EQ(hits.size(), 1u);
}

TEST_P(RegionIndexTest, ManyEntriesAllFound) {
  auto index = MakeIndex();
  for (EntryId id = 0; id < 500; ++id) {
    double x = static_cast<double>(id % 25) * 10;
    double y = static_cast<double>(id / 25) * 10;
    index->Insert(id, Hyperrectangle({x, y}, {x + 1, y + 1}));
  }
  EXPECT_EQ(index->size(), 500u);
  auto all = index->SearchIntersecting(Hyperrectangle({-1, -1}, {300, 300}));
  EXPECT_EQ(all.size(), 500u);
}

INSTANTIATE_TEST_SUITE_P(ArrayAndRTree, RegionIndexTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "RTree" : "Array";
                         });

/// Property test: random insert/remove/search streams on the R-tree agree
/// with the trivially correct array index, and invariants hold throughout.
class RTreeEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeEquivalenceTest, MatchesArrayReference) {
  int dims = GetParam();
  util::Random rng(static_cast<uint64_t>(900 + dims));
  RTreeIndex rtree(8);
  ArrayRegionIndex reference;
  std::map<EntryId, Hyperrectangle> live;
  EntryId next_id = 1;

  for (int step = 0; step < 3000; ++step) {
    double action = rng.NextDouble();
    if (action < 0.55 || live.empty()) {
      Hyperrectangle box = RandomBox(rng, dims);
      EntryId id = next_id++;
      rtree.Insert(id, box);
      reference.Insert(id, box);
      live.emplace(id, box);
    } else if (action < 0.8) {
      // Remove a random live entry.
      auto it = live.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextUint64(live.size())));
      EXPECT_TRUE(rtree.Remove(it->first));
      EXPECT_TRUE(reference.Remove(it->first));
      live.erase(it);
    } else {
      Hyperrectangle query = RandomBox(rng, dims);
      EXPECT_EQ(Sorted(rtree.SearchIntersecting(query)),
                Sorted(reference.SearchIntersecting(query)))
          << "diverged at step " << step;
    }
    if (step % 250 == 0) {
      auto status = rtree.Validate();
      EXPECT_TRUE(status.ok()) << status.ToString() << " at step " << step;
      EXPECT_EQ(rtree.size(), live.size());
    }
  }
  auto status = rtree.Validate();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(Dims, RTreeEquivalenceTest, ::testing::Values(2, 3));

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTreeIndex rtree(8);
  util::Random rng(42);
  for (EntryId id = 0; id < 2000; ++id) {
    rtree.Insert(id, RandomBox(rng, 2));
  }
  EXPECT_TRUE(rtree.Validate().ok());
  // 2000 entries with fanout >= 3 must fit in few levels.
  EXPECT_LE(rtree.Height(), 8u);
  EXPECT_GE(rtree.Height(), 3u);
}

TEST(RTreeTest, DrainToEmptyAndReuse) {
  RTreeIndex rtree(8);
  util::Random rng(43);
  std::vector<Hyperrectangle> boxes;
  for (EntryId id = 0; id < 300; ++id) {
    boxes.push_back(RandomBox(rng, 2));
    rtree.Insert(id, boxes.back());
  }
  for (EntryId id = 0; id < 300; ++id) {
    EXPECT_TRUE(rtree.Remove(id)) << id;
  }
  EXPECT_EQ(rtree.size(), 0u);
  EXPECT_TRUE(rtree.Validate().ok());
  rtree.Insert(999, boxes[0]);
  EXPECT_EQ(rtree.SearchIntersecting(boxes[0]).size(), 1u);
}

TEST(RTreeTest, SearchVisitsFewerBoxesThanArrayOnClusteredData) {
  RTreeIndex rtree(8);
  ArrayRegionIndex array;
  // Well-separated clusters: the R-tree should prune whole subtrees.
  for (EntryId id = 0; id < 400; ++id) {
    double cx = static_cast<double>(id % 4) * 1000;
    double cy = static_cast<double>(id / 4);
    Hyperrectangle box({cx, cy}, {cx + 1, cy + 1});
    rtree.Insert(id, box);
    array.Insert(id, box);
  }
  Hyperrectangle probe({-10.0, -10.0}, {50.0, 120.0});
  size_t rtree_comparisons = 0;
  auto rtree_hits = rtree.SearchIntersecting(probe, &rtree_comparisons);
  size_t array_comparisons = 0;
  auto array_hits = array.SearchIntersecting(probe, &array_comparisons);
  EXPECT_EQ(Sorted(rtree_hits), Sorted(array_hits));
  EXPECT_LT(rtree_comparisons, array_comparisons);
}

TEST(ArrayIndexTest, ComparisonAccountingIsLinear) {
  ArrayRegionIndex array;
  for (EntryId id = 0; id < 100; ++id) {
    array.Insert(id, Hyperrectangle({static_cast<double>(id), 0},
                                    {static_cast<double>(id) + 1, 1}));
  }
  size_t comparisons = 0;
  array.SearchIntersecting(Hyperrectangle({0, 0}, {5, 5}), &comparisons);
  EXPECT_EQ(comparisons, 100u);
}

}  // namespace
}  // namespace fnproxy::index
