// Property test for the R-tree cache description: random hyperrectangle
// workloads (insert / erase / window query) are replayed side by side
// against the brute-force ArrayRegionIndex as an oracle; after every
// mutation batch the structural invariants are validated and query results
// must match the oracle exactly. A final section freezes the tree and runs
// concurrent readers — with the comparison counts reported through
// out-parameters, const searches share no mutable state and are race-free
// (proved under -fsanitize=thread in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "geometry/hyperrectangle.h"
#include "index/array_index.h"
#include "index/rtree.h"
#include "util/random.h"

namespace fnproxy::index {
namespace {

using geometry::Hyperrectangle;
using geometry::Point;

Hyperrectangle RandomBox(util::Random& rng, size_t dimensions,
                         double extent, double max_side) {
  Point lo(dimensions), hi(dimensions);
  for (size_t d = 0; d < dimensions; ++d) {
    double a = rng.NextDouble(-extent, extent);
    double side = rng.NextDouble(0.0, max_side);
    lo[d] = a;
    hi[d] = a + side;
  }
  return Hyperrectangle(lo, hi);
}

std::vector<EntryId> Sorted(std::vector<EntryId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// One randomized insert/erase/query replay at the given dimensionality and
/// node capacity.
void RunWorkload(size_t dimensions, size_t max_entries, uint64_t seed) {
  SCOPED_TRACE(std::string("dims=") + std::to_string(dimensions) +
               " M=" + std::to_string(max_entries) +
               " seed=" + std::to_string(seed));
  util::Random rng(seed);
  RTreeIndex rtree(max_entries);
  ArrayRegionIndex oracle;
  std::map<EntryId, Hyperrectangle> live;
  EntryId next_id = 1;

  for (int step = 0; step < 600; ++step) {
    double op = rng.NextDouble();
    if (op < 0.55 || live.empty()) {
      Hyperrectangle box = RandomBox(rng, dimensions, 100.0, 12.0);
      EntryId id = next_id++;
      size_t comparisons = 0;
      rtree.Insert(id, box, &comparisons);
      oracle.Insert(id, box);
      live.emplace(id, box);
    } else if (op < 0.8) {
      // Erase a pseudo-random live id (and occasionally a dead one, which
      // both structures must refuse identically).
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextUint64(live.size())));
      EntryId id = it->first;
      if (rng.NextDouble() < 0.1) id = next_id + 1000;  // Unknown id.
      size_t comparisons = 0;
      bool removed_rtree = rtree.Remove(id, &comparisons);
      bool removed_oracle = oracle.Remove(id);
      ASSERT_EQ(removed_rtree, removed_oracle);
      if (removed_rtree) live.erase(id);
    } else {
      Hyperrectangle query = RandomBox(rng, dimensions, 110.0, 30.0);
      size_t comparisons = 0;
      std::vector<EntryId> got =
          Sorted(rtree.SearchIntersecting(query, &comparisons));
      std::vector<EntryId> want = Sorted(oracle.SearchIntersecting(query));
      ASSERT_EQ(got, want);
    }
    ASSERT_EQ(rtree.size(), live.size());
    if (step % 100 == 99) {
      util::Status status = rtree.Validate();
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }
  util::Status status = rtree.Validate();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(RTreePropertyTest, MatchesArrayOracle2D) {
  RunWorkload(/*dimensions=*/2, /*max_entries=*/8, /*seed=*/11);
  RunWorkload(/*dimensions=*/2, /*max_entries=*/4, /*seed=*/12);
}

TEST(RTreePropertyTest, MatchesArrayOracle3D) {
  RunWorkload(/*dimensions=*/3, /*max_entries=*/8, /*seed=*/21);
  RunWorkload(/*dimensions=*/3, /*max_entries=*/16, /*seed=*/22);
}

TEST(RTreePropertyTest, DegenerateBoxesAndRepeatedRegions) {
  // Zero-volume boxes (points, segments) and many duplicates of one box
  // stress ChooseLeaf/Split tie-breaking.
  RTreeIndex rtree(4);
  ArrayRegionIndex oracle;
  Hyperrectangle dup(Point{1.0, 2.0}, Point{3.0, 4.0});
  for (EntryId id = 1; id <= 40; ++id) {
    size_t comparisons = 0;
    if (id % 2 == 0) {
      rtree.Insert(id, dup, &comparisons);
      oracle.Insert(id, dup);
    } else {
      double v = static_cast<double>(id);
      Hyperrectangle pt(Point{v, v}, Point{v, v});
      rtree.Insert(id, pt, &comparisons);
      oracle.Insert(id, pt);
    }
  }
  util::Status status = rtree.Validate();
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (double x = 0.0; x < 45.0; x += 2.5) {
    Hyperrectangle query(Point{x, x}, Point{x + 4.0, x + 4.0});
    size_t comparisons = 0;
    EXPECT_EQ(Sorted(rtree.SearchIntersecting(query, &comparisons)),
              Sorted(oracle.SearchIntersecting(query)));
  }
}

TEST(RTreePropertyTest, ConcurrentReadersOnFrozenIndex) {
  // Build a frozen tree, then hammer it with parallel window queries while
  // comparing against the oracle: const searches must be bitwise-repeatable
  // and engage no shared mutable state.
  util::Random rng(31);
  RTreeIndex rtree(8);
  ArrayRegionIndex oracle;
  for (EntryId id = 1; id <= 500; ++id) {
    Hyperrectangle box = RandomBox(rng, 2, 100.0, 10.0);
    size_t comparisons = 0;
    rtree.Insert(id, box, &comparisons);
    oracle.Insert(id, box);
  }
  util::Status status = rtree.Validate();
  ASSERT_TRUE(status.ok()) << status.ToString();

  constexpr size_t kReaders = 8;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      util::Random thread_rng(100 + t);  // Deterministic per-thread queries.
      for (int i = 0; i < 300; ++i) {
        Hyperrectangle query = RandomBox(thread_rng, 2, 110.0, 25.0);
        size_t rtree_comparisons = 0, oracle_comparisons = 0;
        std::vector<EntryId> got =
            Sorted(rtree.SearchIntersecting(query, &rtree_comparisons));
        std::vector<EntryId> want =
            Sorted(oracle.SearchIntersecting(query, &oracle_comparisons));
        if (got != want || rtree_comparisons == 0 ||
            oracle_comparisons != 500) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace fnproxy::index
