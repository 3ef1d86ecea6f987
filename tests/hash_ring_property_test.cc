// Property suite for the consistent-hash ring behind the cooperative tier:
// key distribution stays balanced across 2..8 nodes at 128 vnodes/node, and
// membership changes obey the minimal-remapping invariant — adding or
// removing one node only moves the keys that node gains or loses, roughly
// 1/N of the key space, while every other key keeps its owner.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/hash_ring.h"
#include "geometry/celestial.h"
#include "geometry/hypersphere.h"

namespace fnproxy {
namespace {

using core::HashRing;

constexpr size_t kSampleKeys = 100000;
constexpr size_t kVnodes = 128;

std::string SampleKey(size_t i) {
  return std::string("radial|fp") + std::to_string(i % 7) + "|key-" +
         std::to_string(i);
}

std::string NodeId(size_t i) {
  return std::string("proxy-") + std::to_string(i);
}

std::map<std::string, size_t> OwnedCounts(const HashRing& ring) {
  std::map<std::string, size_t> counts;
  for (const std::string& node : ring.nodes()) counts[node] = 0;
  for (size_t i = 0; i < kSampleKeys; ++i) {
    const std::string* owner = ring.Owner(SampleKey(i));
    if (owner == nullptr) {
      ADD_FAILURE() << "ring with nodes must own every key";
      continue;
    }
    ++counts[*owner];
  }
  return counts;
}

TEST(HashRingProperty, EmptyRingOwnsNothing) {
  HashRing ring(kVnodes);
  EXPECT_EQ(ring.Owner("anything"), nullptr);
  EXPECT_EQ(ring.num_nodes(), 0u);
}

TEST(HashRingProperty, SingleNodeOwnsEverything) {
  HashRing ring(kVnodes);
  ring.AddNode("proxy-0");
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(*ring.Owner(SampleKey(i)), "proxy-0");
  }
}

// With 128 vnodes per node the owned shares stay within a modest factor of
// each other for every tier size the bench sweeps. The classic analysis
// bounds max/mean by O(log N / vnodes); empirically at 128 vnodes the
// max/min ratio sits well under 2, so 2.5 leaves deterministic headroom
// without letting real skew through.
TEST(HashRingProperty, BalancedDistributionAcrossTierSizes) {
  for (size_t n = 2; n <= 8; ++n) {
    HashRing ring(kVnodes);
    for (size_t i = 0; i < n; ++i) ring.AddNode(NodeId(i));
    std::map<std::string, size_t> counts;
    for (const auto& [node, count] : OwnedCounts(ring)) counts[node] = count;
    ASSERT_EQ(counts.size(), n);
    size_t min_owned = kSampleKeys, max_owned = 0;
    for (const auto& [node, count] : counts) {
      EXPECT_GT(count, 0u) << node << " owns nothing at n=" << n;
      min_owned = std::min(min_owned, count);
      max_owned = std::max(max_owned, count);
    }
    EXPECT_LT(static_cast<double>(max_owned),
              2.5 * static_cast<double>(min_owned))
        << "tier of " << n << ": max=" << max_owned << " min=" << min_owned;
    // Every node's share is within [0.4x, 2x] of the fair share.
    const double fair = static_cast<double>(kSampleKeys) / n;
    for (const auto& [node, count] : counts) {
      EXPECT_GT(static_cast<double>(count), 0.4 * fair) << node << " n=" << n;
      EXPECT_LT(static_cast<double>(count), 2.0 * fair) << node << " n=" << n;
    }
  }
}

// Adding one node moves exactly the keys the new node now owns — every key
// that changed owner changed TO the new node, and the moved fraction is
// about 1/(N+1) of the key space.
TEST(HashRingProperty, AddingNodeMovesOnlyItsShare) {
  for (size_t n = 2; n <= 8; ++n) {
    HashRing ring(kVnodes);
    for (size_t i = 0; i < n; ++i) ring.AddNode(NodeId(i));
    std::vector<std::string> before(kSampleKeys);
    for (size_t i = 0; i < kSampleKeys; ++i) {
      before[i] = *ring.Owner(SampleKey(i));
    }
    const std::string added = NodeId(n);
    ring.AddNode(added);
    size_t moved = 0;
    for (size_t i = 0; i < kSampleKeys; ++i) {
      const std::string& after = *ring.Owner(SampleKey(i));
      if (after != before[i]) {
        ++moved;
        ASSERT_EQ(after, added)
            << "key " << i << " moved between pre-existing nodes at n=" << n;
      }
    }
    const double expected = static_cast<double>(kSampleKeys) / (n + 1);
    EXPECT_GT(static_cast<double>(moved), 0.5 * expected) << "n=" << n;
    EXPECT_LT(static_cast<double>(moved), 2.0 * expected) << "n=" << n;
  }
}

// Removing one node moves exactly the keys it owned; everything else stays.
TEST(HashRingProperty, RemovingNodeMovesOnlyItsKeys) {
  for (size_t n = 3; n <= 8; ++n) {
    HashRing ring(kVnodes);
    for (size_t i = 0; i < n; ++i) ring.AddNode(NodeId(i));
    std::vector<std::string> before(kSampleKeys);
    for (size_t i = 0; i < kSampleKeys; ++i) {
      before[i] = *ring.Owner(SampleKey(i));
    }
    const std::string removed = NodeId(n / 2);
    ring.RemoveNode(removed);
    EXPECT_FALSE(ring.HasNode(removed));
    for (size_t i = 0; i < kSampleKeys; ++i) {
      const std::string& after = *ring.Owner(SampleKey(i));
      if (before[i] == removed) {
        ASSERT_NE(after, removed);
      } else {
        ASSERT_EQ(after, before[i])
            << "key " << i << " moved although its owner survived, n=" << n;
      }
    }
  }
}

// Round trip: removing the node just added restores every assignment.
TEST(HashRingProperty, AddThenRemoveRestoresOwnership) {
  HashRing ring(kVnodes);
  for (size_t i = 0; i < 4; ++i) ring.AddNode(NodeId(i));
  std::vector<std::string> before(kSampleKeys);
  for (size_t i = 0; i < kSampleKeys; ++i) {
    before[i] = *ring.Owner(SampleKey(i));
  }
  ring.AddNode(NodeId(4));
  ring.RemoveNode(NodeId(4));
  for (size_t i = 0; i < kSampleKeys; ++i) {
    ASSERT_EQ(*ring.Owner(SampleKey(i)), before[i]);
  }
}

TEST(HashRingProperty, OwnershipKeyQuantizesConcentricRegions) {
  geometry::Hypersphere big =
      geometry::ConeToHypersphere(180.0, 10.0, /*radius_arcmin=*/30.0);
  geometry::Hypersphere small =
      geometry::ConeToHypersphere(180.0, 10.0, /*radius_arcmin=*/5.0);
  geometry::Hypersphere far =
      geometry::ConeToHypersphere(90.0, -30.0, /*radius_arcmin=*/30.0);
  const std::string key_big = core::RegionOwnershipKey("radial", "fp", big,
                                                       /*cell_size=*/0.05);
  const std::string key_small = core::RegionOwnershipKey("radial", "fp", small,
                                                         /*cell_size=*/0.05);
  const std::string key_far = core::RegionOwnershipKey("radial", "fp", far,
                                                       /*cell_size=*/0.05);
  // Same center: a contained concentric variant shares its container's
  // owner, so a peer lookup lands where the covering entry was pushed.
  EXPECT_EQ(key_big, key_small);
  EXPECT_NE(key_big, key_far);
  // The non-spatial fingerprint partitions the key space.
  EXPECT_NE(key_big,
            core::RegionOwnershipKey("radial", "fp2", big, 0.05));
  EXPECT_NE(key_big, core::RegionOwnershipKey("rect", "fp", big, 0.05));
}

}  // namespace
}  // namespace fnproxy
