#ifndef FNPROXY_CORE_HASH_RING_H_
#define FNPROXY_CORE_HASH_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geometry/region.h"

namespace fnproxy::core {

/// Consistent-hash ring mapping each template's region key space onto the
/// proxies of a cooperative tier. Every node contributes `vnodes_per_node`
/// virtual points on a 64-bit ring; a key is owned by the node whose virtual
/// point follows the key's hash clockwise. Adding or removing one node
/// therefore remaps only the ~1/N of keys that fall between the moved
/// virtual points — all other keys keep their owner (the minimal-remapping
/// invariant checked by tests/hash_ring_property_test).
///
/// The ring is configured once at tier construction and then only read, so
/// lookups take no lock. Mutating the ring invalidates pointers returned by
/// Owner().
class HashRing {
 public:
  explicit HashRing(size_t vnodes_per_node = 128);

  void AddNode(const std::string& node_id);
  void RemoveNode(const std::string& node_id);
  bool HasNode(std::string_view node_id) const;

  /// Owner of the given key, or nullptr when the ring is empty. The pointer
  /// stays valid until the next AddNode/RemoveNode.
  const std::string* Owner(std::string_view key) const;
  const std::string* OwnerForHash(uint64_t hash) const;

  /// FNV-1a over the bytes followed by a splitmix64 finalizer so short,
  /// similar keys (e.g. "proxy-0#17" vs "proxy-0#18") still land far apart.
  static uint64_t HashKey(std::string_view key);

  size_t num_nodes() const { return nodes_.size(); }
  size_t vnodes_per_node() const { return vnodes_per_node_; }
  const std::vector<std::string>& nodes() const { return nodes_; }

 private:
  size_t vnodes_per_node_;
  std::vector<std::string> nodes_;
  /// Sorted by hash; each virtual point carries a copy of its node id.
  std::vector<std::pair<uint64_t, std::string>> ring_;
};

/// Ownership key for a query region: the template id, the non-spatial
/// parameter fingerprint, and the region's bounding-box center quantized to
/// a grid of `cell_size` per dimension. Exact repeats hash identically, and
/// a concentric contained variant (same center, smaller radius) maps to the
/// same owner as its subsuming entry, so peer lookups find the covering
/// entry where the owner's fetch admitted it.
std::string RegionOwnershipKey(std::string_view template_id,
                               std::string_view nonspatial_fingerprint,
                               const geometry::Region& region,
                               double cell_size);

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_HASH_RING_H_
