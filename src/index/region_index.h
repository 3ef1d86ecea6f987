#ifndef FNPROXY_INDEX_REGION_INDEX_H_
#define FNPROXY_INDEX_REGION_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/hyperrectangle.h"

namespace fnproxy::index {

/// Identifier of an indexed entry (the proxy uses cache-entry ids).
using EntryId = uint64_t;

/// Spatial index over bounding boxes, the "cache description" structure of
/// the paper (§4.2): the proxy keeps one box per cached query and probes it
/// with a new query's box to find candidate related entries. Two
/// implementations are compared in Figure 5: a plain array (ACNR) and an
/// R-tree (ACR). The proxy's cost model charges description time by the box
/// comparisons each operation counts, which is what makes that comparison
/// observable.
///
/// Threading contract: every operation reports its box comparison count
/// through the `comparisons` out-parameter (the two-argument forms drop
/// it) and the index keeps no hidden mutable state, so
/// `SearchIntersecting` is safe to call from many threads at once on a
/// *frozen* index (no concurrent Insert/Remove). Mutations are never
/// internally synchronized — the sharded CacheStore serializes them with a
/// per-shard writer lock.
class RegionIndex {
 public:
  virtual ~RegionIndex() = default;

  /// Adds an entry. Ids must be unique (not checked). `comparisons` (never
  /// null) receives the number of box comparisons the insert performed.
  virtual void Insert(EntryId id, const geometry::Hyperrectangle& bbox,
                      size_t* comparisons) = 0;

  /// Removes an entry; returns false if the id is unknown.
  virtual bool Remove(EntryId id, size_t* comparisons) = 0;

  /// Ids of all entries whose box intersects `query`.
  virtual std::vector<EntryId> SearchIntersecting(
      const geometry::Hyperrectangle& query, size_t* comparisons) const = 0;

  virtual size_t size() const = 0;

  virtual std::string name() const = 0;

  // --- The same operations without the comparison count. ---

  void Insert(EntryId id, const geometry::Hyperrectangle& bbox) {
    size_t comparisons = 0;
    Insert(id, bbox, &comparisons);
  }

  bool Remove(EntryId id) {
    size_t comparisons = 0;
    return Remove(id, &comparisons);
  }

  std::vector<EntryId> SearchIntersecting(
      const geometry::Hyperrectangle& query) const {
    size_t comparisons = 0;
    return SearchIntersecting(query, &comparisons);
  }
};

}  // namespace fnproxy::index

#endif  // FNPROXY_INDEX_REGION_INDEX_H_
