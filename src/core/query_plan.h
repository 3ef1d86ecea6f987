#ifndef FNPROXY_CORE_QUERY_PLAN_H_
#define FNPROXY_CORE_QUERY_PLAN_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/cache_store.h"
#include "geometry/region.h"

namespace fnproxy::core {

/// How the proxy answers one template request (paper §3.2, DESIGN.md §18):
/// the cached slices it reads, the origin request it sends, and where the
/// answer comes from. FunctionProxy::PlanFor (the relationship check), the
/// single-flight follower path and the peer probe each build a plan;
/// FunctionProxy runs every plan through one executor. The default plan is
/// a miss: the original query, no cached slice.
struct QueryPlan {
  /// A cached entry the answer reads: served whole (its region lies inside
  /// the query's) or membership-scanned against the query's region.
  struct Slice {
    std::shared_ptr<const CacheEntry> entry;
    bool scan = false;
  };
  /// The origin request. kRemainder is chosen after the scan: it excludes
  /// the regions of the slices that contributed a tuple, and becomes the
  /// original query when none did and the template has no TOP.
  enum class Origin { kNone, kOriginal, kRemainder };
  /// Where the answer comes from: the cache, a single-flight leader's
  /// entry, or the owning sibling's answer: from its cache, from its
  /// flight, or from its plan's origin trip (a miss that contacted the
  /// origin).
  /// Decides the outcome counter (FunctionProxy::Execute indexes its
  /// counters in this order) and the record's collapsed / peer_hit flags.
  enum class Source { kCache, kLeader, kPeerHit, kPeerFlight, kPeerFetch };

  /// One entry answers the query alone: whole when its region equals the
  /// query's, scanned when it contains it.
  static QueryPlan FromEntry(std::shared_ptr<const CacheEntry> entry,
                             bool scan, Source source = Source::kCache) {
    QueryPlan plan;
    plan.relation = scan ? geometry::RegionRelation::kContainedBy
                         : geometry::RegionRelation::kEqual;
    plan.slices.push_back({std::move(entry), scan});
    plan.origin = Origin::kNone;
    plan.source = source;
    return plan;
  }

  bool from_peer() const {
    return source == Source::kPeerHit || source == Source::kPeerFlight ||
           source == Source::kPeerFetch;
  }
  /// A sibling served the answer without an origin trip.
  bool peer_hit() const {
    return source == Source::kPeerHit || source == Source::kPeerFlight;
  }

  /// The relation a kCache answer counts under; kDisjoint counts a miss.
  /// Under kContains (region containment) the admitted answer replaces
  /// the entries it subsumes, the whole slices.
  geometry::RegionRelation relation = geometry::RegionRelation::kDisjoint;
  std::vector<Slice> slices;
  Origin origin = Origin::kOriginal;
  Source source = Source::kCache;
  /// A sibling's answer comes with its owner's record counts; the executor
  /// copies them into the request's record once it serves that answer.
  uint64_t peer_tuples_total = 0;
  uint64_t peer_tuples_from_cache = 0;
};

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_QUERY_PLAN_H_
