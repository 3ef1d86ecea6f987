#ifndef FNPROXY_GEOMETRY_REGION_H_
#define FNPROXY_GEOMETRY_REGION_H_

#include <memory>
#include <string>

#include "geometry/point.h"

namespace fnproxy::geometry {

class Hyperrectangle;

/// The region shapes a function template may declare (paper §3.1, property 2:
/// "hypercube (most common), a hypersphere, or even a polytope"). The values
/// are the shape byte of a snapshot entry's region (docs/FORMATS.md §13.2).
enum class ShapeKind { kHyperrectangle = 0, kHypersphere = 1, kPolytope = 2 };

const char* ShapeKindName(ShapeKind kind);

/// A convex region of d-dimensional space. A table-valued function with
/// spatial region selection semantics returns exactly the catalog points
/// inside such a region; the proxy reasons about query relationships purely
/// through these objects.
class Region {
 public:
  virtual ~Region() = default;

  virtual ShapeKind kind() const = 0;
  /// Dimensionality d of the space this region lives in.
  virtual size_t dimensions() const = 0;
  /// True if `p` lies inside the region (boundary included, within
  /// kGeomEpsilon). The tolerant test the relationship checks build on.
  virtual bool ContainsPoint(const Point& p) const = 0;
  /// True if `p` lies inside the region under exact comparisons (boundary
  /// included, no tolerance): the tuple-selection predicate, matching the
  /// origin's table functions, which compare exactly.
  virtual bool ContainsPointExact(const Point& p) const = 0;
  /// Smallest axis-aligned box enclosing the region.
  virtual Hyperrectangle BoundingBox() const = 0;
  /// The point of the region furthest in direction `dir` (support function,
  /// used by the GJK intersection test).
  virtual Point Support(const Point& dir) const = 0;
  /// Deep copy.
  virtual std::unique_ptr<Region> Clone() const = 0;
  /// Human-readable form for logs and error messages.
  virtual std::string ToString() const = 0;
};

/// Relationship of a new query region N to a cached query region C
/// (paper §3.2 cases a-d, with region containment as case c's special case).
enum class RegionRelation {
  kEqual,        ///< N and C describe the same region (exact match, case a).
  kContainedBy,  ///< N is inside C (query containment, case b).
  kContains,     ///< N strictly contains C (region containment side of case c).
  kOverlap,      ///< N and C partially overlap (case c).
  kDisjoint,     ///< N and C share no point (case d).
};

const char* RegionRelationName(RegionRelation relation);

/// True if the two regions cover the same point set (within tolerance).
bool Equals(const Region& a, const Region& b);

/// True if every point of `inner` lies in `outer` (within tolerance).
/// Exact for every shape pair: containment claims drive local evaluation of
/// subsumed queries, so false positives here would produce wrong answers.
bool Contains(const Region& outer, const Region& inner);

/// True if the regions share at least one point. Exact for
/// rectangle/sphere pairs; for polytope pairs it is decided by GJK, which is
/// exact for convex bodies up to the numeric tolerance.
bool Intersects(const Region& a, const Region& b);

/// Classifies the relationship of `new_region` to `cached_region`.
RegionRelation Relate(const Region& new_region, const Region& cached_region);

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_REGION_H_
