#include "geometry/region.h"

#include <cassert>
#include <cmath>

#include "geometry/gjk.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"

namespace fnproxy::geometry {

const char* ShapeKindName(ShapeKind kind) {
  switch (kind) {
    case ShapeKind::kHyperrectangle:
      return "hyperrectangle";
    case ShapeKind::kHypersphere:
      return "hypersphere";
    case ShapeKind::kPolytope:
      return "polytope";
  }
  return "unknown";
}

const char* RegionRelationName(RegionRelation relation) {
  switch (relation) {
    case RegionRelation::kEqual:
      return "equal";
    case RegionRelation::kContainedBy:
      return "contained-by";
    case RegionRelation::kContains:
      return "contains";
    case RegionRelation::kOverlap:
      return "overlap";
    case RegionRelation::kDisjoint:
      return "disjoint";
  }
  return "unknown";
}

namespace {

bool PointsNearlyEqual(const Point& a, const Point& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!NearlyEqual(a[i], b[i])) return false;
  }
  return true;
}

/// Containment of a sphere in a rectangle: per-axis interval check.
bool RectContainsSphere(const Hyperrectangle& rect, const Hypersphere& sphere) {
  for (size_t i = 0; i < rect.dimensions(); ++i) {
    if (sphere.center()[i] - sphere.radius() < rect.lo()[i] - kGeomEpsilon ||
        sphere.center()[i] + sphere.radius() > rect.hi()[i] + kGeomEpsilon) {
      return false;
    }
  }
  return true;
}

/// Containment of a sphere in a polytope: the sphere fits iff for every
/// halfspace n.x <= b the center clears the plane by at least r*|n|.
bool PolytopeContainsSphere(const Polytope& poly, const Hypersphere& sphere) {
  for (const Halfspace& h : poly.halfspaces()) {
    double norm = Norm(h.normal);
    if (Dot(h.normal, sphere.center()) + sphere.radius() * norm >
        h.offset + kGeomEpsilon * (1.0 + norm)) {
      return false;
    }
  }
  return true;
}

/// True when every point of `points` lies in `outer`.
bool ContainsAllPoints(const Region& outer, const std::vector<Point>& points) {
  for (const Point& p : points) {
    if (!outer.ContainsPoint(p)) return false;
  }
  return true;
}

}  // namespace

bool Equals(const Region& a, const Region& b) {
  if (a.dimensions() != b.dimensions()) return false;
  if (a.kind() == b.kind()) {
    switch (a.kind()) {
      case ShapeKind::kHyperrectangle: {
        const auto& ra = static_cast<const Hyperrectangle&>(a);
        const auto& rb = static_cast<const Hyperrectangle&>(b);
        return PointsNearlyEqual(ra.lo(), rb.lo()) &&
               PointsNearlyEqual(ra.hi(), rb.hi());
      }
      case ShapeKind::kHypersphere: {
        const auto& sa = static_cast<const Hypersphere&>(a);
        const auto& sb = static_cast<const Hypersphere&>(b);
        return SpheresEqual(sa.center(), sa.radius(), sb.center(),
                            sb.radius());
      }
      case ShapeKind::kPolytope:
        break;  // Fall through to the mutual-containment test.
    }
  }
  return Contains(a, b) && Contains(b, a);
}

bool Contains(const Region& outer, const Region& inner) {
  if (outer.dimensions() != inner.dimensions()) return false;

  // Dispatch on the *inner* shape first: rectangles and polytopes are
  // checked through their (finitely many) extreme points, which is exact for
  // any convex outer region.
  switch (inner.kind()) {
    case ShapeKind::kHyperrectangle: {
      const auto& rect = static_cast<const Hyperrectangle&>(inner);
      if (outer.kind() == ShapeKind::kHyperrectangle) {
        return static_cast<const Hyperrectangle&>(outer).ContainsRect(rect);
      }
      return ContainsAllPoints(outer, rect.Corners());
    }
    case ShapeKind::kPolytope: {
      const auto& poly = static_cast<const Polytope&>(inner);
      return ContainsAllPoints(outer, poly.vertices());
    }
    case ShapeKind::kHypersphere: {
      const auto& sphere = static_cast<const Hypersphere&>(inner);
      switch (outer.kind()) {
        case ShapeKind::kHyperrectangle:
          return RectContainsSphere(static_cast<const Hyperrectangle&>(outer),
                                    sphere);
        case ShapeKind::kHypersphere: {
          const auto& out_sphere = static_cast<const Hypersphere&>(outer);
          return SphereContains(out_sphere.center(), out_sphere.radius(),
                                sphere.center(), sphere.radius());
        }
        case ShapeKind::kPolytope:
          return PolytopeContainsSphere(static_cast<const Polytope&>(outer),
                                        sphere);
      }
      return false;
    }
  }
  return false;
}

bool Intersects(const Region& a, const Region& b) {
  if (a.dimensions() != b.dimensions()) return false;

  // Cheap exact paths for the shape pairs the paper's workloads use.
  if (a.kind() == ShapeKind::kHyperrectangle &&
      b.kind() == ShapeKind::kHyperrectangle) {
    return static_cast<const Hyperrectangle&>(a).IntersectsRect(
        static_cast<const Hyperrectangle&>(b));
  }
  if (a.kind() == ShapeKind::kHypersphere &&
      b.kind() == ShapeKind::kHypersphere) {
    const auto& sa = static_cast<const Hypersphere&>(a);
    const auto& sb = static_cast<const Hypersphere&>(b);
    return SpheresIntersect(sa.center(), sa.radius(), sb.center(),
                            sb.radius());
  }
  {
    const Region* rect = nullptr;
    const Region* sphere = nullptr;
    if (a.kind() == ShapeKind::kHyperrectangle &&
        b.kind() == ShapeKind::kHypersphere) {
      rect = &a;
      sphere = &b;
    } else if (b.kind() == ShapeKind::kHyperrectangle &&
               a.kind() == ShapeKind::kHypersphere) {
      rect = &b;
      sphere = &a;
    }
    if (rect != nullptr) {
      const auto& r = static_cast<const Hyperrectangle&>(*rect);
      const auto& s = static_cast<const Hypersphere&>(*sphere);
      double limit = s.radius() + kGeomEpsilon;
      return r.MinDistanceSquared(s.center()) <= limit * limit;
    }
  }

  // Polytope combinations: bounding-box reject, then exact GJK.
  if (!a.BoundingBox().IntersectsRect(b.BoundingBox())) return false;
  return GjkIntersects(a, b);
}

RegionRelation Relate(const Region& new_region, const Region& cached_region) {
  if (Equals(new_region, cached_region)) return RegionRelation::kEqual;
  if (Contains(cached_region, new_region)) return RegionRelation::kContainedBy;
  if (Contains(new_region, cached_region)) return RegionRelation::kContains;
  if (Intersects(new_region, cached_region)) return RegionRelation::kOverlap;
  return RegionRelation::kDisjoint;
}

}  // namespace fnproxy::geometry
