#ifndef FNPROXY_GEOMETRY_HYPERSPHERE_H_
#define FNPROXY_GEOMETRY_HYPERSPHERE_H_

#include <cmath>
#include <memory>
#include <span>
#include <string>

#include "geometry/hyperrectangle.h"
#include "geometry/point.h"
#include "geometry/region.h"

namespace fnproxy::geometry {

/// A closed ball {x : |x - center| <= radius}. Models nearest-area functions
/// such as SkyServer's fGetNearbyObjEq (a 3-D sphere on the celestial unit
/// sphere, paper Fig. 3) and similarity search with a distance threshold.
class Hypersphere final : public Region {
 public:
  /// Requires radius >= 0.
  Hypersphere(Point center, double radius);

  const Point& center() const { return center_; }
  double radius() const { return radius_; }

  // Region interface.
  ShapeKind kind() const override { return ShapeKind::kHypersphere; }
  size_t dimensions() const override { return center_.size(); }
  bool ContainsPoint(const Point& p) const override;
  bool ContainsPointExact(const Point& p) const override;
  Hyperrectangle BoundingBox() const override;
  Point Support(const Point& dir) const override;
  std::unique_ptr<Region> Clone() const override;
  std::string ToString() const override;

 private:
  Point center_;
  double radius_;
};

// The sphere-sphere predicates on plain coordinates. Equals, Contains and
// Intersects decide every sphere pair with them, and code that keeps balls
// as flat arrays calls them directly. Centers are of equal dimension.

/// True when the closed balls with centers `a`, `b` and radii `ra`, `rb`
/// share a point within kGeomEpsilon, that is when
/// sum_i (a_i - b_i)^2 <= (ra + rb + kGeomEpsilon)^2.
inline bool SpheresIntersect(std::span<const double> a, double ra,
                             std::span<const double> b, double rb) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  const double limit = ra + rb + kGeomEpsilon;
  return sum <= limit * limit;
}

/// True when the ball (`inner`, `ri`) lies in the ball (`outer`, `ro`)
/// within kGeomEpsilon: |outer - inner| + ri <= ro + kGeomEpsilon.
inline bool SphereContains(std::span<const double> outer, double ro,
                           std::span<const double> inner, double ri) {
  double sum = 0.0;
  for (size_t i = 0; i < outer.size(); ++i) {
    const double d = outer[i] - inner[i];
    sum += d * d;
  }
  return std::sqrt(sum) + ri <= ro + kGeomEpsilon;
}

/// True when the two balls' centers and radii are NearlyEqual coordinate
/// by coordinate.
inline bool SpheresEqual(std::span<const double> a, double ra,
                         std::span<const double> b, double rb) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!NearlyEqual(a[i], b[i])) return false;
  }
  return NearlyEqual(ra, rb);
}

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_HYPERSPHERE_H_
