#ifndef FNPROXY_GEOMETRY_HYPERSPHERE_H_
#define FNPROXY_GEOMETRY_HYPERSPHERE_H_

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

/// The sphere-sphere intersection test on plain coordinates: true when the
/// closed balls with centers `a`, `b` (of equal dimension) and radii `ra`,
/// `rb` share a point within kGeomEpsilon, that is when
/// sum_i (a_i - b_i)^2 <= (ra + rb + kGeomEpsilon)^2. Intersects decides
/// every sphere pair with it; code that keeps balls as flat arrays calls it
/// directly.
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

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_HYPERSPHERE_H_
