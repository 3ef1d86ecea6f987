#ifndef FNPROXY_GEOMETRY_HYPERSPHERE_H_
#define FNPROXY_GEOMETRY_HYPERSPHERE_H_

#include <memory>
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

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_HYPERSPHERE_H_
