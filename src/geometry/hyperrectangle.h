#ifndef FNPROXY_GEOMETRY_HYPERRECTANGLE_H_
#define FNPROXY_GEOMETRY_HYPERRECTANGLE_H_

#include <memory>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "geometry/region.h"

namespace fnproxy::geometry {

/// An axis-aligned box [lo_0,hi_0] x ... x [lo_{d-1},hi_{d-1}]. Models
/// rectangular-search functions such as SkyServer's fGetObjFromRect, and
/// doubles as the bounding-box type used by the R-tree cache description.
class Hyperrectangle final : public Region {
 public:
  /// Requires lo.size() == hi.size() and lo[i] <= hi[i] for all i.
  Hyperrectangle(Point lo, Point hi);

  /// The box enclosing two boxes of equal dimension.
  static Hyperrectangle Union(const Hyperrectangle& a, const Hyperrectangle& b);

  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  /// Product of side lengths.
  double Volume() const;
  /// Sum of side lengths (margin), used by R-tree heuristics.
  double Margin() const;
  /// True if the two boxes share any point.
  bool IntersectsRect(const Hyperrectangle& other) const;
  /// True if `other` lies entirely inside this box.
  bool ContainsRect(const Hyperrectangle& other) const;
  /// Volume of the intersection with `other` (0 when disjoint).
  double IntersectionVolume(const Hyperrectangle& other) const;
  /// Squared distance from `p` to the nearest point of the box (0 inside).
  double MinDistanceSquared(const Point& p) const;
  /// The 2^d corner points. Only valid for small d (asserts d <= 20).
  std::vector<Point> Corners() const;

  // Region interface.
  ShapeKind kind() const override { return ShapeKind::kHyperrectangle; }
  size_t dimensions() const override { return lo_.size(); }
  bool ContainsPoint(const Point& p) const override;
  bool ContainsPointExact(const Point& p) const override;
  Hyperrectangle BoundingBox() const override { return *this; }
  Point Support(const Point& dir) const override;
  std::unique_ptr<Region> Clone() const override;
  std::string ToString() const override;

 private:
  Point lo_;
  Point hi_;
};

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_HYPERRECTANGLE_H_
