#ifndef FNPROXY_GEOMETRY_POLYTOPE_H_
#define FNPROXY_GEOMETRY_POLYTOPE_H_

#include <memory>
#include <string>
#include <vector>

#include "geometry/hyperrectangle.h"
#include "geometry/point.h"
#include "geometry/region.h"
#include "util/status.h"

namespace fnproxy::geometry {

/// One closed halfspace {x : normal . x <= offset}.
struct Halfspace {
  Point normal;
  double offset;
};

/// A bounded convex polytope carried in *both* representations:
/// - H-representation (halfspaces), used to test point/region containment in
///   the polytope, and
/// - V-representation (vertices), used to test containment of the polytope
///   in another region and as the GJK support set.
///
/// The paper lists polytopes as the "more complex" region shape a function
/// template may declare (§3.1, property 2). Since function templates are
/// authored by the site operator, requiring both representations at
/// registration time is reasonable; `Validate()` cross-checks their mutual
/// consistency.
class Polytope final : public Region {
 public:
  Polytope(std::vector<Halfspace> halfspaces, std::vector<Point> vertices);

  /// Convenience: builds the d-simplex / box forms used in tests.
  static Polytope FromRectangle(const Hyperrectangle& rect);

  const std::vector<Halfspace>& halfspaces() const { return halfspaces_; }
  const std::vector<Point>& vertices() const { return vertices_; }

  /// Checks that every vertex satisfies every halfspace (necessary condition
  /// for the two representations to agree) and that dimensions line up.
  util::Status Validate() const;

  // Region interface.
  ShapeKind kind() const override { return ShapeKind::kPolytope; }
  size_t dimensions() const override;
  bool ContainsPoint(const Point& p) const override;
  bool ContainsPointExact(const Point& p) const override;
  Hyperrectangle BoundingBox() const override;
  Point Support(const Point& dir) const override;
  std::unique_ptr<Region> Clone() const override;
  std::string ToString() const override;

 private:
  std::vector<Halfspace> halfspaces_;
  std::vector<Point> vertices_;
};

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_POLYTOPE_H_
