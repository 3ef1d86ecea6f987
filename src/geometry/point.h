#ifndef FNPROXY_GEOMETRY_POINT_H_
#define FNPROXY_GEOMETRY_POINT_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace fnproxy::geometry {

/// A point in d-dimensional Euclidean space. Dimensionality is dynamic
/// because function templates declare it at registration time (the paper's
/// examples use 2-D rectangles and 3-D spheres).
using Point = std::vector<double>;

/// Absolute tolerance used by all geometric predicates. Region parameters in
/// this system are O(1) magnitudes (unit-sphere coordinates, degrees), so an
/// absolute epsilon is appropriate.
inline constexpr double kGeomEpsilon = 1e-9;

/// Equality of two coordinates within kGeomEpsilon, relative to their
/// magnitude: |a - b| <= kGeomEpsilon * (1 + max(|a|, |b|)). Equals compares
/// rectangle corners and sphere centers and radii with it.
inline bool NearlyEqual(double a, double b) {
  return std::abs(a - b) <=
         kGeomEpsilon * (1.0 + std::max(std::abs(a), std::abs(b)));
}

/// Euclidean distance between two points of equal dimension.
inline double Distance(const Point& a, const Point& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// Squared Euclidean distance.
inline double DistanceSquared(const Point& a, const Point& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Dot product.
inline double Dot(const Point& a, const Point& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

/// Euclidean norm.
inline double Norm(const Point& a) { return std::sqrt(Dot(a, a)); }

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_POINT_H_
