#include "geometry/hypersphere.h"

#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace fnproxy::geometry {

Hypersphere::Hypersphere(Point center, double radius)
    : center_(std::move(center)), radius_(radius) {
  assert(radius_ >= 0.0);
}

bool Hypersphere::ContainsPoint(const Point& p) const {
  double limit = radius_ + kGeomEpsilon;
  return DistanceSquared(p, center_) <= limit * limit;
}

bool Hypersphere::ContainsPointExact(const Point& p) const {
  return DistanceSquared(p, center_) <= radius_ * radius_;
}

Hyperrectangle Hypersphere::BoundingBox() const {
  Point lo(center_.size());
  Point hi(center_.size());
  for (size_t i = 0; i < center_.size(); ++i) {
    lo[i] = center_[i] - radius_;
    hi[i] = center_[i] + radius_;
  }
  return Hyperrectangle(std::move(lo), std::move(hi));
}

Point Hypersphere::Support(const Point& dir) const {
  double norm = Norm(dir);
  Point result = center_;
  if (norm <= kGeomEpsilon) return result;
  for (size_t i = 0; i < result.size(); ++i) {
    result[i] += radius_ * dir[i] / norm;
  }
  return result;
}

std::unique_ptr<Region> Hypersphere::Clone() const {
  return std::make_unique<Hypersphere>(*this);
}

std::string Hypersphere::ToString() const {
  std::string out = "Sphere{center=(";
  for (size_t i = 0; i < center_.size(); ++i) {
    if (i > 0) out += ", ";
    out += util::FormatDouble(center_[i]);
  }
  out += "), r=" + util::FormatDouble(radius_) + "}";
  return out;
}

}  // namespace fnproxy::geometry
