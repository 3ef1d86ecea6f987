#include "geometry/hyperrectangle.h"

#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace fnproxy::geometry {

Hyperrectangle::Hyperrectangle(Point lo, Point hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  assert(lo_.size() == hi_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    assert(lo_[i] <= hi_[i] + kGeomEpsilon);
  }
}

Hyperrectangle Hyperrectangle::Union(const Hyperrectangle& a,
                                     const Hyperrectangle& b) {
  assert(a.dimensions() == b.dimensions());
  Point lo(a.dimensions());
  Point hi(a.dimensions());
  for (size_t i = 0; i < a.dimensions(); ++i) {
    lo[i] = std::min(a.lo_[i], b.lo_[i]);
    hi[i] = std::max(a.hi_[i], b.hi_[i]);
  }
  return Hyperrectangle(std::move(lo), std::move(hi));
}

double Hyperrectangle::Volume() const {
  double volume = 1.0;
  for (size_t i = 0; i < lo_.size(); ++i) volume *= hi_[i] - lo_[i];
  return volume;
}

double Hyperrectangle::Margin() const {
  double margin = 0.0;
  for (size_t i = 0; i < lo_.size(); ++i) margin += hi_[i] - lo_[i];
  return margin;
}

bool Hyperrectangle::IntersectsRect(const Hyperrectangle& other) const {
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (lo_[i] > other.hi_[i] + kGeomEpsilon ||
        other.lo_[i] > hi_[i] + kGeomEpsilon) {
      return false;
    }
  }
  return true;
}

bool Hyperrectangle::ContainsRect(const Hyperrectangle& other) const {
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (other.lo_[i] < lo_[i] - kGeomEpsilon ||
        other.hi_[i] > hi_[i] + kGeomEpsilon) {
      return false;
    }
  }
  return true;
}

double Hyperrectangle::IntersectionVolume(const Hyperrectangle& other) const {
  double volume = 1.0;
  for (size_t i = 0; i < lo_.size(); ++i) {
    double lo = std::max(lo_[i], other.lo_[i]);
    double hi = std::min(hi_[i], other.hi_[i]);
    if (lo >= hi) return 0.0;
    volume *= hi - lo;
  }
  return volume;
}

double Hyperrectangle::MinDistanceSquared(const Point& p) const {
  double sum = 0.0;
  for (size_t i = 0; i < lo_.size(); ++i) {
    double d = 0.0;
    if (p[i] < lo_[i]) {
      d = lo_[i] - p[i];
    } else if (p[i] > hi_[i]) {
      d = p[i] - hi_[i];
    }
    sum += d * d;
  }
  return sum;
}

std::vector<Point> Hyperrectangle::Corners() const {
  assert(lo_.size() <= 20);
  size_t d = lo_.size();
  std::vector<Point> corners;
  corners.reserve(static_cast<size_t>(1) << d);
  for (size_t mask = 0; mask < (static_cast<size_t>(1) << d); ++mask) {
    Point corner(d);
    for (size_t i = 0; i < d; ++i) {
      corner[i] = (mask & (static_cast<size_t>(1) << i)) ? hi_[i] : lo_[i];
    }
    corners.push_back(std::move(corner));
  }
  return corners;
}

bool Hyperrectangle::ContainsPoint(const Point& p) const {
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (p[i] < lo_[i] - kGeomEpsilon || p[i] > hi_[i] + kGeomEpsilon) {
      return false;
    }
  }
  return true;
}

bool Hyperrectangle::ContainsPointExact(const Point& p) const {
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  }
  return true;
}

Point Hyperrectangle::Support(const Point& dir) const {
  Point result(lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    result[i] = dir[i] >= 0 ? hi_[i] : lo_[i];
  }
  return result;
}

std::unique_ptr<Region> Hyperrectangle::Clone() const {
  return std::make_unique<Hyperrectangle>(*this);
}

std::string Hyperrectangle::ToString() const {
  std::string out = "Rect{";
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "[";
    out += util::FormatDouble(lo_[i]);
    out += ", ";
    out += util::FormatDouble(hi_[i]);
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace fnproxy::geometry
