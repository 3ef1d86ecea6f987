#include "geometry/polytope.h"

#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace fnproxy::geometry {

Polytope::Polytope(std::vector<Halfspace> halfspaces, std::vector<Point> vertices)
    : halfspaces_(std::move(halfspaces)), vertices_(std::move(vertices)) {
  assert(!halfspaces_.empty());
  // vertices_ may be empty: an H-representation-only polytope supports
  // ContainsPoint (all the membership kernels need); the vertex-based
  // queries below assert when they actually require the V-representation.
}

Polytope Polytope::FromRectangle(const Hyperrectangle& rect) {
  size_t d = rect.dimensions();
  std::vector<Halfspace> halfspaces;
  halfspaces.reserve(2 * d);
  for (size_t i = 0; i < d; ++i) {
    Point pos(d, 0.0);
    pos[i] = 1.0;
    halfspaces.push_back({pos, rect.hi()[i]});
    Point neg(d, 0.0);
    neg[i] = -1.0;
    halfspaces.push_back({neg, -rect.lo()[i]});
  }
  return Polytope(std::move(halfspaces), rect.Corners());
}

util::Status Polytope::Validate() const {
  size_t d = dimensions();
  for (const Point& v : vertices_) {
    if (v.size() != d) {
      return util::Status::InvalidArgument("polytope vertices differ in dimension");
    }
  }
  for (const Halfspace& h : halfspaces_) {
    if (h.normal.size() != d) {
      return util::Status::InvalidArgument(
          "polytope halfspace normal dimension mismatch");
    }
    if (Norm(h.normal) <= kGeomEpsilon) {
      return util::Status::InvalidArgument("polytope halfspace has zero normal");
    }
    for (const Point& v : vertices_) {
      if (Dot(h.normal, v) > h.offset + 1e-6 * (1.0 + std::abs(h.offset))) {
        return util::Status::InvalidArgument(
            "polytope vertex violates halfspace: representations disagree");
      }
    }
  }
  return util::Status::Ok();
}

size_t Polytope::dimensions() const {
  return vertices_.empty() ? halfspaces_[0].normal.size()
                           : vertices_[0].size();
}

bool Polytope::ContainsPoint(const Point& p) const {
  for (const Halfspace& h : halfspaces_) {
    // Scale the tolerance by the normal's magnitude so the test is invariant
    // to halfspace normalization.
    if (Dot(h.normal, p) > h.offset + kGeomEpsilon * Norm(h.normal)) {
      return false;
    }
  }
  return true;
}

bool Polytope::ContainsPointExact(const Point& p) const {
  for (const Halfspace& h : halfspaces_) {
    if (Dot(h.normal, p) > h.offset) return false;
  }
  return true;
}

Hyperrectangle Polytope::BoundingBox() const {
  assert(!vertices_.empty());
  size_t d = dimensions();
  Point lo = vertices_[0];
  Point hi = vertices_[0];
  for (const Point& v : vertices_) {
    for (size_t i = 0; i < d; ++i) {
      lo[i] = std::min(lo[i], v[i]);
      hi[i] = std::max(hi[i], v[i]);
    }
  }
  return Hyperrectangle(std::move(lo), std::move(hi));
}

Point Polytope::Support(const Point& dir) const {
  assert(!vertices_.empty());
  const Point* best = &vertices_[0];
  double best_dot = Dot(*best, dir);
  for (const Point& v : vertices_) {
    double d = Dot(v, dir);
    if (d > best_dot) {
      best_dot = d;
      best = &v;
    }
  }
  return *best;
}

std::unique_ptr<Region> Polytope::Clone() const {
  return std::make_unique<Polytope>(*this);
}

std::string Polytope::ToString() const {
  return std::string("Polytope{") + std::to_string(halfspaces_.size()) +
         " halfspaces, " + std::to_string(vertices_.size()) + " vertices}";
}

}  // namespace fnproxy::geometry
