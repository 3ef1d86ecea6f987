#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "geometry/celestial.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "geometry/region.h"
#include "util/random.h"

namespace fnproxy::geometry {
namespace {

Hyperrectangle Rect2(double x0, double y0, double x1, double y1) {
  return Hyperrectangle({x0, y0}, {x1, y1});
}

TEST(HyperrectangleTest, VolumeMarginCorners) {
  Hyperrectangle rect = Rect2(0, 0, 2, 3);
  EXPECT_DOUBLE_EQ(rect.Volume(), 6.0);
  EXPECT_DOUBLE_EQ(rect.Margin(), 5.0);
  EXPECT_EQ(rect.Corners().size(), 4u);
}

TEST(HyperrectangleTest, ContainsPointBoundaryInclusive) {
  Hyperrectangle rect = Rect2(0, 0, 1, 1);
  EXPECT_TRUE(rect.ContainsPoint({0.5, 0.5}));
  EXPECT_TRUE(rect.ContainsPoint({0.0, 1.0}));
  EXPECT_FALSE(rect.ContainsPoint({1.1, 0.5}));
}

TEST(HyperrectangleTest, IntersectAndContainRects) {
  Hyperrectangle a = Rect2(0, 0, 2, 2);
  Hyperrectangle b = Rect2(1, 1, 3, 3);
  Hyperrectangle c = Rect2(0.5, 0.5, 1.5, 1.5);
  Hyperrectangle d = Rect2(5, 5, 6, 6);
  EXPECT_TRUE(a.IntersectsRect(b));
  EXPECT_FALSE(a.ContainsRect(b));
  EXPECT_TRUE(a.ContainsRect(c));
  EXPECT_FALSE(a.IntersectsRect(d));
  EXPECT_DOUBLE_EQ(a.IntersectionVolume(b), 1.0);
  EXPECT_DOUBLE_EQ(a.IntersectionVolume(d), 0.0);
}

TEST(HyperrectangleTest, UnionCoversBoth) {
  Hyperrectangle u = Hyperrectangle::Union(Rect2(0, 0, 1, 1), Rect2(2, -1, 3, 0.5));
  EXPECT_TRUE(u.ContainsRect(Rect2(0, 0, 1, 1)));
  EXPECT_TRUE(u.ContainsRect(Rect2(2, -1, 3, 0.5)));
  EXPECT_DOUBLE_EQ(u.lo()[0], 0.0);
  EXPECT_DOUBLE_EQ(u.hi()[0], 3.0);
}

TEST(HyperrectangleTest, MinDistanceSquared) {
  Hyperrectangle rect = Rect2(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(rect.MinDistanceSquared({0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(rect.MinDistanceSquared({2.0, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(rect.MinDistanceSquared({2.0, 2.0}), 2.0);
}

TEST(HypersphereTest, ContainsPointAndBBox) {
  Hypersphere sphere({0, 0, 0}, 1.0);
  EXPECT_TRUE(sphere.ContainsPoint({0.5, 0.5, 0.5}));
  EXPECT_TRUE(sphere.ContainsPoint({1.0, 0, 0}));
  EXPECT_FALSE(sphere.ContainsPoint({1.0, 0.1, 0}));
  Hyperrectangle bbox = sphere.BoundingBox();
  EXPECT_DOUBLE_EQ(bbox.lo()[0], -1.0);
  EXPECT_DOUBLE_EQ(bbox.hi()[2], 1.0);
}

TEST(RelateTest, SphereSphereCases) {
  Hypersphere big({0, 0}, 2.0);
  Hypersphere inner({0.5, 0}, 1.0);
  Hypersphere overlapping({2.5, 0}, 1.0);
  Hypersphere far({10, 0}, 1.0);
  EXPECT_EQ(Relate(inner, big), RegionRelation::kContainedBy);
  EXPECT_EQ(Relate(big, inner), RegionRelation::kContains);
  EXPECT_EQ(Relate(overlapping, big), RegionRelation::kOverlap);
  EXPECT_EQ(Relate(far, big), RegionRelation::kDisjoint);
  EXPECT_EQ(Relate(big, big), RegionRelation::kEqual);
}

TEST(RelateTest, TangentSpheresIntersect) {
  // Exactly touching spheres count as overlapping (closed regions).
  Hypersphere a({0, 0}, 1.0);
  Hypersphere b({2, 0}, 1.0);
  EXPECT_TRUE(Intersects(a, b));
}

TEST(RelateTest, RectRectCases) {
  Hyperrectangle big = Rect2(0, 0, 10, 10);
  Hyperrectangle inner = Rect2(2, 2, 4, 4);
  Hyperrectangle overlapping = Rect2(8, 8, 12, 12);
  Hyperrectangle far = Rect2(20, 20, 21, 21);
  EXPECT_EQ(Relate(inner, big), RegionRelation::kContainedBy);
  EXPECT_EQ(Relate(big, inner), RegionRelation::kContains);
  EXPECT_EQ(Relate(overlapping, big), RegionRelation::kOverlap);
  EXPECT_EQ(Relate(far, big), RegionRelation::kDisjoint);
}

TEST(RelateTest, SphereRectMixed) {
  Hyperrectangle rect = Rect2(-2, -2, 2, 2);
  Hypersphere inside({0, 0}, 1.0);
  Hypersphere around({0, 0}, 4.0);  // Contains the rect's corners.
  Hypersphere cornering({3, 3}, 1.5);
  EXPECT_EQ(Relate(inside, rect), RegionRelation::kContainedBy);
  EXPECT_EQ(Relate(around, rect), RegionRelation::kContains);
  EXPECT_EQ(Relate(cornering, rect), RegionRelation::kOverlap);
  // Sphere near the corner but missing it: bounding boxes intersect, the
  // shapes do not (distance from corner (2,2) to (3.4,3.4) ~ 1.98 > 1.5).
  Hypersphere near_corner({3.4, 3.4}, 1.5);
  EXPECT_EQ(Relate(near_corner, rect), RegionRelation::kDisjoint);
}

TEST(RelateTest, RectInSphereRequiresCorners) {
  // Rect fits in the sphere's bbox but its corners poke out of the ball.
  Hypersphere sphere({0, 0}, 1.0);
  Hyperrectangle rect = Rect2(-0.9, -0.9, 0.9, 0.9);
  EXPECT_FALSE(Contains(sphere, rect));
  EXPECT_TRUE(Contains(sphere, Rect2(-0.7, -0.7, 0.7, 0.7)));
}

TEST(EqualsTest, ToleratesTinyPerturbation) {
  Hypersphere a({1.0, 2.0, 3.0}, 0.5);
  Hypersphere b({1.0 + 1e-13, 2.0, 3.0}, 0.5);
  EXPECT_TRUE(Equals(a, b));
  Hypersphere c({1.0 + 1e-6, 2.0, 3.0}, 0.5);
  EXPECT_FALSE(Equals(a, c));
}

TEST(PolytopeTest, FromRectangleMatchesRect) {
  Hyperrectangle rect = Rect2(0, 0, 2, 1);
  Polytope poly = Polytope::FromRectangle(rect);
  ASSERT_TRUE(poly.Validate().ok());
  EXPECT_TRUE(Equals(poly, rect));
  EXPECT_TRUE(Contains(poly, Rect2(0.5, 0.2, 1.5, 0.8)));
  EXPECT_TRUE(Contains(rect, poly));
}

TEST(PolytopeTest, TriangleContainment) {
  // Triangle (0,0) (4,0) (0,4): x >= 0, y >= 0, x + y <= 4.
  std::vector<Halfspace> halfspaces = {
      {{-1, 0}, 0}, {{0, -1}, 0}, {{1, 1}, 4}};
  std::vector<Point> vertices = {{0, 0}, {4, 0}, {0, 4}};
  Polytope triangle(halfspaces, vertices);
  ASSERT_TRUE(triangle.Validate().ok());
  EXPECT_TRUE(triangle.ContainsPoint({1, 1}));
  EXPECT_FALSE(triangle.ContainsPoint({3, 3}));
  EXPECT_TRUE(Contains(triangle, Hypersphere({1, 1}, 0.5)));
  EXPECT_FALSE(Contains(triangle, Hypersphere({1, 1}, 2.0)));
  EXPECT_EQ(Relate(Hypersphere({5, 5}, 1.0), triangle),
            RegionRelation::kDisjoint);
  EXPECT_EQ(Relate(Hypersphere({4, 4}, 3.0), triangle),
            RegionRelation::kOverlap);
}

TEST(PolytopeTest, ValidateCatchesInconsistentReps) {
  std::vector<Halfspace> halfspaces = {{{1, 0}, 1}, {{-1, 0}, 0},
                                       {{0, 1}, 1}, {{0, -1}, 0}};
  std::vector<Point> vertices = {{0, 0}, {5, 0}};  // 5 > 1 violates x <= 1.
  Polytope bad(halfspaces, vertices);
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(CelestialTest, UnitVectorIsUnit) {
  for (double ra : {0.0, 90.0, 180.0, 271.5}) {
    for (double dec : {-45.0, 0.0, 30.0, 89.0}) {
      Point v = RaDecToUnitVector(ra, dec);
      EXPECT_NEAR(Norm(v), 1.0, 1e-12);
    }
  }
}

TEST(CelestialTest, KnownDirections) {
  Point x = RaDecToUnitVector(0, 0);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  Point z = RaDecToUnitVector(123, 90);
  EXPECT_NEAR(z[2], 1.0, 1e-12);
}

TEST(CelestialTest, ChordMatchesAngle) {
  // 60 arcmin = 1 degree; chord = 2 sin(0.5 deg).
  double chord = ArcminToChord(60.0);
  EXPECT_NEAR(chord, 2.0 * std::sin(M_PI / 360.0), 1e-15);
}

TEST(CelestialTest, ConeMembershipMatchesAngularSeparation) {
  // A point is in the cone hypersphere iff its angular separation is within
  // the radius.
  double ra = 195.0, dec = 2.5, radius_arcmin = 30.0;
  Hypersphere cone = ConeToHypersphere(ra, dec, radius_arcmin);
  util::Random rng(17);
  for (int i = 0; i < 500; ++i) {
    double ra2 = ra + rng.NextDouble(-2, 2);
    double dec2 = dec + rng.NextDouble(-2, 2);
    double sep_arcmin = AngularSeparationDeg(ra, dec, ra2, dec2) * 60.0;
    if (std::abs(sep_arcmin - radius_arcmin) < 0.01) continue;  // Boundary.
    bool inside = cone.ContainsPoint(RaDecToUnitVector(ra2, dec2));
    EXPECT_EQ(inside, sep_arcmin < radius_arcmin)
        << "sep=" << sep_arcmin << " at (" << ra2 << ", " << dec2 << ")";
  }
}

TEST(CelestialTest, ConeContainmentMatchesAngularGeometry) {
  // Cone A contains cone B iff sep(A,B) + rB <= rA (on the sphere surface;
  // chord geometry must agree for small radii).
  util::Random rng(23);
  for (int i = 0; i < 300; ++i) {
    double ra1 = rng.NextDouble(100, 110), dec1 = rng.NextDouble(10, 20);
    double r1 = rng.NextDouble(5, 60);
    double sep = rng.NextDouble(0, 90);  // arcmin
    double angle = rng.NextDouble(0, 2 * M_PI);
    double ra2 = ra1 + sep / 60.0 * std::cos(angle) /
                           std::cos(DegreesToRadians(dec1));
    double dec2 = dec1 + sep / 60.0 * std::sin(angle);
    double r2 = rng.NextDouble(2, 60);
    double actual_sep = AngularSeparationDeg(ra1, dec1, ra2, dec2) * 60.0;
    if (std::abs(actual_sep + r2 - r1) < 0.05) continue;  // Near-boundary.
    bool expected = actual_sep + r2 < r1;
    bool got = Contains(ConeToHypersphere(ra1, dec1, r1),
                        ConeToHypersphere(ra2, dec2, r2));
    EXPECT_EQ(got, expected) << "sep=" << actual_sep << " r1=" << r1
                             << " r2=" << r2;
  }
}

// SpheresIntersect is the one sphere-sphere test: Intersects calls it, and
// the trace generator calls it on flat arrays. Both must decide exactly as
// the squared-distance comparison Intersects made before it was factored
// out, also within an ulp of the limit, where a change in the order of the
// arithmetic would flip the answer. Half the pairs are tuned onto the limit
// and then stepped up to three ulps either way.
TEST(SpheresIntersectTest, MatchesIntersectsAtTheLimit) {
  util::Random rng(21);
  int tuned_touching = 0;
  int tuned_apart = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const size_t dims = 1 + rng.NextUint64(4);
    Point a(dims);
    Point b(dims);
    for (size_t d = 0; d < dims; ++d) {
      a[d] = rng.NextDouble(-1.0, 1.0);
      b[d] = rng.NextDouble(-1.0, 1.0);
    }
    const double ra = rng.NextDouble(0.0, 0.5);
    const double rb = rng.NextDouble(0.0, 0.5);
    const double limit = ra + rb + kGeomEpsilon;
    const bool tuned = iter % 2 == 1;
    if (tuned) {
      const double scale = limit / Distance(a, b);
      for (size_t d = 0; d < dims; ++d) b[d] = a[d] + (b[d] - a[d]) * scale;
      const int ulps = static_cast<int>(rng.NextUint64(7)) - 3;
      const double toward = ulps > 0 ? HUGE_VAL : -HUGE_VAL;
      for (int k = 0; k < std::abs(ulps); ++k) {
        b[dims - 1] = std::nextafter(b[dims - 1], toward);
      }
    }
    const bool expected = DistanceSquared(a, b) <= limit * limit;
    EXPECT_EQ(SpheresIntersect(a, ra, b, rb), expected);
    EXPECT_EQ(SpheresIntersect(b, rb, a, ra), expected);
    EXPECT_EQ(Intersects(Hypersphere(a, ra), Hypersphere(b, rb)), expected);
    EXPECT_EQ(Intersects(Hypersphere(b, rb), Hypersphere(a, ra)), expected);
    if (tuned) ++(expected ? tuned_touching : tuned_apart);
  }
  // The tuned pairs fall on both sides of the limit.
  EXPECT_GT(tuned_touching, 200);
  EXPECT_GT(tuned_apart, 200);
}

// SphereContains and SpheresEqual are the one sphere containment and
// equality tests: Contains and Equals call them, and the trace generator
// calls them on flat arrays. Both must decide exactly as the formulas
// Contains and Equals used before they were factored out, also within an
// ulp of the limit. Half the pairs are tuned onto the limit and then
// stepped up to three ulps either way.
TEST(SpherePredicatesTest, MatchContainsAndEqualsAtTheLimit) {
  util::Random rng(22);
  auto step_ulps = [&rng](double value) {
    const int ulps = static_cast<int>(rng.NextUint64(7)) - 3;
    const double toward = ulps > 0 ? HUGE_VAL : -HUGE_VAL;
    for (int k = 0; k < std::abs(ulps); ++k) {
      value = std::nextafter(value, toward);
    }
    return value;
  };
  auto nearly_equal = [](double x, double y) {
    return std::abs(x - y) <=
           kGeomEpsilon * (1.0 + std::max(std::abs(x), std::abs(y)));
  };
  int tuned_inside = 0;
  int tuned_outside = 0;
  int tuned_equal = 0;
  int tuned_unequal = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const size_t dims = 1 + rng.NextUint64(4);
    Point a(dims);
    Point b(dims);
    for (size_t d = 0; d < dims; ++d) {
      a[d] = rng.NextDouble(-1.0, 1.0);
      b[d] = rng.NextDouble(-1.0, 1.0);
    }
    const double ra = rng.NextDouble(0.2, 0.5);
    const double rb = rng.NextDouble(0.0, ra);
    const bool tuned = iter % 2 == 1;

    // Is the ball (b, rb) inside (a, ra)?
    if (tuned) {
      const double scale = (ra + kGeomEpsilon - rb) / Distance(a, b);
      for (size_t d = 0; d < dims; ++d) b[d] = a[d] + (b[d] - a[d]) * scale;
      b[dims - 1] = step_ulps(b[dims - 1]);
    }
    const bool inside = Distance(a, b) + rb <= ra + kGeomEpsilon;
    EXPECT_EQ(SphereContains(a, ra, b, rb), inside);
    EXPECT_EQ(Contains(Hypersphere(a, ra), Hypersphere(b, rb)), inside);
    if (tuned) ++(inside ? tuned_inside : tuned_outside);

    // Is (a, ra) equal to a copy with one coordinate or the radius moved
    // by about the tolerance (onto it, when tuned)?
    Point c = a;
    double rc = ra;
    const size_t moved = rng.NextUint64(dims + 1);
    double& value = moved < dims ? c[moved] : rc;
    value = tuned ? step_ulps(value + kGeomEpsilon * (1.0 + std::abs(value)))
                  : value + rng.NextDouble(-3e-9, 3e-9);
    bool equal = nearly_equal(ra, rc);
    for (size_t d = 0; d < dims; ++d) equal = equal && nearly_equal(a[d], c[d]);
    EXPECT_EQ(SpheresEqual(a, ra, c, rc), equal);
    EXPECT_EQ(SpheresEqual(c, rc, a, ra), equal);
    EXPECT_EQ(Equals(Hypersphere(a, ra), Hypersphere(c, rc)), equal);
    EXPECT_EQ(Equals(Hypersphere(c, rc), Hypersphere(a, ra)), equal);
    if (tuned) ++(equal ? tuned_equal : tuned_unequal);
  }
  // The tuned pairs fall on both sides of each limit.
  EXPECT_GT(tuned_inside, 200);
  EXPECT_GT(tuned_outside, 200);
  EXPECT_GT(tuned_equal, 200);
  EXPECT_GT(tuned_unequal, 200);
}

/// Property sweep: Relate is consistent with its defining predicates for
/// random sphere/rect pairs in several dimensions.
class RelatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RelatePropertyTest, RelationConsistency) {
  int dims = GetParam();
  util::Random rng(static_cast<uint64_t>(100 + dims));
  for (int iter = 0; iter < 400; ++iter) {
    // Random pair of regions (sphere or rect).
    auto random_region = [&]() -> std::unique_ptr<Region> {
      if (rng.NextBool(0.5)) {
        Point center(dims);
        for (auto& c : center) c = rng.NextDouble(-5, 5);
        return std::make_unique<Hypersphere>(center, rng.NextDouble(0.1, 3));
      }
      Point lo(dims), hi(dims);
      for (int d = 0; d < dims; ++d) {
        double a = rng.NextDouble(-5, 5), b = rng.NextDouble(-5, 5);
        lo[d] = std::min(a, b);
        hi[d] = std::max(a, b) + 0.01;
      }
      return std::make_unique<Hyperrectangle>(lo, hi);
    };
    auto a = random_region();
    auto b = random_region();
    RegionRelation ab = Relate(*a, *b);
    RegionRelation ba = Relate(*b, *a);

    // Symmetry of the derived relations.
    switch (ab) {
      case RegionRelation::kEqual:
        EXPECT_EQ(ba, RegionRelation::kEqual);
        break;
      case RegionRelation::kContainedBy:
        EXPECT_EQ(ba, RegionRelation::kContains);
        break;
      case RegionRelation::kContains:
        EXPECT_EQ(ba, RegionRelation::kContainedBy);
        break;
      case RegionRelation::kOverlap:
        EXPECT_EQ(ba, RegionRelation::kOverlap);
        break;
      case RegionRelation::kDisjoint:
        EXPECT_EQ(ba, RegionRelation::kDisjoint);
        break;
    }

    // Monte-Carlo check against point membership: containment claims imply
    // every sampled point of the inner region lies in the outer.
    for (int s = 0; s < 40; ++s) {
      Point p(dims);
      Hyperrectangle bbox = a->BoundingBox();
      for (int d = 0; d < dims; ++d) {
        p[static_cast<size_t>(d)] =
            rng.NextDouble(bbox.lo()[static_cast<size_t>(d)],
                           bbox.hi()[static_cast<size_t>(d)]);
      }
      if (!a->ContainsPoint(p)) continue;
      if (ab == RegionRelation::kContainedBy || ab == RegionRelation::kEqual) {
        EXPECT_TRUE(b->ContainsPoint(p))
            << "point of contained region escapes container";
      }
      if (ab == RegionRelation::kDisjoint) {
        EXPECT_FALSE(b->ContainsPoint(p)) << "disjoint regions share a point";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, RelatePropertyTest, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace fnproxy::geometry
