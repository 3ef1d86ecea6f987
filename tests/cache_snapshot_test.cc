// Region XML round trips for all shapes: the region document of the peer
// wire and of warm-restart snapshot entries.

#include <gtest/gtest.h>

#include <vector>

#include "core/cache_snapshot.h"
#include "geometry/celestial.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"

namespace fnproxy::core {
namespace {

TEST(RegionXmlTest, SphereRoundTrip) {
  geometry::Hypersphere sphere({0.123456789012345, -2.5, 3.75}, 0.5);
  auto restored = RegionFromXml(RegionToXml(sphere));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(geometry::Equals(sphere, **restored));
}

TEST(RegionXmlTest, RectRoundTrip) {
  geometry::Hyperrectangle rect({-1.0, 2.0}, {3.5, 4.25});
  auto restored = RegionFromXml(RegionToXml(rect));
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(geometry::Equals(rect, **restored));
}

TEST(RegionXmlTest, PolytopeRoundTrip) {
  std::vector<geometry::Halfspace> halfspaces = {
      {{-1, 0}, 0}, {{0, -1}, 0}, {{1, 1}, 4}};
  std::vector<geometry::Point> vertices = {{0, 0}, {4, 0}, {0, 4}};
  geometry::Polytope triangle(halfspaces, vertices);
  auto restored = RegionFromXml(RegionToXml(triangle));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(geometry::Equals(triangle, **restored));
}

TEST(RegionXmlTest, CelestialConePreservedExactly) {
  geometry::Hypersphere cone = geometry::ConeToHypersphere(195.1234, 2.5678, 17.89);
  auto restored = RegionFromXml(RegionToXml(cone));
  ASSERT_TRUE(restored.ok());
  const auto& sphere = static_cast<const geometry::Hypersphere&>(**restored);
  // FormatDouble round-trips bit-exactly.
  EXPECT_EQ(sphere.radius(), cone.radius());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sphere.center()[static_cast<size_t>(i)],
              cone.center()[static_cast<size_t>(i)]);
  }
}

TEST(RegionXmlTest, MalformedRejected) {
  EXPECT_FALSE(RegionFromXml("<NotRegion/>").ok());
  EXPECT_FALSE(RegionFromXml("<Region shape=\"donut\" dims=\"2\"/>").ok());
  EXPECT_FALSE(
      RegionFromXml("<Region shape=\"hypersphere\" dims=\"3\"><Center>1 2"
                    "</Center><Radius>1</Radius></Region>")
          .ok());  // Dim mismatch.
  EXPECT_FALSE(
      RegionFromXml("<Region shape=\"hypersphere\" dims=\"2\"><Center>0 0"
                    "</Center><Radius>-1</Radius></Region>")
          .ok());
}

}  // namespace
}  // namespace fnproxy::core
