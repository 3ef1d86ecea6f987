// Micro-benchmarks for the geometry substrate: the per-check costs behind
// the proxy's relationship checking (paper §3.2 transforms query containment
// into these spatial predicates).

#include <benchmark/benchmark.h>

#include "geometry/celestial.h"
#include "geometry/gjk.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "geometry/region.h"
#include "util/random.h"

namespace fnproxy::geometry {
namespace {

Hypersphere RandomCone(util::Random& rng) {
  return ConeToHypersphere(rng.NextDouble(130, 230), rng.NextDouble(0, 60),
                           rng.NextDouble(4, 30));
}

void BM_RelateSphereSphere(benchmark::State& state) {
  util::Random rng(1);
  std::vector<Hypersphere> spheres;
  for (int i = 0; i < 1024; ++i) spheres.push_back(RandomCone(rng));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Relate(spheres[i & 1023], spheres[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_RelateSphereSphere);

void BM_RelateRectRect(benchmark::State& state) {
  util::Random rng(2);
  std::vector<Hyperrectangle> rects;
  for (int i = 0; i < 1024; ++i) rects.push_back(RandomCone(rng).BoundingBox());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Relate(rects[i & 1023], rects[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_RelateRectRect);

void BM_RelateSphereRect(benchmark::State& state) {
  util::Random rng(3);
  std::vector<Hypersphere> spheres;
  std::vector<Hyperrectangle> rects;
  for (int i = 0; i < 1024; ++i) {
    spheres.push_back(RandomCone(rng));
    rects.push_back(RandomCone(rng).BoundingBox());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Relate(spheres[i & 1023], rects[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_RelateSphereRect);

void BM_GjkPolytopeSphere(benchmark::State& state) {
  util::Random rng(4);
  std::vector<Halfspace> halfspaces = {{{-1, 0}, 0}, {{0, -1}, 0}, {{1, 1}, 4}};
  std::vector<Point> vertices = {{0, 0}, {4, 0}, {0, 4}};
  Polytope triangle(halfspaces, vertices);
  std::vector<Hypersphere> spheres;
  for (int i = 0; i < 1024; ++i) {
    spheres.emplace_back(Point{rng.NextDouble(-4, 8), rng.NextDouble(-4, 8)},
                         rng.NextDouble(0.2, 2.0));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GjkDistance(triangle, spheres[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_GjkPolytopeSphere);

void BM_ContainsPoint3d(benchmark::State& state) {
  util::Random rng(5);
  Hypersphere cone = RandomCone(rng);
  std::vector<Point> points;
  for (int i = 0; i < 1024; ++i) {
    points.push_back(
        RaDecToUnitVector(rng.NextDouble(130, 230), rng.NextDouble(0, 60)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cone.ContainsPoint(points[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_ContainsPoint3d);

void BM_ConeToHypersphere(benchmark::State& state) {
  util::Random rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConeToHypersphere(
        rng.NextDouble(130, 230), rng.NextDouble(0, 60), rng.NextDouble(4, 30)));
  }
}
BENCHMARK(BM_ConeToHypersphere);

}  // namespace
}  // namespace fnproxy::geometry
