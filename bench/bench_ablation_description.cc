// Ablation A: cache-description implementation (array vs R-tree).
//
// The paper (§4.2) finds that the R-tree does not accelerate active caching
// because cache descriptions stay small: checking time is under 100 ms
// either way, and R-tree maintenance costs more than an array append/erase.
// This bench isolates the description data structure: populations of
// clustered query boxes from 100 to 100,000 entries, measuring box
// comparisons (the proxy's virtual-cost driver) and real time per operation.

#include <cstdio>
#include <memory>

#include "geometry/celestial.h"
#include "index/array_index.h"
#include "index/rtree.h"
#include "util/clock.h"
#include "util/random.h"

using namespace fnproxy;

namespace {

geometry::Hyperrectangle RandomQueryBox(util::Random& rng) {
  // Cones around clustered hotspots, like the Radial trace's regions.
  static std::vector<std::pair<double, double>> hotspots = [] {
    util::Random hotspot_rng(1);
    std::vector<std::pair<double, double>> spots;
    for (int i = 0; i < 60; ++i) {
      spots.emplace_back(hotspot_rng.NextDouble(130, 230),
                         hotspot_rng.NextDouble(0, 60));
    }
    return spots;
  }();
  const auto& [ra, dec] = hotspots[rng.NextUint64(hotspots.size())];
  double cra = ra + rng.NextGaussian() * 0.8;
  double cdec = dec + rng.NextGaussian() * 0.8;
  double radius = rng.NextDouble(4.0 / 60, 30.0 / 60);
  return geometry::ConeToHypersphere(cra, cdec, radius * 60).BoundingBox();
}

struct Measurement {
  double search_comparisons;
  double search_micros;
  double maintain_comparisons;  // Insert+remove pair.
  double maintain_micros;
};

Measurement Measure(index::RegionIndex* index, size_t population,
                    util::Random& rng) {
  std::vector<geometry::Hyperrectangle> boxes;
  for (size_t i = 0; i < population; ++i) {
    boxes.push_back(RandomQueryBox(rng));
    index->Insert(i, boxes.back());
  }
  Measurement m{0, 0, 0, 0};
  const int kProbes = 200;
  util::Stopwatch sw;
  for (int i = 0; i < kProbes; ++i) {
    size_t comparisons = 0;
    index->SearchIntersecting(RandomQueryBox(rng), &comparisons);
    m.search_comparisons += static_cast<double>(comparisons);
  }
  m.search_micros = static_cast<double>(sw.ElapsedMicros()) / kProbes;
  m.search_comparisons /= kProbes;

  sw.Reset();
  for (int i = 0; i < kProbes; ++i) {
    size_t victim = rng.NextUint64(population);
    size_t remove_comparisons = 0;
    size_t insert_comparisons = 0;
    index->Remove(victim, &remove_comparisons);
    index->Insert(victim, boxes[victim], &insert_comparisons);
    m.maintain_comparisons +=
        static_cast<double>(remove_comparisons + insert_comparisons);
  }
  m.maintain_micros = static_cast<double>(sw.ElapsedMicros()) / kProbes;
  m.maintain_comparisons /= kProbes;
  return m;
}

}  // namespace

int main() {
  std::printf("=== Ablation A: cache description, array vs R-tree ===\n");
  std::printf("%10s %8s | %12s %10s %12s %10s\n", "entries", "impl",
              "search cmp", "search us", "maint cmp", "maint us");
  for (size_t population : {100u, 1000u, 5000u, 20000u, 100000u}) {
    {
      util::Random rng(7);
      index::ArrayRegionIndex array;
      Measurement m = Measure(&array, population, rng);
      std::printf("%10zu %8s | %12.0f %10.1f %12.0f %10.1f\n", population,
                  "array", m.search_comparisons, m.search_micros,
                  m.maintain_comparisons, m.maintain_micros);
    }
    {
      util::Random rng(7);
      index::RTreeIndex rtree;
      Measurement m = Measure(&rtree, population, rng);
      std::printf("%10zu %8s | %12.0f %10.1f %12.0f %10.1f\n", population,
                  "rtree", m.search_comparisons, m.search_micros,
                  m.maintain_comparisons, m.maintain_micros);
    }
  }
  std::printf(
      "\nExpected shape (paper §4.2): at cache-description sizes active "
      "caching reaches\n(thousands of entries) the R-tree's search advantage "
      "is modest while its\nmaintenance (insert/delete with splits and "
      "reinsertion) costs clearly more than\nthe array's; the R-tree only "
      "pays off at populations far beyond real caches.\n");
  return 0;
}
