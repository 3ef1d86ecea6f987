#include "workload/trace_generator.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "geometry/celestial.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "util/random.h"

namespace fnproxy::workload {

using geometry::RegionRelation;

namespace {

/// printf's "%.*f": std::to_chars in fixed format with a precision prints
/// the same characters, several times faster.
std::string FormatFixed(double value, int decimals) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, decimals)
                       .ptr;
  return std::string(buf, end);
}

/// Rounds to `decimals` (0 to 4) places.
double RoundTo(double value, int decimals) {
  // The exact powers of ten std::pow(10.0, decimals) returns, looked up.
  static constexpr double kScale[] = {1e0, 1e1, 1e2, 1e3, 1e4};
  const double scale = kScale[decimals];
  return std::round(value * scale) / scale;
}

/// A cone's 3-D ball as plain numbers: its center's unit vector and its
/// chord radius, the values geometry::ConeToHypersphere puts in a sphere.
/// The predicates below decide exactly as geometry::Intersects, Contains,
/// Equals and Relate on those spheres, through the same flat tests.
struct Ball {
  std::array<double, 3> center;
  double radius;
};

bool Intersects(const Ball& a, const Ball& b) {
  return geometry::SpheresIntersect(a.center, a.radius, b.center, b.radius);
}

bool Contains(const Ball& outer, const Ball& inner) {
  return geometry::SphereContains(outer.center, outer.radius, inner.center,
                                  inner.radius);
}

bool Equals(const Ball& a, const Ball& b) {
  return geometry::SpheresEqual(a.center, a.radius, b.center, b.radius);
}

/// Contained in `cached` and not equal to it.
bool StrictlyInside(const Ball& inner, const Ball& cached) {
  return Contains(cached, inner) && !Equals(cached, inner);
}

RegionRelation Relate(const Ball& new_ball, const Ball& cached) {
  if (Equals(new_ball, cached)) return RegionRelation::kEqual;
  if (Contains(cached, new_ball)) return RegionRelation::kContainedBy;
  if (Contains(new_ball, cached)) return RegionRelation::kContains;
  if (Intersects(new_ball, cached)) return RegionRelation::kOverlap;
  return RegionRelation::kDisjoint;
}

/// A generated cone, kept in rounded form (exactly what the form request
/// will carry) so relationship verification matches what the proxy sees.
struct Cone {
  double ra;
  double dec;
  double radius_arcmin;

  Ball ToBall() const {
    return {geometry::RaDecToUnitArray(ra, dec),
            geometry::ArcminToChord(radius_arcmin)};
  }
};

/// The emitted cones and their balls (each computed once), and a hashed
/// grid over their centers for fast disjointness checks. Each cell keeps
/// copies of its balls in one contiguous array, in emission order.
class ConeGrid {
 public:
  explicit ConeGrid(double cell_deg) : cell_deg_(cell_deg) {}

  void Add(const Cone& cone, const Ball& ball) {
    cells_[Key(cone)].push_back(ball);
    cones_.push_back(cone);
    balls_.push_back(ball);
  }

  /// True when `ball` (of `cone`) intersects a ball whose center lies
  /// within one cell of `cone`'s. The cone's own cell, where such a ball
  /// most likely lies, is checked first.
  bool AnyIntersecting(const Cone& cone, const Ball& ball) const {
    const CellKey key = Key(cone);
    if (CellIntersects(key, ball)) return true;
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        if ((dx != 0 || dy != 0) &&
            CellIntersects({key.x + dx, key.y + dy}, ball)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Calls `visit(ball)` for each ball whose center lies within one cell
  /// of `cone`'s, cell by cell (ra-major) and in emission order within a
  /// cell, until `visit` returns true.
  template <typename Visit>
  void VisitNearby(const Cone& cone, Visit visit) const {
    const CellKey key = Key(cone);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        auto it = cells_.find({key.x + dx, key.y + dy});
        if (it == cells_.end()) continue;
        for (const Ball& ball : it->second) {
          if (visit(ball)) return;
        }
      }
    }
  }

  const Cone& cone(size_t index) const { return cones_[index]; }
  const Ball& ball(size_t index) const { return balls_[index]; }
  size_t size() const { return cones_.size(); }

 private:
  struct CellKey {
    int64_t x;
    int64_t y;
    bool operator==(const CellKey&) const = default;
  };
  struct CellHash {
    size_t operator()(const CellKey& key) const {
      return (static_cast<uint64_t>(key.x) * 0x9E3779B97F4A7C15ULL) ^
             static_cast<uint64_t>(key.y);
    }
  };

  CellKey Key(const Cone& cone) const {
    return {static_cast<int64_t>(std::floor(cone.ra / cell_deg_)),
            static_cast<int64_t>(std::floor(cone.dec / cell_deg_))};
  }

  bool CellIntersects(const CellKey& key, const Ball& ball) const {
    auto it = cells_.find(key);
    if (it == cells_.end()) return false;
    for (const Ball& other : it->second) {
      if (Intersects(ball, other)) return true;
    }
    return false;
  }

  double cell_deg_;
  std::vector<Cone> cones_;
  std::vector<Ball> balls_;
  std::unordered_map<CellKey, std::vector<Ball>, CellHash> cells_;
};

}  // namespace

Trace GenerateRadialTrace(const RadialTraceConfig& config) {
  util::Random rng(config.seed);
  util::ZipfDistribution hotspot_pick(config.num_hotspots,
                                      config.hotspot_zipf_theta);

  // Hotspot centers: supplied (catalog cluster centers) or random.
  std::vector<std::pair<double, double>> hotspots = config.hotspot_centers;
  double margin = 1.0;
  while (hotspots.size() < config.num_hotspots) {
    hotspots.emplace_back(
        rng.NextDouble(config.ra_min + margin, config.ra_max - margin),
        rng.NextDouble(config.dec_min + margin, config.dec_max - margin));
  }

  Trace trace;
  trace.form_path = "/radial";
  trace.queries.reserve(config.num_queries);

  // Grid cell must exceed twice the largest cone diameter so a 3x3
  // neighborhood covers every potentially intersecting cone.
  double max_radius_deg = config.radius_max_arcmin / 60.0;
  ConeGrid history(std::max(1.0, 4.0 * max_radius_deg));

  // Takes the cone and its ball by value: exact repeats pass history's
  // own, which the Add below would invalidate.
  auto emit = [&](Cone cone, Ball ball, RegionRelation intended) {
    TraceQuery query;
    query.params["ra"] = FormatFixed(cone.ra, 4);
    query.params["dec"] = FormatFixed(cone.dec, 4);
    query.params["radius"] = FormatFixed(cone.radius_arcmin, 2);
    query.intended = intended;
    trace.queries.push_back(std::move(query));
    history.Add(cone, ball);
  };

  auto fresh_cone = [&]() {
    const auto& [hra, hdec] = hotspots[hotspot_pick.Sample(rng)];
    Cone cone;
    cone.ra = RoundTo(hra + rng.NextGaussian() * config.hotspot_sigma_deg, 4);
    cone.dec = RoundTo(hdec + rng.NextGaussian() * config.hotspot_sigma_deg, 4);
    cone.ra = std::clamp(cone.ra, config.ra_min, config.ra_max);
    cone.dec = std::clamp(cone.dec, config.dec_min, config.dec_max);
    cone.radius_arcmin = RoundTo(
        rng.NextDouble(config.radius_min_arcmin, config.radius_max_arcmin), 2);
    return cone;
  };
  auto emit_fresh = [&](RegionRelation intended) {
    Cone cone = fresh_cone();
    emit(cone, cone.ToBall(), intended);
  };

  /// Offsets `parent`'s center by `offset_arcmin` in a random direction.
  auto offset_center = [&](const Cone& parent, double offset_arcmin) {
    double angle = rng.NextDouble(0.0, 2.0 * M_PI);
    double offset_deg = offset_arcmin / 60.0;
    double cos_dec =
        std::max(0.2, std::cos(geometry::DegreesToRadians(parent.dec)));
    Cone cone;
    cone.dec = RoundTo(parent.dec + offset_deg * std::sin(angle), 4);
    cone.ra = RoundTo(parent.ra + offset_deg * std::cos(angle) / cos_dec, 4);
    return cone;
  };

  for (size_t n = 0; n < config.num_queries; ++n) {
    double pick = rng.NextDouble();
    bool have_history = history.size() > 0;

    if (have_history && pick < config.exact_fraction) {
      // Exact repeat of a previous query. Repeats are temporally local
      // (reloads, back-button, colleagues sharing a link), so most pick from
      // recent history.
      size_t index;
      if (history.size() > 500 && rng.NextBool(0.7)) {
        index = history.size() - 500 + rng.NextUint64(500);
      } else {
        index = rng.NextUint64(history.size());
      }
      emit(history.cone(index), history.ball(index), RegionRelation::kEqual);
      continue;
    }

    if (have_history &&
        pick < config.exact_fraction + config.containment_fraction) {
      // A cone contained in a previous one: shrink the radius and keep the
      // center offset under (parent_r - child_r).
      bool emitted = false;
      for (int attempt = 0; attempt < 12 && !emitted; ++attempt) {
        const size_t parent_index = rng.NextUint64(history.size());
        const Cone& parent = history.cone(parent_index);
        double child_r =
            RoundTo(parent.radius_arcmin * rng.NextDouble(0.35, 0.85), 2);
        if (child_r < 0.5) continue;
        double max_offset = (parent.radius_arcmin - child_r) * 0.85;
        Cone child = offset_center(parent, rng.NextDouble(0.0, max_offset));
        child.radius_arcmin = child_r;
        const Ball inner = child.ToBall();
        if (StrictlyInside(inner, history.ball(parent_index))) {
          emit(child, inner, RegionRelation::kContainedBy);
          emitted = true;
        }
      }
      if (emitted) continue;
      emit_fresh(RegionRelation::kDisjoint);
      continue;
    }

    if (have_history && pick < config.exact_fraction +
                                   config.containment_fraction +
                                   config.region_containment_fraction) {
      // Zoom-out: a cone strictly containing a previous one (the region
      // containment special case).
      bool emitted = false;
      for (int attempt = 0; attempt < 12 && !emitted; ++attempt) {
        const size_t parent_index = rng.NextUint64(history.size());
        const Cone& parent = history.cone(parent_index);
        // Modest zoom-outs: the cached cone covers a sizable share of the
        // new region, so the remainder query has real transfer savings.
        double r2 = RoundTo(parent.radius_arcmin * rng.NextDouble(1.25, 1.8), 2);
        if (r2 > config.radius_max_arcmin * 1.8) continue;
        double max_offset = (r2 - parent.radius_arcmin) * 0.8;
        Cone cone = offset_center(parent, rng.NextDouble(0.0, max_offset));
        cone.radius_arcmin = r2;
        const Ball outer = cone.ToBall();
        if (StrictlyInside(history.ball(parent_index), outer)) {
          emit(cone, outer, RegionRelation::kContains);
          emitted = true;
        }
      }
      if (emitted) continue;
      emit_fresh(RegionRelation::kDisjoint);
      continue;
    }

    if (have_history && pick < config.exact_fraction +
                                   config.containment_fraction +
                                   config.region_containment_fraction +
                                   config.overlap_fraction) {
      // Partial overlap: center offset strictly between |r1 - r2| and
      // r1 + r2, biased towards thin intersections — users panning a search
      // window mostly step outward, so cache-intersecting queries share only
      // a sliver with the cache (which is why the paper finds handling them
      // may not be worthwhile).
      bool emitted = false;
      for (int attempt = 0; attempt < 12 && !emitted; ++attempt) {
        const size_t parent_index = rng.NextUint64(history.size());
        const Cone& parent = history.cone(parent_index);
        double r2 = RoundTo(
            std::clamp(parent.radius_arcmin * rng.NextDouble(0.6, 1.4),
                       config.radius_min_arcmin, config.radius_max_arcmin),
            2);
        double lo = std::max(std::abs(parent.radius_arcmin - r2) * 1.15 + 0.2,
                             (parent.radius_arcmin + r2) * 0.70);
        double hi = (parent.radius_arcmin + r2) * 0.92;
        if (lo >= hi) continue;
        Cone cone = offset_center(parent, rng.NextDouble(lo, hi));
        cone.radius_arcmin = r2;
        const Ball ball = cone.ToBall();
        if (Relate(ball, history.ball(parent_index)) ==
            RegionRelation::kOverlap) {
          emit(cone, ball, RegionRelation::kOverlap);
          emitted = true;
        }
      }
      if (emitted) continue;
      emit_fresh(RegionRelation::kDisjoint);
      continue;
    }

    // Fresh query; try to place it disjoint from all prior cones — first at
    // hotspots (users explore near popular sky), then uniformly over the
    // footprint once the hotspots are saturated.
    auto uniform_cone = [&]() {
      Cone cone;
      cone.ra = RoundTo(rng.NextDouble(config.ra_min, config.ra_max), 4);
      cone.dec = RoundTo(rng.NextDouble(config.dec_min, config.dec_max), 4);
      cone.radius_arcmin = RoundTo(
          rng.NextDouble(config.radius_min_arcmin, config.radius_max_arcmin),
          2);
      return cone;
    };
    auto is_disjoint = [&](const Cone& cone, const Ball& ball) {
      return !history.AnyIntersecting(cone, ball);
    };
    Cone cone = fresh_cone();
    Ball ball = cone.ToBall();
    bool placed = is_disjoint(cone, ball);
    for (int attempt = 0; attempt < 24 && !placed; ++attempt) {
      cone = attempt < 8 ? fresh_cone() : uniform_cone();
      ball = cone.ToBall();
      placed = is_disjoint(cone, ball);
    }
    RegionRelation label = RegionRelation::kDisjoint;
    if (!placed) {
      // Dense sky: accept the intersection and label it truthfully. The
      // first non-disjoint cone in visiting order names the label. Relate
      // runs only where the balls intersect: for two balls that do not,
      // it finds no equality or containment either, except between balls
      // of radius under about 1e-9, which no cone of 0.01 arcmin or more
      // has.
      history.VisitNearby(cone, [&](const Ball& other) {
        if (!Intersects(ball, other)) return false;
        label = Relate(ball, other);
        return label != RegionRelation::kDisjoint;
      });
    }
    emit(cone, ball, label);
  }
  return trace;
}

namespace {

struct Box {
  double ra_min, ra_max, dec_min, dec_max;
  geometry::Hyperrectangle Rect() const {
    return geometry::Hyperrectangle({ra_min, dec_min}, {ra_max, dec_max});
  }
};

}  // namespace

Trace GenerateFlashCrowdTrace(const FlashCrowdTraceConfig& config) {
  Trace trace = GenerateRadialTrace(config.base);
  util::Random rng(config.seed);

  const size_t n = trace.queries.size();
  const size_t burst_start = static_cast<size_t>(
      static_cast<double>(n) * std::clamp(config.burst_start_fraction, 0.0, 1.0));
  const size_t burst_end = static_cast<size_t>(
      static_cast<double>(n) * std::clamp(config.burst_end_fraction, 0.0, 1.0));

  Cone hot;
  hot.ra = RoundTo(config.hot_ra, 4);
  hot.dec = RoundTo(config.hot_dec, 4);
  hot.radius_arcmin = RoundTo(config.hot_radius_arcmin, 2);
  const Ball hot_ball = hot.ToBall();

  auto hot_query = [&](const Cone& cone, RegionRelation intended) {
    TraceQuery query;
    query.params["ra"] = FormatFixed(cone.ra, 4);
    query.params["dec"] = FormatFixed(cone.dec, 4);
    query.params["radius"] = FormatFixed(cone.radius_arcmin, 2);
    query.intended = intended;
    return query;
  };

  bool hot_seen = false;
  for (size_t i = burst_start; i < burst_end && i < n; ++i) {
    if (!rng.NextBool(config.burst_hot_fraction)) continue;
    if (!hot_seen) {
      // First touch: the query that makes the hot cone cacheable.
      trace.queries[i] = hot_query(hot, RegionRelation::kDisjoint);
      hot_seen = true;
      continue;
    }
    if (rng.NextBool(config.hot_subsumed_fraction)) {
      // Same center, smaller radius: contained in the hot cone by
      // construction (verified anyway so the label stays ground truth).
      Cone child = hot;
      child.radius_arcmin =
          RoundTo(hot.radius_arcmin * rng.NextDouble(0.4, 0.9), 2);
      if (child.radius_arcmin >= 0.5) {
        if (StrictlyInside(child.ToBall(), hot_ball)) {
          trace.queries[i] = hot_query(child, RegionRelation::kContainedBy);
          continue;
        }
      }
    }
    trace.queries[i] = hot_query(hot, RegionRelation::kEqual);
  }
  return trace;
}

Trace GenerateRectTrace(const RectTraceConfig& config) {
  util::Random rng(config.seed);
  util::ZipfDistribution hotspot_pick(config.num_hotspots,
                                      config.hotspot_zipf_theta);
  std::vector<std::pair<double, double>> hotspots;
  for (size_t i = 0; i < config.num_hotspots; ++i) {
    hotspots.emplace_back(
        rng.NextDouble(config.ra_min + 1, config.ra_max - 1),
        rng.NextDouble(config.dec_min + 1, config.dec_max - 1));
  }

  Trace trace;
  trace.form_path = "/rect";
  trace.queries.reserve(config.num_queries);
  std::vector<Box> history;

  auto emit = [&](const Box& box, RegionRelation intended) {
    TraceQuery query;
    query.params["ra_min"] = FormatFixed(box.ra_min, 4);
    query.params["ra_max"] = FormatFixed(box.ra_max, 4);
    query.params["dec_min"] = FormatFixed(box.dec_min, 4);
    query.params["dec_max"] = FormatFixed(box.dec_max, 4);
    query.intended = intended;
    trace.queries.push_back(std::move(query));
    history.push_back(box);
  };

  auto fresh_box = [&]() {
    const auto& [hra, hdec] = hotspots[hotspot_pick.Sample(rng)];
    double cra = hra + rng.NextGaussian() * config.hotspot_sigma_deg;
    double cdec = hdec + rng.NextGaussian() * config.hotspot_sigma_deg;
    double w = rng.NextDouble(config.width_min_deg, config.width_max_deg);
    double h = rng.NextDouble(config.width_min_deg, config.width_max_deg);
    Box box;
    box.ra_min = RoundTo(cra - w / 2, 4);
    box.ra_max = RoundTo(cra + w / 2, 4);
    box.dec_min = RoundTo(cdec - h / 2, 4);
    box.dec_max = RoundTo(cdec + h / 2, 4);
    return box;
  };

  for (size_t n = 0; n < config.num_queries; ++n) {
    double pick = rng.NextDouble();
    bool have_history = !history.empty();

    if (have_history && pick < config.exact_fraction) {
      emit(history[rng.NextUint64(history.size())], RegionRelation::kEqual);
      continue;
    }
    if (have_history &&
        pick < config.exact_fraction + config.containment_fraction) {
      const Box& parent = history[rng.NextUint64(history.size())];
      double w = parent.ra_max - parent.ra_min;
      double h = parent.dec_max - parent.dec_min;
      Box child;
      double shrink_w = w * rng.NextDouble(0.2, 0.5);
      double shrink_h = h * rng.NextDouble(0.2, 0.5);
      double slide_w = rng.NextDouble(0.0, shrink_w);
      double slide_h = rng.NextDouble(0.0, shrink_h);
      child.ra_min = RoundTo(parent.ra_min + slide_w, 4);
      child.ra_max = RoundTo(parent.ra_max - (shrink_w - slide_w), 4);
      child.dec_min = RoundTo(parent.dec_min + slide_h, 4);
      child.dec_max = RoundTo(parent.dec_max - (shrink_h - slide_h), 4);
      if (child.ra_min < child.ra_max && child.dec_min < child.dec_max &&
          geometry::Contains(parent.Rect(), child.Rect()) &&
          !geometry::Equals(parent.Rect(), child.Rect())) {
        emit(child, RegionRelation::kContainedBy);
      } else {
        emit(fresh_box(), RegionRelation::kDisjoint);
      }
      continue;
    }
    if (have_history && pick < config.exact_fraction +
                                   config.containment_fraction +
                                   config.overlap_fraction) {
      const Box& parent = history[rng.NextUint64(history.size())];
      double w = parent.ra_max - parent.ra_min;
      Box shifted = parent;
      double shift = w * rng.NextDouble(0.3, 0.8);
      shifted.ra_min = RoundTo(shifted.ra_min + shift, 4);
      shifted.ra_max = RoundTo(shifted.ra_max + shift, 4);
      if (geometry::Relate(shifted.Rect(), parent.Rect()) ==
          RegionRelation::kOverlap) {
        emit(shifted, RegionRelation::kOverlap);
      } else {
        emit(fresh_box(), RegionRelation::kDisjoint);
      }
      continue;
    }
    emit(fresh_box(), RegionRelation::kDisjoint);
  }
  return trace;
}

}  // namespace fnproxy::workload
