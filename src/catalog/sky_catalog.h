#ifndef FNPROXY_CATALOG_SKY_CATALOG_H_
#define FNPROXY_CATALOG_SKY_CATALOG_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "sql/columnar.h"
#include "sql/schema.h"
#include "util/status.h"

namespace fnproxy::catalog {

/// Configuration of the synthetic SDSS-like sky catalog. Objects are drawn
/// from a mixture of Gaussian clusters (galaxy clusters / survey stripes make
/// real skies strongly non-uniform) and a uniform background, inside a
/// rectangular survey footprint.
struct SkyCatalogConfig {
  size_t num_objects = 100000;
  size_t num_clusters = 32;
  /// Fraction of objects drawn from clusters (rest uniform background).
  double cluster_fraction = 0.7;
  /// Cluster spread, degrees (per axis).
  double cluster_sigma_deg = 1.5;
  /// Survey footprint, degrees.
  double ra_min = 120.0;
  double ra_max = 250.0;
  double dec_min = -5.0;
  double dec_max = 65.0;
  uint64_t seed = 42;
};

/// Schema of the generated PhotoPrimary table:
///   objID INT, ra DOUBLE, dec DOUBLE, cx DOUBLE, cy DOUBLE, cz DOUBLE,
///   u DOUBLE, g DOUBLE, r DOUBLE, i DOUBLE, z DOUBLE, type INT, flags INT
/// (cx, cy, cz) is the unit vector of (ra, dec) — the Cartesian coordinates
/// the paper's "result attribute availability" property (§3.1, property 4)
/// requires in cached result tuples.
sql::Schema SkyCatalogSchema();

/// Generates the catalog as typed columns (8 bytes a cell); deterministic in
/// the seed. When `cluster_centers` is non-null it receives the (ra, dec) of
/// each cluster — workload generators target them as query hotspots (users
/// query where the interesting objects are).
sql::ColumnarTable GenerateSkyCatalog(
    const SkyCatalogConfig& config,
    std::vector<std::pair<double, double>>* cluster_centers = nullptr);

/// SkyServer-style photometric flag bits (a small representative subset).
/// fPhotoFlags('SATURATED') returns the bitmask value for the named flag.
util::StatusOr<int64_t> PhotoFlagValue(std::string_view flag_name);

}  // namespace fnproxy::catalog

#endif  // FNPROXY_CATALOG_SKY_CATALOG_H_
