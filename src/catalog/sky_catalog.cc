#include "catalog/sky_catalog.h"

#include <algorithm>
#include <cmath>

#include "geometry/celestial.h"
#include "util/random.h"
#include "util/string_util.h"

namespace fnproxy::catalog {

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

sql::Schema SkyCatalogSchema() {
  return Schema({{"objID", ValueType::kInt},
                 {"ra", ValueType::kDouble},
                 {"dec", ValueType::kDouble},
                 {"cx", ValueType::kDouble},
                 {"cy", ValueType::kDouble},
                 {"cz", ValueType::kDouble},
                 {"u", ValueType::kDouble},
                 {"g", ValueType::kDouble},
                 {"r", ValueType::kDouble},
                 {"i", ValueType::kDouble},
                 {"z", ValueType::kDouble},
                 {"type", ValueType::kInt},
                 {"flags", ValueType::kInt}});
}

namespace {

struct NamedFlag {
  std::string_view name;
  int64_t value;
};

/// Subset of the SDSS PhotoFlags bit definitions.
constexpr NamedFlag kPhotoFlags[] = {
    {"CANONICAL_CENTER", 0x1},
    {"BRIGHT", 0x2},
    {"EDGE", 0x4},
    {"BLENDED", 0x8},
    {"CHILD", 0x10},
    {"PEAKCENTER", 0x20},
    {"NODEBLEND", 0x40},
    {"NOPROFILE", 0x80},
    {"NOPETRO", 0x100},
    {"MANYPETRO", 0x200},
    {"COSMIC_RAY", 0x1000},
    {"MANYR50", 0x2000},
    {"MANYR90", 0x4000},
    {"SATURATED", 0x40000},
    {"NOTCHECKED", 0x80000},
    {"BINNED1", 0x10000000},
    {"BINNED2", 0x20000000},
};

}  // namespace

util::StatusOr<int64_t> PhotoFlagValue(std::string_view flag_name) {
  for (const NamedFlag& flag : kPhotoFlags) {
    if (util::EqualsIgnoreCase(flag.name, flag_name)) return flag.value;
  }
  return util::Status::NotFound("unknown photo flag '" +
                                std::string(flag_name) + "'");
}

sql::Table GenerateSkyCatalog(
    const SkyCatalogConfig& config,
    std::vector<std::pair<double, double>>* cluster_centers) {
  util::Random rng(config.seed);
  Table table(SkyCatalogSchema());
  table.Reserve(config.num_objects);

  // Cluster centers inside the footprint (kept away from the borders so
  // most of a cluster stays inside).
  struct Center {
    double ra;
    double dec;
  };
  std::vector<Center> centers;
  centers.reserve(config.num_clusters);
  double ra_margin = 0.05 * (config.ra_max - config.ra_min);
  double dec_margin = 0.05 * (config.dec_max - config.dec_min);
  for (size_t i = 0; i < config.num_clusters; ++i) {
    centers.push_back(
        {rng.NextDouble(config.ra_min + ra_margin, config.ra_max - ra_margin),
         rng.NextDouble(config.dec_min + dec_margin,
                        config.dec_max - dec_margin)});
  }

  if (cluster_centers != nullptr) {
    cluster_centers->clear();
    for (const Center& c : centers) cluster_centers->emplace_back(c.ra, c.dec);
  }

  for (size_t n = 0; n < config.num_objects; ++n) {
    double ra, dec;
    if (!centers.empty() && rng.NextBool(config.cluster_fraction)) {
      const Center& c = centers[rng.NextUint64(centers.size())];
      ra = c.ra + rng.NextGaussian() * config.cluster_sigma_deg;
      dec = c.dec + rng.NextGaussian() * config.cluster_sigma_deg;
      ra = std::clamp(ra, config.ra_min, config.ra_max);
      dec = std::clamp(dec, config.dec_min, config.dec_max);
    } else {
      ra = rng.NextDouble(config.ra_min, config.ra_max);
      dec = rng.NextDouble(config.dec_min, config.dec_max);
    }
    // geometry::RaDecToUnitVector, without its heap-allocated Point.
    const double ra_rad = geometry::DegreesToRadians(ra);
    const double dec_rad = geometry::DegreesToRadians(dec);
    const double cos_dec = std::cos(dec_rad);

    // Magnitudes: r roughly uniform over the survey's depth, colors as
    // offsets so predicates like "g - r < 0.5" select sensible subsets.
    double r_mag = rng.NextDouble(14.0, 23.0);
    double g_r = rng.NextGaussian() * 0.4 + 0.6;
    double u_g = rng.NextGaussian() * 0.5 + 1.2;
    double r_i = rng.NextGaussian() * 0.25 + 0.3;
    double i_z = rng.NextGaussian() * 0.25 + 0.2;

    // Type: 3 = galaxy, 6 = star (SDSS convention).
    int64_t type = rng.NextBool(0.6) ? 3 : 6;

    int64_t flags = 0;
    if (rng.NextBool(0.05)) flags |= 0x40000;      // SATURATED
    if (rng.NextBool(0.10)) flags |= 0x2;          // BRIGHT
    if (rng.NextBool(0.08)) flags |= 0x4;          // EDGE
    if (rng.NextBool(0.15)) flags |= 0x8;          // BLENDED
    if (rng.NextBool(0.50)) flags |= 0x10000000;   // BINNED1
    if (rng.NextBool(0.02)) flags |= 0x1000;       // COSMIC_RAY

    Row row;
    row.reserve(13);
    row.push_back(Value::Int(static_cast<int64_t>(1000000 + n)));
    row.push_back(Value::Double(ra));
    row.push_back(Value::Double(dec));
    row.push_back(Value::Double(std::cos(ra_rad) * cos_dec));
    row.push_back(Value::Double(std::sin(ra_rad) * cos_dec));
    row.push_back(Value::Double(std::sin(dec_rad)));
    row.push_back(Value::Double(r_mag + g_r + u_g));
    row.push_back(Value::Double(r_mag + g_r));
    row.push_back(Value::Double(r_mag));
    row.push_back(Value::Double(r_mag - r_i));
    row.push_back(Value::Double(r_mag - r_i - i_z));
    row.push_back(Value::Int(type));
    row.push_back(Value::Int(flags));
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace fnproxy::catalog
