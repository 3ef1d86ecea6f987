#include "catalog/sky_catalog.h"

#include <algorithm>
#include <array>
#include <memory>
#include <thread>

#include "geometry/celestial.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

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

namespace {

/// Objects one parallel set-up task derives.
constexpr size_t kChunkObjects = 8192;

struct Center {
  double ra;
  double dec;
};

/// Every random draw one object makes, taken in the generator's stream
/// order. Gaussian draws stay uniform pairs (util::BoxMuller turns them into
/// normals later), so this record is all the serial pass computes.
struct ObjectDraws {
  bool clustered;
  bool galaxy;
  size_t center;
  /// Clustered: the Box-Muller pair of the (ra, dec) offset. Background:
  /// ra and dec themselves.
  double position[2];
  double r_mag;
  /// The Box-Muller pairs of (g - r, u - g) and (r - i, i - z).
  double colors[2][2];
  int64_t flags;
};

ObjectDraws DrawObject(const SkyCatalogConfig& config, size_t num_centers,
                       util::Random& rng) {
  ObjectDraws d;
  d.clustered = num_centers > 0 && rng.NextBool(config.cluster_fraction);
  d.center = 0;
  if (d.clustered) {
    d.center = rng.NextUint64(num_centers);
    rng.NextGaussianUniforms(&d.position[0], &d.position[1]);
  } else {
    d.position[0] = rng.NextDouble(config.ra_min, config.ra_max);
    d.position[1] = rng.NextDouble(config.dec_min, config.dec_max);
  }
  // Magnitudes: r roughly uniform over the survey's depth, colors as
  // offsets so predicates like "g - r < 0.5" select sensible subsets.
  d.r_mag = rng.NextDouble(14.0, 23.0);
  rng.NextGaussianUniforms(&d.colors[0][0], &d.colors[0][1]);
  rng.NextGaussianUniforms(&d.colors[1][0], &d.colors[1][1]);
  // Type: 3 = galaxy, 6 = star (SDSS convention).
  d.galaxy = rng.NextBool(0.6);
  d.flags = 0;
  if (rng.NextBool(0.05)) d.flags |= 0x40000;      // SATURATED
  if (rng.NextBool(0.10)) d.flags |= 0x2;          // BRIGHT
  if (rng.NextBool(0.08)) d.flags |= 0x4;          // EDGE
  if (rng.NextBool(0.15)) d.flags |= 0x8;          // BLENDED
  if (rng.NextBool(0.50)) d.flags |= 0x10000000;   // BINNED1
  if (rng.NextBool(0.02)) d.flags |= 0x1000;       // COSMIC_RAY
  return d;
}

/// The catalog row of object `n`: a pure function of its draws.
Row DeriveRow(const SkyCatalogConfig& config,
              const std::vector<Center>& centers, const ObjectDraws& d,
              size_t n) {
  double ra = d.position[0];
  double dec = d.position[1];
  if (d.clustered) {
    const Center& c = centers[d.center];
    const util::GaussianPair offset =
        util::BoxMuller(d.position[0], d.position[1]);
    ra = std::clamp(c.ra + offset.cos * config.cluster_sigma_deg,
                    config.ra_min, config.ra_max);
    dec = std::clamp(c.dec + offset.sin * config.cluster_sigma_deg,
                     config.dec_min, config.dec_max);
  }
  const std::array<double, 3> unit = geometry::RaDecToUnitArray(ra, dec);
  const util::GaussianPair blue =
      util::BoxMuller(d.colors[0][0], d.colors[0][1]);
  const util::GaussianPair red =
      util::BoxMuller(d.colors[1][0], d.colors[1][1]);
  const double g_r = blue.cos * 0.4 + 0.6;
  const double u_g = blue.sin * 0.5 + 1.2;
  const double r_i = red.cos * 0.25 + 0.3;
  const double i_z = red.sin * 0.25 + 0.2;

  Row row;
  row.reserve(13);
  row.push_back(Value::Int(static_cast<int64_t>(1000000 + n)));
  row.push_back(Value::Double(ra));
  row.push_back(Value::Double(dec));
  row.push_back(Value::Double(unit[0]));
  row.push_back(Value::Double(unit[1]));
  row.push_back(Value::Double(unit[2]));
  row.push_back(Value::Double(d.r_mag + g_r + u_g));
  row.push_back(Value::Double(d.r_mag + g_r));
  row.push_back(Value::Double(d.r_mag));
  row.push_back(Value::Double(d.r_mag - r_i));
  row.push_back(Value::Double(d.r_mag - r_i - i_z));
  row.push_back(Value::Int(d.galaxy ? 3 : 6));
  row.push_back(Value::Int(d.flags));
  return row;
}

}  // namespace

sql::Table GenerateSkyCatalog(
    const SkyCatalogConfig& config,
    std::vector<std::pair<double, double>>* cluster_centers) {
  util::Random rng(config.seed);

  // Cluster centers inside the footprint (kept away from the borders so
  // most of a cluster stays inside).
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

  // Two phases. The draws must come from one stream in object order, so
  // this thread makes them all; each row is then a pure function of its
  // object's draws (the Box-Muller and trig arithmetic, most of the work),
  // so contiguous chunks derive their rows on a pool, each chunk as soon as
  // its draws are in, into pre-sized slots. The bytes do not depend on the
  // worker count or on which worker derives which chunk.
  const size_t n = config.num_objects;
  const auto draws = std::make_unique_for_overwrite<ObjectDraws[]>(n);
  std::vector<Row> rows(n);
  auto draw = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      draws[i] = DrawObject(config, centers.size(), rng);
    }
  };
  auto derive = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      rows[i] = DeriveRow(config, centers, draws[i], i);
    }
  };
  const size_t chunks = (n + kChunkObjects - 1) / kChunkObjects;
  util::ThreadPool pool(std::min<size_t>(
      chunks, std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 8)));
  for (size_t begin = 0; begin < n; begin += kChunkObjects) {
    const size_t end = std::min(n, begin + kChunkObjects);
    draw(begin, end);
    pool.Submit([&derive, begin, end] { derive(begin, end); });
  }
  pool.Wait();

  Table table(SkyCatalogSchema());
  table.Reserve(n);
  for (Row& row : rows) table.AddRow(std::move(row));
  return table;
}

}  // namespace fnproxy::catalog
