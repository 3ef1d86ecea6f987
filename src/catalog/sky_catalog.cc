#include "catalog/sky_catalog.h"

#include <algorithm>
#include <array>
#include <thread>

#include "geometry/celestial.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fnproxy::catalog {

using sql::Schema;
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

/// The 13 pre-sized columns of SkyCatalogSchema, as raw arrays. The draw
/// pass parks each object's random draws in the object's own cells, and
/// the derive pass replaces them with its values in place:
///   objID    the drawn cluster index, or -1 for a background object
///   ra, dec  clustered: the Box-Muller pair of the (ra, dec) offset;
///            background: ra and dec themselves
///   u, g     the Box-Muller pair of (g - r, u - g)
///   i, z     the Box-Muller pair of (r - i, i - z)
///   r, type and flags are final when drawn; cx, cy and cz wait unset.
/// Gaussian draws stay uniform pairs (util::BoxMuller turns them into
/// normals), so the serial pass only draws.
struct CatalogColumns {
  int64_t* obj_id;
  double* ra;
  double* dec;
  double* cx;
  double* cy;
  double* cz;
  double* u;
  double* g;
  double* r;
  double* i;
  double* z;
  int64_t* type;
  int64_t* flags;
};

/// Makes every random draw of object `n`, in the generator's stream order.
void DrawObject(const SkyCatalogConfig& config, size_t num_centers,
                util::Random& rng, const CatalogColumns& out, size_t n) {
  const bool clustered =
      num_centers > 0 && rng.NextBool(config.cluster_fraction);
  out.obj_id[n] = -1;
  if (clustered) {
    out.obj_id[n] = static_cast<int64_t>(rng.NextUint64(num_centers));
    rng.NextGaussianUniforms(&out.ra[n], &out.dec[n]);
  } else {
    out.ra[n] = rng.NextDouble(config.ra_min, config.ra_max);
    out.dec[n] = rng.NextDouble(config.dec_min, config.dec_max);
  }
  // Magnitudes: r roughly uniform over the survey's depth, colors as
  // offsets so predicates like "g - r < 0.5" select sensible subsets.
  out.r[n] = rng.NextDouble(14.0, 23.0);
  rng.NextGaussianUniforms(&out.u[n], &out.g[n]);
  rng.NextGaussianUniforms(&out.i[n], &out.z[n]);
  // Type: 3 = galaxy, 6 = star (SDSS convention).
  out.type[n] = rng.NextBool(0.6) ? 3 : 6;
  int64_t flags = 0;
  if (rng.NextBool(0.05)) flags |= 0x40000;      // SATURATED
  if (rng.NextBool(0.10)) flags |= 0x2;          // BRIGHT
  if (rng.NextBool(0.08)) flags |= 0x4;          // EDGE
  if (rng.NextBool(0.15)) flags |= 0x8;          // BLENDED
  if (rng.NextBool(0.50)) flags |= 0x10000000;   // BINNED1
  if (rng.NextBool(0.02)) flags |= 0x1000;       // COSMIC_RAY
  out.flags[n] = flags;
}

/// Replaces object `n`'s parked draws with its catalog values: a pure
/// function of those draws.
void DeriveObject(const SkyCatalogConfig& config,
                  const std::vector<Center>& centers,
                  const CatalogColumns& out, size_t n) {
  double ra = out.ra[n];
  double dec = out.dec[n];
  if (out.obj_id[n] >= 0) {
    const Center& c = centers[static_cast<size_t>(out.obj_id[n])];
    const util::GaussianPair offset = util::BoxMuller(ra, dec);
    ra = std::clamp(c.ra + offset.cos * config.cluster_sigma_deg,
                    config.ra_min, config.ra_max);
    dec = std::clamp(c.dec + offset.sin * config.cluster_sigma_deg,
                     config.dec_min, config.dec_max);
  }
  const std::array<double, 3> unit = geometry::RaDecToUnitArray(ra, dec);
  const util::GaussianPair blue = util::BoxMuller(out.u[n], out.g[n]);
  const util::GaussianPair red = util::BoxMuller(out.i[n], out.z[n]);
  const double g_r = blue.cos * 0.4 + 0.6;
  const double u_g = blue.sin * 0.5 + 1.2;
  const double r_i = red.cos * 0.25 + 0.3;
  const double i_z = red.sin * 0.25 + 0.2;
  const double r_mag = out.r[n];

  out.obj_id[n] = static_cast<int64_t>(1000000 + n);
  out.ra[n] = ra;
  out.dec[n] = dec;
  out.cx[n] = unit[0];
  out.cy[n] = unit[1];
  out.cz[n] = unit[2];
  out.u[n] = r_mag + g_r + u_g;
  out.g[n] = r_mag + g_r;
  out.i[n] = r_mag - r_i;
  out.z[n] = r_mag - r_i - i_z;
}

}  // namespace

sql::ColumnarTable GenerateSkyCatalog(
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

  const size_t n = config.num_objects;
  const size_t chunks = (n + kChunkObjects - 1) / kChunkObjects;
  util::ThreadPool pool(std::min<size_t>(
      chunks, std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 8)));

  // Sizing a column zero-fills it, and the page faults of that first touch
  // cost about as much as all the draws, so the workers size one column
  // each while this thread waits.
  Schema schema = SkyCatalogSchema();
  std::vector<sql::ColumnarTable::ColumnData> data(schema.num_columns());
  for (size_t c = 0; c < data.size(); ++c) {
    sql::ColumnarTable::ColumnData& column = data[c];
    const bool is_int = schema.column(c).type == ValueType::kInt;
    column.kind = is_int ? sql::ColumnarTable::StorageKind::kInt
                         : sql::ColumnarTable::StorageKind::kDouble;
    pool.Submit([&column, is_int, n] {
      if (is_int) {
        column.ints.resize(n);
      } else {
        column.doubles.resize(n);
      }
    });
  }
  pool.Wait();
  const CatalogColumns columns{
      data[0].ints.data(),     data[1].doubles.data(),  data[2].doubles.data(),
      data[3].doubles.data(),  data[4].doubles.data(),  data[5].doubles.data(),
      data[6].doubles.data(),  data[7].doubles.data(),  data[8].doubles.data(),
      data[9].doubles.data(),  data[10].doubles.data(), data[11].ints.data(),
      data[12].ints.data()};

  // Two phases. The draws must come from one stream in object order, so
  // this thread makes them all; each object's values are then a pure
  // function of its draws (the Box-Muller and trig arithmetic, most of the
  // work), so contiguous chunks derive in place on a pool, each chunk as
  // soon as its draws are in. The bytes do not depend on the worker count
  // or on which worker derives which chunk.
  auto derive = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      DeriveObject(config, centers, columns, i);
    }
  };
  for (size_t begin = 0; begin < n; begin += kChunkObjects) {
    const size_t end = std::min(n, begin + kChunkObjects);
    for (size_t i = begin; i < end; ++i) {
      DrawObject(config, centers.size(), rng, columns, i);
    }
    pool.Submit([&derive, begin, end] { derive(begin, end); });
  }
  pool.Wait();
  return sql::ColumnarTable::FromColumns(std::move(schema), n,
                                         std::move(data));
}

}  // namespace fnproxy::catalog
