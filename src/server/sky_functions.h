#ifndef FNPROXY_SERVER_SKY_FUNCTIONS_H_
#define FNPROXY_SERVER_SKY_FUNCTIONS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "server/table_function.h"
#include "sql/columnar.h"

namespace fnproxy::server {

/// Shared spatial access structure over the PhotoPrimary table: a uniform
/// (ra, dec) grid used by the sky TVFs to prune candidates, standing in for
/// the HTM index the real SkyServer uses. The referenced table must outlive
/// this object and not change. Its objID column must be INT and its ra,
/// dec, cx, cy and cz columns DOUBLE, without NULLs (the TVFs read them as
/// arrays), and its ra/dec values must be finite degrees.
class SkyGrid {
 public:
  /// `cell_deg` is the grid pitch in degrees.
  explicit SkyGrid(const sql::ColumnarTable* photo_primary,
                   double cell_deg = 1.0);

  /// Row indices of all objects in cells overlapping the ra/dec window,
  /// cell by cell (ra-major) and ascending within a cell.
  /// The window must not wrap around ra=0/360 (survey footprints here don't).
  std::vector<size_t> Candidates(double ra_min, double ra_max, double dec_min,
                                 double dec_max) const;

  /// The catalog's columns as arrays, indexed by row.
  const int64_t* obj_ids() const { return obj_ids_; }
  const double* ra() const { return ra_; }
  const double* dec() const { return dec_; }
  const double* cx() const { return cx_; }
  const double* cy() const { return cy_; }
  const double* cz() const { return cz_; }

 private:
  const int64_t* obj_ids_;
  const double* ra_;
  const double* dec_;
  const double* cx_;
  const double* cy_;
  const double* cz_;
  double cell_deg_;
  /// A dense table over the cells the rows occupy, [x0_, x0_ + nx_) by
  /// [y0_, y0_ + ny_) in cell units, ra-major. Cell c holds the row ids
  /// rows_[starts_[c], starts_[c + 1]), so the cells of one ra column are
  /// one contiguous run of rows_.
  int64_t x0_ = 0, y0_ = 0;
  int64_t nx_ = 0, ny_ = 0;
  std::vector<size_t> starts_;
  std::vector<size_t> rows_;
};

/// fGetNearbyObjEq(ra, dec, radius_arcmin): objects within the angular
/// radius of the position — SkyServer's Radial-search function. Returns
/// (objID INT, distance DOUBLE) with distance in arcminutes.
std::unique_ptr<TableValuedFunction> MakeGetNearbyObjEq(const SkyGrid* grid);

/// fGetObjFromRect(ra_min, ra_max, dec_min, dec_max): objects inside the
/// ra/dec rectangle. Returns (objID INT).
std::unique_ptr<TableValuedFunction> MakeGetObjFromRect(const SkyGrid* grid);

/// fGetObjInTriangle(ra1, dec1, ra2, dec2, ra3, dec3): objects inside the
/// triangle with the given ra/dec corners, which must be in counterclockwise
/// order (rejected otherwise). Returns (objID INT). Demonstrates the
/// polytope-shaped function templates the paper lists as the "more complex"
/// region class.
std::unique_ptr<TableValuedFunction> MakeGetObjInTriangle(const SkyGrid* grid);

}  // namespace fnproxy::server

#endif  // FNPROXY_SERVER_SKY_FUNCTIONS_H_
