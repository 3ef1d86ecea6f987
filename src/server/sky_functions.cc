#include "server/sky_functions.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <type_traits>

#include "geometry/celestial.h"
#include "geometry/point.h"

namespace fnproxy::server {

using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;
using util::Status;
using util::StatusOr;

namespace {

/// Column `name` of `table` as an array of T; asserts that it holds one.
template <typename T>
const T* ColumnArray(const sql::ColumnarTable& table, const char* name) {
  const std::optional<size_t> col = table.schema().FindColumn(name);
  assert(col.has_value());
  size_t null_words = 0;
  (void)table.RawNullBits(*col, &null_words);
  assert(null_words == 0);
  (void)null_words;
  if constexpr (std::is_same_v<T, int64_t>) {
    assert(table.storage_kind(*col) == sql::ColumnarTable::StorageKind::kInt);
    return table.RawInts(*col);
  } else {
    assert(table.storage_kind(*col) ==
           sql::ColumnarTable::StorageKind::kDouble);
    return table.RawDoubles(*col);
  }
}

}  // namespace

SkyGrid::SkyGrid(const sql::ColumnarTable* photo_primary, double cell_deg)
    : obj_ids_(ColumnArray<int64_t>(*photo_primary, "objID")),
      ra_(ColumnArray<double>(*photo_primary, "ra")),
      dec_(ColumnArray<double>(*photo_primary, "dec")),
      cx_(ColumnArray<double>(*photo_primary, "cx")),
      cy_(ColumnArray<double>(*photo_primary, "cy")),
      cz_(ColumnArray<double>(*photo_primary, "cz")),
      cell_deg_(cell_deg) {
  const size_t num_rows = photo_primary->num_rows();
  std::vector<int64_t> xs(num_rows), ys(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    xs[i] = static_cast<int64_t>(std::floor(ra_[i] / cell_deg_));
    ys[i] = static_cast<int64_t>(std::floor(dec_[i] / cell_deg_));
  }
  if (num_rows > 0) {
    const auto [x_lo, x_hi] = std::minmax_element(xs.begin(), xs.end());
    const auto [y_lo, y_hi] = std::minmax_element(ys.begin(), ys.end());
    x0_ = *x_lo;
    nx_ = *x_hi - x0_ + 1;
    y0_ = *y_lo;
    ny_ = *y_hi - y0_ + 1;
  }
  // Counting pass, prefix sums, then rows in ascending order into their
  // cells' slots.
  auto cell = [&](size_t i) {
    return static_cast<size_t>((xs[i] - x0_) * ny_ + (ys[i] - y0_));
  };
  starts_.assign(static_cast<size_t>(nx_ * ny_) + 1, 0);
  for (size_t i = 0; i < num_rows; ++i) ++starts_[cell(i) + 1];
  for (size_t c = 1; c < starts_.size(); ++c) starts_[c] += starts_[c - 1];
  rows_.resize(num_rows);
  std::vector<size_t> next(starts_.begin(), starts_.end() - 1);
  for (size_t i = 0; i < num_rows; ++i) rows_[next[cell(i)]++] = i;
}

std::vector<size_t> SkyGrid::Candidates(double ra_min, double ra_max,
                                        double dec_min, double dec_max) const {
  std::vector<size_t> result;
  // Cells outside the occupied block are empty.
  const int64_t cx0 = std::max(
      x0_, static_cast<int64_t>(std::floor(ra_min / cell_deg_)));
  const int64_t cx1 = std::min(
      x0_ + nx_ - 1, static_cast<int64_t>(std::floor(ra_max / cell_deg_)));
  const int64_t cy0 = std::max(
      y0_, static_cast<int64_t>(std::floor(dec_min / cell_deg_)));
  const int64_t cy1 = std::min(
      y0_ + ny_ - 1, static_cast<int64_t>(std::floor(dec_max / cell_deg_)));
  if (cy0 > cy1) return result;
  for (int64_t cx = cx0; cx <= cx1; ++cx) {
    const size_t column = static_cast<size_t>((cx - x0_) * ny_);
    const size_t begin = starts_[column + static_cast<size_t>(cy0 - y0_)];
    const size_t end = starts_[column + static_cast<size_t>(cy1 - y0_) + 1];
    result.insert(result.end(), rows_.begin() + static_cast<ptrdiff_t>(begin),
                  rows_.begin() + static_cast<ptrdiff_t>(end));
  }
  return result;
}

namespace {

StatusOr<double> NumericArg(const std::vector<Value>& args, size_t index,
                            const char* fn_name) {
  if (index >= args.size()) {
    return Status::InvalidArgument(std::string(fn_name) +
                                   ": missing argument " +
                                   std::to_string(index + 1));
  }
  return args[index].ToNumeric();
}

/// fGetNearbyObjEq over the grid.
class GetNearbyObjEq final : public TableValuedFunction {
 public:
  explicit GetNearbyObjEq(const SkyGrid* grid)
      : grid_(grid),
        schema_(Schema({{"objID", ValueType::kInt},
                        {"distance", ValueType::kDouble}})) {}

  const std::string& name() const override { return name_; }
  size_t num_params() const override { return 3; }
  const sql::Schema& schema() const override { return schema_; }

  StatusOr<TvfResult> Execute(const std::vector<Value>& args) const override {
    if (args.size() != 3) {
      return Status::InvalidArgument("fGetNearbyObjEq expects 3 arguments");
    }
    FNPROXY_ASSIGN_OR_RETURN(double ra, NumericArg(args, 0, "fGetNearbyObjEq"));
    FNPROXY_ASSIGN_OR_RETURN(double dec, NumericArg(args, 1, "fGetNearbyObjEq"));
    FNPROXY_ASSIGN_OR_RETURN(double radius_arcmin,
                             NumericArg(args, 2, "fGetNearbyObjEq"));
    if (radius_arcmin < 0) {
      return Status::InvalidArgument("fGetNearbyObjEq: negative radius");
    }

    geometry::Point center = geometry::RaDecToUnitVector(ra, dec);
    double chord = geometry::ArcminToChord(radius_arcmin);
    double chord_sq = chord * chord;

    // Candidate window in ra/dec (the ra width grows with 1/cos(dec)).
    double radius_deg = radius_arcmin / 60.0;
    double cos_dec = std::max(0.05, std::cos(geometry::DegreesToRadians(dec)));
    double ra_pad = radius_deg / cos_dec;
    std::vector<size_t> candidates =
        grid_->Candidates(ra - ra_pad, ra + ra_pad, dec - radius_deg,
                          dec + radius_deg);

    TvfResult result;
    result.table = Table(schema_);
    result.tuples_examined = candidates.size();
    const double* cx = grid_->cx();
    const double* cy = grid_->cy();
    const double* cz = grid_->cz();
    for (size_t idx : candidates) {
      double dx = cx[idx] - center[0];
      double dy = cy[idx] - center[1];
      double dz = cz[idx] - center[2];
      double d_sq = dx * dx + dy * dy + dz * dz;
      if (d_sq <= chord_sq) {
        double sep_arcmin = geometry::AngularSeparationDeg(
                                ra, dec, grid_->ra()[idx], grid_->dec()[idx]) *
                            60.0;
        result.table.AddRow({Value::Int(grid_->obj_ids()[idx]),
                             Value::Double(sep_arcmin)});
      }
    }
    return result;
  }

 private:
  const SkyGrid* grid_;
  std::string name_ = "fGetNearbyObjEq";
  Schema schema_;
};

/// fGetObjFromRect over the grid.
class GetObjFromRect final : public TableValuedFunction {
 public:
  explicit GetObjFromRect(const SkyGrid* grid)
      : grid_(grid), schema_(Schema({{"objID", ValueType::kInt}})) {}

  const std::string& name() const override { return name_; }
  size_t num_params() const override { return 4; }
  const sql::Schema& schema() const override { return schema_; }

  StatusOr<TvfResult> Execute(const std::vector<Value>& args) const override {
    if (args.size() != 4) {
      return Status::InvalidArgument("fGetObjFromRect expects 4 arguments");
    }
    FNPROXY_ASSIGN_OR_RETURN(double ra_min, NumericArg(args, 0, "fGetObjFromRect"));
    FNPROXY_ASSIGN_OR_RETURN(double ra_max, NumericArg(args, 1, "fGetObjFromRect"));
    FNPROXY_ASSIGN_OR_RETURN(double dec_min, NumericArg(args, 2, "fGetObjFromRect"));
    FNPROXY_ASSIGN_OR_RETURN(double dec_max, NumericArg(args, 3, "fGetObjFromRect"));
    if (ra_min > ra_max || dec_min > dec_max) {
      return Status::InvalidArgument("fGetObjFromRect: empty window");
    }

    std::vector<size_t> candidates =
        grid_->Candidates(ra_min, ra_max, dec_min, dec_max);
    TvfResult result;
    result.table = Table(schema_);
    result.tuples_examined = candidates.size();
    for (size_t idx : candidates) {
      double ra = grid_->ra()[idx];
      double dec = grid_->dec()[idx];
      if (ra >= ra_min && ra <= ra_max && dec >= dec_min && dec <= dec_max) {
        result.table.AddRow({Value::Int(grid_->obj_ids()[idx])});
      }
    }
    return result;
  }

 private:
  const SkyGrid* grid_;
  std::string name_ = "fGetObjFromRect";
  Schema schema_;
};

/// fGetObjInTriangle over the grid.
class GetObjInTriangle final : public TableValuedFunction {
 public:
  explicit GetObjInTriangle(const SkyGrid* grid)
      : grid_(grid), schema_(Schema({{"objID", ValueType::kInt}})) {}

  const std::string& name() const override { return name_; }
  size_t num_params() const override { return 6; }
  const sql::Schema& schema() const override { return schema_; }

  StatusOr<TvfResult> Execute(const std::vector<Value>& args) const override {
    if (args.size() != 6) {
      return Status::InvalidArgument("fGetObjInTriangle expects 6 arguments");
    }
    double x[3], y[3];
    for (int i = 0; i < 3; ++i) {
      FNPROXY_ASSIGN_OR_RETURN(
          x[i], NumericArg(args, static_cast<size_t>(2 * i), "fGetObjInTriangle"));
      FNPROXY_ASSIGN_OR_RETURN(
          y[i],
          NumericArg(args, static_cast<size_t>(2 * i + 1), "fGetObjInTriangle"));
    }
    // Signed area > 0 means counterclockwise winding, which the inside test
    // below (and the registered polytope template) assumes.
    double signed_area = (x[1] - x[0]) * (y[2] - y[0]) -
                         (y[1] - y[0]) * (x[2] - x[0]);
    if (signed_area <= 0) {
      return Status::InvalidArgument(
          "fGetObjInTriangle: corners must be in counterclockwise order");
    }

    double ra_min = std::min({x[0], x[1], x[2]});
    double ra_max = std::max({x[0], x[1], x[2]});
    double dec_min = std::min({y[0], y[1], y[2]});
    double dec_max = std::max({y[0], y[1], y[2]});
    std::vector<size_t> candidates =
        grid_->Candidates(ra_min, ra_max, dec_min, dec_max);

    TvfResult result;
    result.table = Table(schema_);
    result.tuples_examined = candidates.size();
    for (size_t idx : candidates) {
      double qx = grid_->ra()[idx];
      double qy = grid_->dec()[idx];
      bool inside = true;
      for (int i = 0; i < 3 && inside; ++i) {
        int j = (i + 1) % 3;
        double cross =
            (x[j] - x[i]) * (qy - y[i]) - (y[j] - y[i]) * (qx - x[i]);
        inside = cross >= 0;
      }
      if (inside) result.table.AddRow({Value::Int(grid_->obj_ids()[idx])});
    }
    return result;
  }

 private:
  const SkyGrid* grid_;
  std::string name_ = "fGetObjInTriangle";
  Schema schema_;
};

}  // namespace

std::unique_ptr<TableValuedFunction> MakeGetObjInTriangle(const SkyGrid* grid) {
  return std::make_unique<GetObjInTriangle>(grid);
}

std::unique_ptr<TableValuedFunction> MakeGetNearbyObjEq(const SkyGrid* grid) {
  return std::make_unique<GetNearbyObjEq>(grid);
}

std::unique_ptr<TableValuedFunction> MakeGetObjFromRect(const SkyGrid* grid) {
  return std::make_unique<GetObjFromRect>(grid);
}

}  // namespace fnproxy::server
