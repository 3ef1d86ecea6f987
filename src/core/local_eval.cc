#include "core/local_eval.h"

#include <algorithm>

#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "sql/eval.h"
#include "util/arena.h"

namespace fnproxy::core {

using sql::Row;
using sql::Table;
using sql::Value;
using util::Status;
using util::StatusOr;

namespace {

/// Per-worker scratch arena for the merge hot path: dedup hash tables and
/// kept-row runs bump-allocate here and are recycled wholesale at the next
/// query instead of churning malloc. Callers Reset() on entry, so scratch
/// never outlives one call.
util::Arena& ScratchArena() {
  static thread_local util::Arena arena;
  return arena;
}

/// The schema positions of `coordinate_columns`, one per dimension of
/// `region`. Both SelectInRegion layouts index the region's parameters by
/// coordinate column, so a count that differs from the region's dimensions
/// is rejected here rather than read past either end.
StatusOr<std::vector<size_t>> CoordinateIndexes(
    const sql::Schema& schema, const geometry::Region& region,
    const std::vector<std::string>& coordinate_columns) {
  if (region.dimensions() != coordinate_columns.size()) {
    return Status::InvalidArgument(
        std::string("region has ") + std::to_string(region.dimensions()) +
        " dimensions but " + std::to_string(coordinate_columns.size()) +
        " coordinate columns");
  }
  std::vector<size_t> coord_indexes;
  coord_indexes.reserve(coordinate_columns.size());
  for (const std::string& name : coordinate_columns) {
    auto idx = schema.FindColumn(name);
    if (!idx.has_value()) {
      return Status::InvalidArgument(
          "cached result lacks coordinate column '" + name +
          "' (violates the result-attribute-availability property)");
    }
    coord_indexes.push_back(*idx);
  }
  return coord_indexes;
}

}  // namespace

StatusOr<LocalEvalResult> SelectInRegion(
    const Table& cached, const geometry::Region& region,
    const std::vector<std::string>& coordinate_columns) {
  FNPROXY_ASSIGN_OR_RETURN(
      std::vector<size_t> coord_indexes,
      CoordinateIndexes(cached.schema(), region, coordinate_columns));

  LocalEvalResult out;
  out.table = Table(cached.schema());
  out.tuples_scanned = cached.num_rows();
  geometry::Point point(coord_indexes.size());
  for (const Row& row : cached.rows()) {
    bool valid = true;
    for (size_t i = 0; i < coord_indexes.size(); ++i) {
      const Value& v = row[coord_indexes[i]];
      auto numeric = v.ToNumeric();
      if (!numeric.ok()) {
        valid = false;
        break;
      }
      point[i] = *numeric;
    }
    if (valid && region.ContainsPointExact(point)) {
      out.table.AddRow(row);
    }
  }
  return out;
}

namespace {

/// Open-addressing hash set for duplicate elimination: 64-bit row hash plus
/// a payload index, linear probing, zero allocations past the two flat
/// arrays. Replaces the historical per-row key strings (ToSqlLiteral
/// concatenation), which allocated a key per tuple; dedup identity is
/// unchanged (see sql::DedupHashRow). True equality is delegated to the
/// caller on hash match, so 64-bit collisions stay correct.
class RowHashSet {
 public:
  /// Backing arrays live in `arena` (not owned); the set is valid until the
  /// arena is reset.
  RowHashSet(size_t expected, util::Arena* arena) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_ = arena->AllocateArray<uint32_t>(cap);
    hashes_ = arena->AllocateArray<uint64_t>(cap);
    std::fill_n(slots_, cap, kEmpty);
    mask_ = cap - 1;
  }

  /// Inserts `index` under `hash` unless `equals(existing_index)` holds for
  /// some already-inserted entry with the same hash; returns true when
  /// inserted (i.e. the row is new).
  template <typename Eq>
  bool InsertIfAbsent(uint64_t hash, uint32_t index, const Eq& equals) {
    size_t pos = hash & mask_;
    while (slots_[pos] != kEmpty) {
      if (hashes_[pos] == hash && equals(slots_[pos])) return false;
      pos = (pos + 1) & mask_;
    }
    slots_[pos] = index;
    hashes_[pos] = hash;
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  uint32_t* slots_ = nullptr;
  uint64_t* hashes_ = nullptr;
  size_t mask_ = 0;
};

}  // namespace

StatusOr<Table> MergeDistinct(const std::vector<const Table*>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("nothing to merge");
  }
  const sql::Schema& schema = parts[0]->schema();
  size_t total_rows = 0;
  for (const Table* part : parts) {
    if (!part->schema().SameColumns(schema)) {
      return Status::InvalidArgument(
          "cannot merge results with different schemas: " +
          part->schema().ToString() + " vs " + schema.ToString());
    }
    total_rows += part->num_rows();
  }
  Table merged(schema);
  util::Arena& arena = ScratchArena();
  arena.Reset();
  RowHashSet seen(total_rows, &arena);
  for (const Table* part : parts) {
    for (const Row& row : part->rows()) {
      bool inserted = seen.InsertIfAbsent(
          sql::DedupHashRow(row), static_cast<uint32_t>(merged.num_rows()),
          [&](uint32_t emitted) {
            return sql::DedupEqualRows(merged.row(emitted), row);
          });
      if (inserted) merged.AddRow(row);
    }
  }
  return merged;
}

StatusOr<Table> ApplyOrderAndTop(const Table& input,
                                 const sql::SelectStatement& stmt) {
  std::vector<size_t> order(input.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  if (!stmt.order_by.empty()) {
    // Order keys must be projected columns at this point: resolve each
    // ORDER BY expression as a column name in the result schema.
    std::vector<std::pair<size_t, bool>> keys;  // (column, descending)
    for (const sql::OrderItem& item : stmt.order_by) {
      if (item.expr->kind != sql::Expr::Kind::kColumnRef) {
        return Status::Unsupported(
            "local ORDER BY supports projected column references only");
      }
      auto idx = input.schema().FindColumn(item.expr->name);
      if (!idx.has_value()) {
        return Status::InvalidArgument("ORDER BY column '" + item.expr->name +
                                       "' is not in the projected result");
      }
      keys.emplace_back(*idx, item.descending);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const auto& [col, desc] : keys) {
        auto cmp = input.row(a)[col].Compare(input.row(b)[col]);
        int c = cmp.ok() ? *cmp : 0;
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    });
  }

  size_t limit = order.size();
  if (stmt.top_n.has_value()) {
    limit = std::min(limit, static_cast<size_t>(*stmt.top_n));
  }
  Table out(input.schema());
  out.Reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    out.AddRow(input.row(order[i]));
  }
  return out;
}

// --- Columnar hot path ------------------------------------------------------

namespace {

using sql::ColumnarTable;
using NumericView = ColumnarTable::NumericView;

// Membership kernels, one scalar pass per region shape over the coordinate
// columns' numeric views. Each writes the indices of the rows inside the
// shape, ascending, into `out` (room for `num_rows`) and returns how many it
// wrote. A row is a candidate when every coordinate column holds a number
// there; the shape test then repeats the shape's ContainsPointExact
// operation for operation, in the same operand order and with no fused
// multiply-add (this file is built with -ffp-contract=off), so the columnar
// scan selects the same rows as the row-wise one, bit for bit. Every row
// stores its index at out[count] and only a selected row advances the
// count, so the compaction does not branch on the match. The region's
// dimensions equal the column count (CoordinateIndexes), and every halfspace
// of a polytope has its dimensions (Polytope::Validate, which the templates
// and the snapshot restore run).

bool RowValid(const NumericView* cols, size_t dims, size_t r) {
  for (size_t d = 0; d < dims; ++d) {
    if (cols[d].valid != nullptr &&
        ((cols[d].valid[r >> 6] >> (r & 63)) & 1u) == 0) {
      return false;
    }
  }
  return true;
}

/// Hypersphere::ContainsPointExact: the squared distance, accumulated in
/// dimension order, against the squared radius.
bool SphereRow(const NumericView* cols, size_t dims, size_t r,
               const double* center, double limit_sq) {
  double sum = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    double diff = cols[d].data[r] - center[d];
    sum += diff * diff;
  }
  return sum <= limit_sq;
}

/// Hyperrectangle::ContainsPointExact: every coordinate within its closed
/// bounds.
bool RectRow(const NumericView* cols, size_t dims, size_t r, const double* lo,
             const double* hi) {
  for (size_t d = 0; d < dims; ++d) {
    double x = cols[d].data[r];
    if (x < lo[d] || x > hi[d]) return false;
  }
  return true;
}

/// Polytope::ContainsPointExact: every halfspace's dot product, accumulated
/// in dimension order, at most its offset.
bool PolytopeRow(const NumericView* cols, size_t dims, size_t r,
                 const std::vector<geometry::Halfspace>& halfspaces) {
  for (const geometry::Halfspace& h : halfspaces) {
    double dot = 0.0;
    for (size_t d = 0; d < dims; ++d) dot += h.normal[d] * cols[d].data[r];
    if (dot > h.offset) return false;
  }
  return true;
}

size_t SelectSphere(const NumericView* cols, size_t num_rows,
                    const geometry::Hypersphere& sphere, uint32_t* out) {
  const size_t dims = sphere.dimensions();
  const double* center = sphere.center().data();
  const double limit_sq = sphere.radius() * sphere.radius();
  size_t count = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    bool keep =
        RowValid(cols, dims, r) && SphereRow(cols, dims, r, center, limit_sq);
    out[count] = static_cast<uint32_t>(r);
    count += keep ? 1u : 0u;
  }
  return count;
}

size_t SelectRect(const NumericView* cols, size_t num_rows,
                  const geometry::Hyperrectangle& rect, uint32_t* out) {
  const size_t dims = rect.dimensions();
  const double* lo = rect.lo().data();
  const double* hi = rect.hi().data();
  size_t count = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    bool keep = RowValid(cols, dims, r) && RectRow(cols, dims, r, lo, hi);
    out[count] = static_cast<uint32_t>(r);
    count += keep ? 1u : 0u;
  }
  return count;
}

size_t SelectPolytope(const NumericView* cols, size_t num_rows,
                      const geometry::Polytope& poly, uint32_t* out) {
  const size_t dims = poly.dimensions();
  size_t count = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    bool keep = RowValid(cols, dims, r) &&
                PolytopeRow(cols, dims, r, poly.halfspaces());
    out[count] = static_cast<uint32_t>(r);
    count += keep ? 1u : 0u;
  }
  return count;
}

}  // namespace

StatusOr<ColumnarSelection> SelectInRegion(
    const ColumnarTable& cached, const geometry::Region& region,
    const std::vector<std::string>& coordinate_columns) {
  FNPROXY_ASSIGN_OR_RETURN(
      std::vector<size_t> coord_indexes,
      CoordinateIndexes(cached.schema(), region, coordinate_columns));
  size_t dims = coord_indexes.size();

  // Resolve each coordinate column to a contiguous double array. Entries
  // admitted through the proxy have these views prepared at admission time;
  // tables built elsewhere (tests) fall back to scratch conversions.
  std::vector<NumericView> views(dims);
  std::vector<std::vector<double>> scratch_values(dims);
  std::vector<std::vector<uint64_t>> scratch_valid(dims);
  for (size_t i = 0; i < dims; ++i) {
    auto view = cached.numeric_view(coord_indexes[i]);
    views[i] = view.has_value()
                   ? *view
                   : cached.BuildNumericView(coord_indexes[i],
                                             &scratch_values[i],
                                             &scratch_valid[i]);
  }

  size_t num_rows = cached.num_rows();
  ColumnarSelection out;
  out.tuples_scanned = num_rows;
  // Membership is exact, like the origin's: a tuple on the far side of the
  // boundary by any margin is not selected. The selection is written dense
  // and trimmed to the matched count.
  out.selection.resize(num_rows);
  uint32_t* sel = out.selection.data();
  size_t count = 0;
  switch (region.kind()) {
    case geometry::ShapeKind::kHypersphere:
      count = SelectSphere(views.data(), num_rows,
                           static_cast<const geometry::Hypersphere&>(region),
                           sel);
      break;
    case geometry::ShapeKind::kHyperrectangle:
      count = SelectRect(views.data(), num_rows,
                         static_cast<const geometry::Hyperrectangle&>(region),
                         sel);
      break;
    case geometry::ShapeKind::kPolytope:
      count = SelectPolytope(views.data(), num_rows,
                             static_cast<const geometry::Polytope&>(region),
                             sel);
      break;
  }
  out.selection.resize(count);
  return out;
}

StatusOr<ColumnarTable> MergeDistinctColumnar(const std::vector<ColumnarSlice>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("nothing to merge");
  }
  const sql::Schema& schema = parts[0].table->schema();
  size_t total_rows = 0;
  for (const ColumnarSlice& part : parts) {
    if (!part.table->schema().SameColumns(schema)) {
      return Status::InvalidArgument(
          "cannot merge results with different schemas: " +
          part.table->schema().ToString() + " vs " + schema.ToString());
    }
    total_rows +=
        part.selection ? part.selection->size() : part.table->num_rows();
  }
  // Phase 1: hash all candidate rows column-major and dedup into a kept
  // list of (part, source row). Equality on hash match compares the source
  // rows directly, so no output row needs to exist yet.
  struct KeptRef {
    uint32_t part;
    uint32_t row;
  };
  util::Arena& arena = ScratchArena();
  arena.Reset();
  KeptRef* kept = arena.AllocateArray<KeptRef>(total_rows);
  size_t kept_count = 0;
  size_t max_part_rows = 0;
  for (const ColumnarSlice& part : parts) {
    max_part_rows = std::max(
        max_part_rows,
        part.selection ? part.selection->size() : part.table->num_rows());
  }
  uint64_t* hashes = arena.AllocateArray<uint64_t>(max_part_rows);
  RowHashSet seen(total_rows, &arena);
  for (size_t p = 0; p < parts.size(); ++p) {
    const ColumnarTable& table = *parts[p].table;
    const uint32_t* rows =
        parts[p].selection ? parts[p].selection->data() : nullptr;
    size_t count =
        parts[p].selection ? parts[p].selection->size() : table.num_rows();
    table.RowDedupHashes(rows, count, hashes);
    for (size_t i = 0; i < count; ++i) {
      uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
      bool inserted = seen.InsertIfAbsent(
          hashes[i], static_cast<uint32_t>(kept_count), [&](uint32_t k) {
            return ColumnarTable::RowsDedupEqual(*parts[kept[k].part].table,
                                                 kept[k].row, table, row);
          });
      if (inserted) {
        kept[kept_count++] = {static_cast<uint32_t>(p), row};
      }
    }
  }
  // Phase 2: copy the kept rows with one batched append per contiguous run
  // of rows from the same part (first occurrence wins, in part order, so the
  // runs are long).
  ColumnarTable merged(schema);
  merged.Reserve(kept_count);
  uint32_t* run = arena.AllocateArray<uint32_t>(kept_count);
  size_t i = 0;
  while (i < kept_count) {
    uint32_t part = kept[i].part;
    size_t run_len = 0;
    while (i < kept_count && kept[i].part == part) run[run_len++] = kept[i++].row;
    merged.AppendRowsFrom(*parts[part].table, run, run_len);
  }
  return merged;
}

namespace {

/// Per-column three-way comparison mirroring Value::Compare with the
/// caller's historical "errors order as equal" behavior: NULLs yield 0.
/// Numeric columns coerce to double even for int/int pairs, exactly like
/// Value::Compare's ToNumeric path.
int CompareCells(const ColumnarTable& table, size_t col, uint32_t a,
                 uint32_t b) {
  if (table.CellIsNull(a, col) || table.CellIsNull(b, col)) return 0;
  switch (table.storage_kind(col)) {
    case ColumnarTable::StorageKind::kInt: {
      double x = static_cast<double>(table.CellInt(a, col));
      double y = static_cast<double>(table.CellInt(b, col));
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ColumnarTable::StorageKind::kDouble: {
      double x = table.CellDouble(a, col);
      double y = table.CellDouble(b, col);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ColumnarTable::StorageKind::kBool: {
      double x = table.CellBool(a, col) ? 1.0 : 0.0;
      double y = table.CellBool(b, col) ? 1.0 : 0.0;
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ColumnarTable::StorageKind::kString: {
      int cmp = table.CellString(a, col).compare(table.CellString(b, col));
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    case ColumnarTable::StorageKind::kAllNull:
      return 0;
  }
  return 0;
}

}  // namespace

StatusOr<std::vector<uint32_t>> ApplyOrderAndTop(
    const ColumnarTable& input, std::vector<uint32_t> selection,
    const sql::SelectStatement& stmt) {
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;  // (column, descending)
    for (const sql::OrderItem& item : stmt.order_by) {
      if (item.expr->kind != sql::Expr::Kind::kColumnRef) {
        return Status::Unsupported(
            "local ORDER BY supports projected column references only");
      }
      auto idx = input.schema().FindColumn(item.expr->name);
      if (!idx.has_value()) {
        return Status::InvalidArgument("ORDER BY column '" + item.expr->name +
                                       "' is not in the projected result");
      }
      keys.emplace_back(*idx, item.descending);
    }
    std::stable_sort(selection.begin(), selection.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (const auto& [col, desc] : keys) {
                         int c = CompareCells(input, col, a, b);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (stmt.top_n.has_value() &&
      selection.size() > static_cast<size_t>(*stmt.top_n)) {
    selection.resize(static_cast<size_t>(*stmt.top_n));
  }
  return selection;
}

}  // namespace fnproxy::core
