#ifndef FNPROXY_CORE_LOCAL_EVAL_H_
#define FNPROXY_CORE_LOCAL_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/region.h"
#include "sql/ast.h"
#include "sql/columnar.h"
#include "sql/schema.h"
#include "util/status.h"

namespace fnproxy::core {

/// The proxy's local Query Processor for subsumed queries (paper §3.2 case
/// b): "the evaluation of a subsumed query becomes that of a spatial region
/// selection query over cached results". Given cached result tuples and the
/// new query's region, selects the tuples whose coordinate columns fall in
/// the region under exact comparisons, as the origin selects them.
/// `tuples_scanned` reports the work done (feeds the proxy cost model).
/// InvalidArgument when a coordinate column is missing, or when the region's
/// dimension count differs from the number of coordinate columns.
struct LocalEvalResult {
  sql::Table table;
  size_t tuples_scanned = 0;
};

util::StatusOr<LocalEvalResult> SelectInRegion(
    const sql::Table& cached, const geometry::Region& region,
    const std::vector<std::string>& coordinate_columns);

/// Merges result tables with identical schemas, removing duplicate rows
/// (tuples appear in several cached results when regions overlapped).
/// Row identity is whole-row value equality.
util::StatusOr<sql::Table> MergeDistinct(
    const std::vector<const sql::Table*>& parts);

/// Applies the new query's ORDER BY / TOP to a merged table (the remainder
/// query is shipped without them; see BuildRemainderQuery).
util::StatusOr<sql::Table> ApplyOrderAndTop(const sql::Table& input,
                                            const sql::SelectStatement& stmt);

// --- Columnar hot path ------------------------------------------------------
//
// Cached results are stored columnar (core::CacheEntry); the subsumed-query
// pipeline below never materializes row objects: the region scan runs one
// membership kernel per region shape over pre-resolved coordinate arrays
// and emits a selection vector, which flows through dedup/order straight
// into XML serialization (sql::TableToXml selection overload).

/// Result of a columnar region scan: indices of the cached rows inside the
/// region, in row order.
struct ColumnarSelection {
  std::vector<uint32_t> selection;
  size_t tuples_scanned = 0;
};

/// Columnar SelectInRegion. Produces exactly the rows the row-wise overload
/// selects (same float semantics as Region::ContainsPointExact, same handling
/// of NULL / non-numeric coordinates, same errors), as a selection vector
/// instead of copies.
util::StatusOr<ColumnarSelection> SelectInRegion(
    const sql::ColumnarTable& cached, const geometry::Region& region,
    const std::vector<std::string>& coordinate_columns);

/// One merge input: a columnar table, optionally restricted to the rows in
/// `selection` (nullptr = all rows), in selection order.
struct ColumnarSlice {
  const sql::ColumnarTable* table = nullptr;
  const std::vector<uint32_t>* selection = nullptr;
};

/// Columnar MergeDistinct: 64-bit row hashes with equality fallback on
/// collision; first occurrence wins, matching the row-wise overload.
util::StatusOr<sql::ColumnarTable> MergeDistinctColumnar(
    const std::vector<ColumnarSlice>& parts);

/// Columnar ApplyOrderAndTop: reorders/limits `selection` (indices into
/// `input`) per the statement's ORDER BY / TOP. Same ordering semantics and
/// error messages as the row-wise overload.
util::StatusOr<std::vector<uint32_t>> ApplyOrderAndTop(
    const sql::ColumnarTable& input, std::vector<uint32_t> selection,
    const sql::SelectStatement& stmt);

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_LOCAL_EVAL_H_
