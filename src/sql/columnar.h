#ifndef FNPROXY_SQL_COLUMNAR_H_
#define FNPROXY_SQL_COLUMNAR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/schema.h"
#include "sql/value.h"
#include "util/status.h"

namespace fnproxy::sql {

/// Columnar storage for a result table: one typed vector per column instead
/// of rows of std::variant values. This is the representation cached query
/// results live in — the proxy's subsumed-query path ("a spatial region
/// selection query over cached results", paper §3.2) scans coordinate
/// columns as contiguous double arrays and emits selection vectors, never
/// materializing row objects.
///
/// Storage per column, chosen from the declared schema type:
///   INT    -> std::vector<int64_t>
///   DOUBLE -> std::vector<double>
///   BOOL   -> std::vector<uint8_t>
///   STRING -> dictionary encoding (std::vector<uint32_t> codes + dictionary)
///   NULL   -> no storage (every cell is NULL)
/// plus a null bitmap (allocated only when a column actually contains NULLs).
/// Every cell is of its column's declared type or NULL: a cached result
/// answers one query template, whose result document declares each column's
/// type, and TableFromXml parses every cell by it. A frozen column whose
/// every cell is NULL thaws as kAllNull whatever its declared type.
///
/// Thread safety: mutation (appends, PrepareNumericView) must finish before
/// the table is shared; a frozen ColumnarTable is safe for concurrent
/// readers (the CacheStore hands out shared_ptr<const CacheEntry> snapshots).
class ColumnarTable {
 public:
  enum class StorageKind : uint8_t {
    kInt,
    kDouble,
    kBool,
    kString,   ///< Dictionary-encoded.
    kAllNull,  ///< Every cell is NULL (declared NULL, or thawed all-NULL).
  };

  /// A contiguous read-only double view of one column. `valid == nullptr`
  /// means every row holds a numeric value; otherwise bit i set means row i
  /// is numeric (clear = NULL or non-numeric, excluded from region scans
  /// exactly like the row-wise path's failed Value::ToNumeric()).
  struct NumericView {
    const double* data = nullptr;
    const uint64_t* valid = nullptr;
  };

  ColumnarTable() = default;
  explicit ColumnarTable(Schema schema);

  /// Lossless conversion from the row-wise representation, whose every
  /// non-NULL cell must be of its column's declared type: a cell of another
  /// type is a caller's bug and aborts the process with a message naming
  /// the column. Intentionally implicit: CacheEntry results are columnar,
  /// and call sites (the proxy's decoded answers, tests) assign row-wise
  /// tables.
  ColumnarTable(const Table& table);  // NOLINT(google-explicit-constructor)
  ColumnarTable(Table&& table);       // NOLINT(google-explicit-constructor)

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  void Reserve(size_t rows);
  /// Appends one row; must match the schema width (asserted), and every
  /// non-NULL cell its column's type (checked, as for the conversion).
  void AppendRow(const Row& row);
  /// Appends row `src_row` of `src`, which must have the same column types.
  /// Copies without materializing a Value.
  void AppendRowFrom(const ColumnarTable& src, size_t src_row);

  /// Batch form of AppendRowFrom: appends `count` rows of `src` (row indices
  /// in `rows`; nullptr = rows 0..count-1) with one tight copy loop per
  /// column. Dictionary codes are remapped through a per-call cache instead
  /// of one hash lookup per cell.
  void AppendRowsFrom(const ColumnarTable& src, const uint32_t* rows,
                      size_t count);

  /// Lossless conversion back to the row-wise representation.
  Table ToTable() const;
  /// Row `row` of ToTable(), materialized alone.
  Row RowAt(size_t row) const;

  /// Direct column payloads for rebuilding a table without per-cell appends
  /// (the storage tier's thaw path). Field meanings mirror the internal
  /// column storage for each kind; unused vectors stay empty.
  struct ColumnData {
    StorageKind kind = StorageKind::kAllNull;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> bools;
    std::vector<uint32_t> codes;
    std::vector<std::string> dict;
    std::vector<uint64_t> nulls;
    /// Re-prepare the numeric view after installation (frozen segments
    /// record which columns the proxy had prepared at admission).
    bool prepare_view = false;
  };

  /// Installs fully-built columns directly (the inverse of the Raw*
  /// accessors). The caller guarantees each payload matches its `kind` and
  /// `num_rows`; dictionary indexes and prepared views are rebuilt here, so
  /// a thawed table is bit-identical to the one that was frozen.
  static ColumnarTable FromColumns(Schema schema, size_t num_rows,
                                   std::vector<ColumnData> columns);

  /// True when PrepareNumericView ran for `col` on this table.
  bool view_prepared(size_t col) const { return columns_[col].view_prepared; }

  StorageKind storage_kind(size_t col) const { return columns_[col].kind; }
  bool CellIsNull(size_t row, size_t col) const;
  /// Materializes one cell.
  Value CellValue(size_t row, size_t col) const;

  // Typed accessors; calling one for the wrong storage kind is a
  // programming error (asserted in debug builds).
  int64_t CellInt(size_t row, size_t col) const;
  double CellDouble(size_t row, size_t col) const;
  bool CellBool(size_t row, size_t col) const;
  const std::string& CellString(size_t row, size_t col) const;

  /// Builds (and caches inside the table) the contiguous double view of
  /// `col`, so later numeric_view() calls are allocation-free. The proxy
  /// calls this for the coordinate columns at admission time, before the
  /// entry is frozen and shared. Error if `col` is out of range.
  util::Status PrepareNumericView(size_t col);

  /// The cached view, or — for a DOUBLE column without NULLs — a free view
  /// straight over the column storage. std::nullopt when a conversion would
  /// be needed (use BuildNumericView then).
  std::optional<NumericView> numeric_view(size_t col) const;

  /// Builds a view into caller-owned scratch storage (fallback for tables
  /// whose views were never prepared, e.g. entries built directly in tests).
  NumericView BuildNumericView(size_t col, std::vector<double>* value_storage,
                               std::vector<uint64_t>* valid_storage) const;

  /// 64-bit dedup hash of one cell / one whole row. Consistent with
  /// DedupHashValue / DedupHashRow on the materialized values, so columnar
  /// and row-wise MergeDistinct agree.
  uint64_t CellDedupHash(size_t row, size_t col) const;
  uint64_t RowDedupHash(size_t row) const;
  /// Batch form of RowDedupHash: fills `hashes[0..count)` for the given row
  /// indices (nullptr = rows 0..count-1), accumulating column-major so the
  /// per-cell storage-kind dispatch happens once per column, and hashing
  /// each dictionary string once instead of once per cell.
  void RowDedupHashes(const uint32_t* rows, size_t count,
                      uint64_t* hashes) const;
  /// Whole-row dedup equality across two columnar tables of equal width.
  static bool RowsDedupEqual(const ColumnarTable& a, size_t row_a,
                             const ColumnarTable& b, size_t row_b);

  /// Approximate memory footprint (column vectors + dictionaries + bitmaps +
  /// prepared views); the cache's byte accounting is based on this.
  size_t ByteSize() const;

  // Raw storage access for the serializer hot path. Pointers are valid while
  // the table is alive and unmodified; index only rows whose column has the
  // matching storage kind (NULL cells hold unspecified placeholders — check
  // the null bitmap first).
  const int64_t* RawInts(size_t col) const { return columns_[col].ints.data(); }
  const double* RawDoubles(size_t col) const {
    return columns_[col].doubles.data();
  }
  const uint8_t* RawBools(size_t col) const {
    return columns_[col].bools.data();
  }
  const uint32_t* RawStringCodes(size_t col) const {
    return columns_[col].codes.data();
  }
  const std::vector<std::string>& RawDict(size_t col) const {
    return columns_[col].dict;
  }
  /// Null bitmap words (bit set = NULL); `*words` receives the word count.
  /// nullptr when the column holds no NULLs. The bitmap may be shorter than
  /// the row count (trailing rows are non-NULL).
  const uint64_t* RawNullBits(size_t col, size_t* words) const {
    const ColumnStore& c = columns_[col];
    *words = c.nulls.size();
    return c.nulls.empty() ? nullptr : c.nulls.data();
  }

 private:
  struct ColumnStore {
    StorageKind kind = StorageKind::kAllNull;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> bools;
    std::vector<uint32_t> codes;
    std::vector<std::string> dict;
    std::unordered_map<std::string, uint32_t> dict_index;
    /// Bit set = NULL. Empty = no NULLs in the column.
    std::vector<uint64_t> nulls;
    /// Prepared numeric view. `view_values` empty = view reads `doubles`
    /// directly; `view_valid` empty = every row valid.
    bool view_prepared = false;
    std::vector<double> view_values;
    std::vector<uint64_t> view_valid;
  };

  void InitColumns();
  void AppendCell(size_t col, const Value& value);
  /// Appends a NULL as row `row` of `column`.
  static void AppendNull(ColumnStore& column, size_t row);
  uint32_t EncodeString(ColumnStore& column, const std::string& text);

  Schema schema_;
  std::vector<ColumnStore> columns_;
  size_t num_rows_ = 0;
};

/// Dedup identity used by MergeDistinct (both layouts): NULL equals NULL,
/// strings compare by bytes, booleans by value, and Int(x) equals Double(y)
/// exactly when the historical string keys coincided (ToSqlLiteral rendered
/// Int(1) and Double(1.0) both as "1") — without materializing per-row key
/// strings. Doubles compare by bit pattern, so +0.0 / -0.0 stay distinct
/// ("0" vs "-0"), as before.
uint64_t DedupHashValue(const Value& value);
uint64_t DedupHashRow(const Row& row);
bool DedupEqualValues(const Value& a, const Value& b);
bool DedupEqualRows(const Row& a, const Row& b);

}  // namespace fnproxy::sql

#endif  // FNPROXY_SQL_COLUMNAR_H_
