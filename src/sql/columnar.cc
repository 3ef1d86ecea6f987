#include "sql/columnar.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace fnproxy::sql {

using util::Status;

namespace {

// --- Null bitmap helpers (bit set = flagged). The bitmap may be shorter
// than the row count when trailing rows carry no flag; BitGet treats the
// missing tail as clear.

bool BitGet(const std::vector<uint64_t>& bits, size_t i) {
  size_t word = i >> 6;
  return word < bits.size() && ((bits[word] >> (i & 63)) & 1) != 0;
}

void BitSet(std::vector<uint64_t>& bits, size_t i) {
  size_t words = (i >> 6) + 1;
  if (bits.size() < words) bits.resize(words, 0);
  bits[i >> 6] |= uint64_t{1} << (i & 63);
}

uint64_t BitWord(const std::vector<uint64_t>& bits, size_t word) {
  return word < bits.size() ? bits[word] : 0;
}

// --- Dedup identity. One tagged view per cell; hashing and equality are
// defined on the view so the row-wise and columnar layouts agree exactly.

struct CellRef {
  enum class Tag : uint8_t { kNull, kInt, kDouble, kBool, kString };
  Tag tag = Tag::kNull;
  int64_t i = 0;
  double d = 0;
  bool b = false;
  const std::string* s = nullptr;
};

CellRef RefFromValue(const Value& v) {
  CellRef ref;
  switch (v.type()) {
    case ValueType::kNull:
      ref.tag = CellRef::Tag::kNull;
      break;
    case ValueType::kInt:
      ref.tag = CellRef::Tag::kInt;
      ref.i = v.AsInt();
      break;
    case ValueType::kDouble:
      ref.tag = CellRef::Tag::kDouble;
      ref.d = v.AsDouble();
      break;
    case ValueType::kBool:
      ref.tag = CellRef::Tag::kBool;
      ref.b = v.AsBool();
      break;
    case ValueType::kString:
      ref.tag = CellRef::Tag::kString;
      ref.s = &v.AsString();
      break;
  }
  return ref;
}

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

constexpr uint64_t kNullTag = 0x6e756c6cULL;
constexpr uint64_t kIntSalt = 0x696e7434ULL;
constexpr uint64_t kStringSalt = 0x73747267ULL;
constexpr uint64_t kNanTag = 0x6e616e00ULL;
constexpr uint64_t kBoolFalse = 0x626f6f30ULL;
constexpr uint64_t kBoolTrue = 0x626f6f31ULL;

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t HashDoubleCell(double d) {
  // All NaNs of one sign are one dedup value ("nan"/"-nan" under the old
  // string keys), so collapse payloads before hashing bits.
  if (std::isnan(d)) return Mix64(kNanTag ^ (std::signbit(d) ? 1 : 0));
  return Mix64(DoubleBits(d));
}

/// True (and sets *out) when Int(v) and Double((double)v) share a dedup
/// identity, i.e. when the historical string keys coincided:
/// std::to_string(v) == FormatDouble((double)v). That requires v to be
/// exactly representable as a double AND FormatDouble to pick fixed notation
/// (Int(100000) merged with Double(1e5) -> both "100000", but Int(1000000)
/// stayed distinct from Double(1e6) -> "1000000" vs "1e+06").
bool IntRendersAsDouble(int64_t v, double* out) {
  double d = static_cast<double>(v);
  if (d < -9223372036854775808.0 || d >= 9223372036854775808.0) return false;
  if (static_cast<int64_t>(d) != v) return false;
  uint64_t mag = v < 0 ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
  if (mag < (uint64_t{1} << 53)) {
    // Below 2^53 the shortest form of (double)v has exactly v's digits with
    // trailing zeros stripped; %g-style formatting goes scientific iff the
    // exponent reaches both 6 and the significant-digit count — i.e. iff
    // v has >= 7 digits and at least one trailing zero.
    if (mag >= 1000000 && mag % 10 == 0) return false;
  } else {
    // Huge magnitudes: the shortest double form may drop digits entirely;
    // compare the actual renderings (rare path).
    if (util::FormatDouble(d) != std::to_string(v)) return false;
  }
  *out = d;
  return true;
}

uint64_t HashRef(const CellRef& ref) {
  switch (ref.tag) {
    case CellRef::Tag::kNull:
      return Mix64(kNullTag);
    case CellRef::Tag::kInt: {
      double d;
      if (IntRendersAsDouble(ref.i, &d)) return HashDoubleCell(d);
      return Mix64(static_cast<uint64_t>(ref.i) ^ kIntSalt);
    }
    case CellRef::Tag::kDouble:
      return HashDoubleCell(ref.d);
    case CellRef::Tag::kBool:
      return Mix64(ref.b ? kBoolTrue : kBoolFalse);
    case CellRef::Tag::kString: {
      uint64_t h = 1469598103934665603ULL;  // FNV-1a.
      for (unsigned char c : *ref.s) {
        h ^= c;
        h *= 1099511628211ULL;
      }
      return Mix64(h ^ kStringSalt);
    }
  }
  return 0;
}

bool DoublesDedupEqual(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) && std::signbit(a) == std::signbit(b);
  }
  return DoubleBits(a) == DoubleBits(b);
}

bool EqualRef(const CellRef& a, const CellRef& b) {
  using Tag = CellRef::Tag;
  if (a.tag == Tag::kNull || b.tag == Tag::kNull) {
    return a.tag == b.tag;
  }
  if (a.tag == b.tag) {
    switch (a.tag) {
      case Tag::kInt:
        return a.i == b.i;
      case Tag::kDouble:
        return DoublesDedupEqual(a.d, b.d);
      case Tag::kBool:
        return a.b == b.b;
      case Tag::kString:
        return *a.s == *b.s;
      default:
        return false;
    }
  }
  // Cross-type: only int/double can coincide (exactly representable ints).
  if (a.tag == Tag::kInt && b.tag == Tag::kDouble) {
    double d;
    return IntRendersAsDouble(a.i, &d) && !std::isnan(b.d) &&
           DoubleBits(d) == DoubleBits(b.d);
  }
  if (a.tag == Tag::kDouble && b.tag == Tag::kInt) {
    double d;
    return IntRendersAsDouble(b.i, &d) && !std::isnan(a.d) &&
           DoubleBits(d) == DoubleBits(a.d);
  }
  return false;
}

constexpr uint64_t kRowHashSeed = 0x8445d61a4e774912ULL;
constexpr uint32_t kNullCode = 0xFFFFFFFFu;

/// A non-NULL cell of another type than its column's. Every row-wise table
/// a caller converts holds cells of their declared types (TableFromXml
/// parses each by it), so one that does not is a bug, not bad input.
[[noreturn]] void RefuseCell(const Column& column, const Value& value) {
  std::fprintf(stderr,
               "fnproxy ColumnarTable: column '%s' is declared %s but a cell "
               "holds %s %s\n",
               column.name.c_str(), ValueTypeName(column.type),
               ValueTypeName(value.type()), value.ToSqlLiteral().c_str());
  std::abort();
}

}  // namespace

uint64_t DedupHashValue(const Value& value) { return HashRef(RefFromValue(value)); }

bool DedupEqualValues(const Value& a, const Value& b) {
  return EqualRef(RefFromValue(a), RefFromValue(b));
}

uint64_t DedupHashRow(const Row& row) {
  uint64_t h = kRowHashSeed;
  for (const Value& v : row) h = Mix64(h ^ DedupHashValue(v));
  return h;
}

bool DedupEqualRows(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!DedupEqualValues(a[i], b[i])) return false;
  }
  return true;
}

ColumnarTable::ColumnarTable(Schema schema) : schema_(std::move(schema)) {
  InitColumns();
}

ColumnarTable::ColumnarTable(const Table& table) : schema_(table.schema()) {
  InitColumns();
  Reserve(table.num_rows());
  for (const Row& row : table.rows()) AppendRow(row);
}

ColumnarTable::ColumnarTable(Table&& table)
    : ColumnarTable(static_cast<const Table&>(table)) {}

void ColumnarTable::InitColumns() {
  columns_.resize(schema_.num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    switch (schema_.column(i).type) {
      case ValueType::kInt:
        columns_[i].kind = StorageKind::kInt;
        break;
      case ValueType::kDouble:
        columns_[i].kind = StorageKind::kDouble;
        break;
      case ValueType::kBool:
        columns_[i].kind = StorageKind::kBool;
        break;
      case ValueType::kString:
        columns_[i].kind = StorageKind::kString;
        break;
      case ValueType::kNull:
        columns_[i].kind = StorageKind::kAllNull;
        break;
    }
  }
}

void ColumnarTable::Reserve(size_t rows) {
  for (ColumnStore& c : columns_) {
    switch (c.kind) {
      case StorageKind::kInt:
        c.ints.reserve(rows);
        break;
      case StorageKind::kDouble:
        c.doubles.reserve(rows);
        break;
      case StorageKind::kBool:
        c.bools.reserve(rows);
        break;
      case StorageKind::kString:
        c.codes.reserve(rows);
        break;
      case StorageKind::kAllNull:
        break;
    }
  }
}

void ColumnarTable::AppendNull(ColumnStore& column, size_t row) {
  switch (column.kind) {
    case StorageKind::kInt:
      column.ints.push_back(0);
      break;
    case StorageKind::kDouble:
      column.doubles.push_back(0.0);
      break;
    case StorageKind::kBool:
      column.bools.push_back(0);
      break;
    case StorageKind::kString:
      column.codes.push_back(kNullCode);
      break;
    case StorageKind::kAllNull:
      return;  // No storage; every cell is NULL by definition.
  }
  BitSet(column.nulls, row);
}

uint32_t ColumnarTable::EncodeString(ColumnStore& column,
                                     const std::string& text) {
  auto it = column.dict_index.find(text);
  if (it != column.dict_index.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(column.dict.size());
  column.dict.push_back(text);
  column.dict_index.emplace(text, code);
  return code;
}

void ColumnarTable::AppendCell(size_t col, const Value& value) {
  ColumnStore& c = columns_[col];
  if (value.is_null()) {
    AppendNull(c, num_rows_);
    return;
  }
  switch (c.kind) {
    case StorageKind::kInt:
      if (value.type() == ValueType::kInt) {
        c.ints.push_back(value.AsInt());
        return;
      }
      break;
    case StorageKind::kDouble:
      if (value.type() == ValueType::kDouble) {
        c.doubles.push_back(value.AsDouble());
        return;
      }
      break;
    case StorageKind::kBool:
      if (value.type() == ValueType::kBool) {
        c.bools.push_back(value.AsBool() ? 1 : 0);
        return;
      }
      break;
    case StorageKind::kString:
      if (value.type() == ValueType::kString) {
        c.codes.push_back(EncodeString(c, value.AsString()));
        return;
      }
      break;
    case StorageKind::kAllNull:
      break;
  }
  RefuseCell(schema_.column(col), value);
}

void ColumnarTable::AppendRow(const Row& row) {
  assert(row.size() == schema_.num_columns());
  for (size_t i = 0; i < row.size(); ++i) AppendCell(i, row[i]);
  ++num_rows_;
}

void ColumnarTable::AppendRowFrom(const ColumnarTable& src, size_t src_row) {
  assert(src.num_columns() == num_columns());
  for (size_t col = 0; col < columns_.size(); ++col) {
    const ColumnStore& s = src.columns_[col];
    ColumnStore& d = columns_[col];
    if (src.CellIsNull(src_row, col)) {
      AppendNull(d, num_rows_);
      continue;
    }
    assert(s.kind == d.kind);
    switch (s.kind) {
      case StorageKind::kInt:
        d.ints.push_back(s.ints[src_row]);
        break;
      case StorageKind::kDouble:
        d.doubles.push_back(s.doubles[src_row]);
        break;
      case StorageKind::kBool:
        d.bools.push_back(s.bools[src_row]);
        break;
      case StorageKind::kString:
        d.codes.push_back(EncodeString(d, s.dict[s.codes[src_row]]));
        break;
      case StorageKind::kAllNull:
        break;  // Unreachable: a kAllNull cell is NULL.
    }
  }
  ++num_rows_;
}

void ColumnarTable::AppendRowsFrom(const ColumnarTable& src,
                                   const uint32_t* rows, size_t count) {
  assert(src.num_columns() == num_columns());
  if (count == 0) return;
  size_t base = num_rows_;
  std::vector<uint32_t> code_remap;  // Per-call dictionary remap cache.
  for (size_t col = 0; col < columns_.size(); ++col) {
    const ColumnStore& s = src.columns_[col];
    ColumnStore& d = columns_[col];
    bool src_has_nulls = !s.nulls.empty();
    // A thawed all-NULL column is kAllNull whatever its declared type.
    assert(s.kind == d.kind || s.kind == StorageKind::kAllNull);
    switch (s.kind) {
      case StorageKind::kInt:
        d.ints.reserve(d.ints.size() + count);
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          d.ints.push_back(s.ints[r]);
          if (src_has_nulls && BitGet(s.nulls, r)) BitSet(d.nulls, base + i);
        }
        break;
      case StorageKind::kDouble:
        d.doubles.reserve(d.doubles.size() + count);
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          d.doubles.push_back(s.doubles[r]);
          if (src_has_nulls && BitGet(s.nulls, r)) BitSet(d.nulls, base + i);
        }
        break;
      case StorageKind::kBool:
        d.bools.reserve(d.bools.size() + count);
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          d.bools.push_back(s.bools[r]);
          if (src_has_nulls && BitGet(s.nulls, r)) BitSet(d.nulls, base + i);
        }
        break;
      case StorageKind::kString:
        d.codes.reserve(d.codes.size() + count);
        code_remap.assign(s.dict.size(), kNullCode);
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          uint32_t code = s.codes[r];
          if (code == kNullCode ||
              (src_has_nulls && BitGet(s.nulls, r))) {
            d.codes.push_back(kNullCode);
            BitSet(d.nulls, base + i);
            continue;
          }
          if (code_remap[code] == kNullCode) {
            code_remap[code] = EncodeString(d, s.dict[code]);
          }
          d.codes.push_back(code_remap[code]);
        }
        break;
      case StorageKind::kAllNull:
        for (size_t i = 0; i < count; ++i) AppendNull(d, base + i);
        break;
    }
  }
  num_rows_ += count;
}

bool ColumnarTable::CellIsNull(size_t row, size_t col) const {
  const ColumnStore& c = columns_[col];
  return c.kind == StorageKind::kAllNull || BitGet(c.nulls, row);
}

Value ColumnarTable::CellValue(size_t row, size_t col) const {
  const ColumnStore& c = columns_[col];
  if (CellIsNull(row, col)) return Value::Null();
  switch (c.kind) {
    case StorageKind::kInt:
      return Value::Int(c.ints[row]);
    case StorageKind::kDouble:
      return Value::Double(c.doubles[row]);
    case StorageKind::kBool:
      return Value::Bool(c.bools[row] != 0);
    case StorageKind::kString:
      return Value::String(c.dict[c.codes[row]]);
    case StorageKind::kAllNull:
      break;
  }
  return Value::Null();
}

int64_t ColumnarTable::CellInt(size_t row, size_t col) const {
  assert(columns_[col].kind == StorageKind::kInt);
  return columns_[col].ints[row];
}

double ColumnarTable::CellDouble(size_t row, size_t col) const {
  assert(columns_[col].kind == StorageKind::kDouble);
  return columns_[col].doubles[row];
}

bool ColumnarTable::CellBool(size_t row, size_t col) const {
  assert(columns_[col].kind == StorageKind::kBool);
  return columns_[col].bools[row] != 0;
}

const std::string& ColumnarTable::CellString(size_t row, size_t col) const {
  const ColumnStore& c = columns_[col];
  assert(c.kind == StorageKind::kString);
  return c.dict[c.codes[row]];
}

Table ColumnarTable::ToTable() const {
  Table table(schema_);
  table.Reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) table.AddRow(RowAt(r));
  return table;
}

Row ColumnarTable::RowAt(size_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) out.push_back(CellValue(row, c));
  return out;
}

ColumnarTable ColumnarTable::FromColumns(Schema schema, size_t num_rows,
                                         std::vector<ColumnData> columns) {
  ColumnarTable table(std::move(schema));
  assert(columns.size() == table.columns_.size());
  table.num_rows_ = num_rows;
  for (size_t i = 0; i < columns.size(); ++i) {
    ColumnData& src = columns[i];
    ColumnStore& dst = table.columns_[i];
    dst.kind = src.kind;
    dst.ints = std::move(src.ints);
    dst.doubles = std::move(src.doubles);
    dst.bools = std::move(src.bools);
    dst.codes = std::move(src.codes);
    dst.dict = std::move(src.dict);
    dst.nulls = std::move(src.nulls);
    dst.dict_index.reserve(dst.dict.size());
    for (size_t code = 0; code < dst.dict.size(); ++code) {
      dst.dict_index.emplace(dst.dict[code], static_cast<uint32_t>(code));
    }
    if (src.prepare_view) (void)table.PrepareNumericView(i);
  }
  return table;
}

ColumnarTable::NumericView ColumnarTable::BuildNumericView(
    size_t col, std::vector<double>* value_storage,
    std::vector<uint64_t>* valid_storage) const {
  const ColumnStore& c = columns_[col];
  size_t n = num_rows_;
  size_t words = (n + 63) / 64;
  auto complement_nulls = [&]() {
    valid_storage->resize(words);
    for (size_t w = 0; w < words; ++w) {
      (*valid_storage)[w] = ~BitWord(c.nulls, w);
    }
  };
  switch (c.kind) {
    case StorageKind::kDouble:
      if (c.nulls.empty()) return {c.doubles.data(), nullptr};
      complement_nulls();
      return {c.doubles.data(), valid_storage->data()};
    case StorageKind::kInt: {
      value_storage->resize(n);
      for (size_t i = 0; i < n; ++i) {
        (*value_storage)[i] = static_cast<double>(c.ints[i]);
      }
      if (c.nulls.empty()) return {value_storage->data(), nullptr};
      complement_nulls();
      return {value_storage->data(), valid_storage->data()};
    }
    case StorageKind::kBool: {
      value_storage->resize(n);
      for (size_t i = 0; i < n; ++i) {
        (*value_storage)[i] = c.bools[i] ? 1.0 : 0.0;
      }
      if (c.nulls.empty()) return {value_storage->data(), nullptr};
      complement_nulls();
      return {value_storage->data(), valid_storage->data()};
    }
    case StorageKind::kString:
    case StorageKind::kAllNull:
      // Not numeric: every row is invalid, matching the row-wise path where
      // Value::ToNumeric() fails and the row is skipped.
      value_storage->assign(n, 0.0);
      valid_storage->assign(words, 0);
      return {value_storage->data(), valid_storage->data()};
  }
  return {};
}

util::Status ColumnarTable::PrepareNumericView(size_t col) {
  if (col >= columns_.size()) {
    return Status::InvalidArgument("column index out of range");
  }
  ColumnStore& c = columns_[col];
  if (c.view_prepared) return Status::Ok();
  BuildNumericView(col, &c.view_values, &c.view_valid);
  c.view_prepared = true;
  return Status::Ok();
}

std::optional<ColumnarTable::NumericView> ColumnarTable::numeric_view(
    size_t col) const {
  const ColumnStore& c = columns_[col];
  if (c.view_prepared) {
    return NumericView{
        c.view_values.empty() ? c.doubles.data() : c.view_values.data(),
        c.view_valid.empty() ? nullptr : c.view_valid.data()};
  }
  if (c.kind == StorageKind::kDouble && c.nulls.empty()) {
    return NumericView{c.doubles.data(), nullptr};
  }
  return std::nullopt;
}

uint64_t ColumnarTable::CellDedupHash(size_t row, size_t col) const {
  const ColumnStore& c = columns_[col];
  if (CellIsNull(row, col)) return Mix64(kNullTag);
  CellRef ref;
  switch (c.kind) {
    case StorageKind::kInt:
      ref.tag = CellRef::Tag::kInt;
      ref.i = c.ints[row];
      break;
    case StorageKind::kDouble:
      ref.tag = CellRef::Tag::kDouble;
      ref.d = c.doubles[row];
      break;
    case StorageKind::kBool:
      ref.tag = CellRef::Tag::kBool;
      ref.b = c.bools[row] != 0;
      break;
    case StorageKind::kString:
      ref.tag = CellRef::Tag::kString;
      ref.s = &c.dict[c.codes[row]];
      break;
    case StorageKind::kAllNull:
      break;  // Unreachable: handled by CellIsNull above.
  }
  return HashRef(ref);
}

uint64_t ColumnarTable::RowDedupHash(size_t row) const {
  uint64_t h = kRowHashSeed;
  for (size_t col = 0; col < columns_.size(); ++col) {
    h = Mix64(h ^ CellDedupHash(row, col));
  }
  return h;
}

void ColumnarTable::RowDedupHashes(const uint32_t* rows, size_t count,
                                   uint64_t* hashes) const {
  for (size_t i = 0; i < count; ++i) hashes[i] = kRowHashSeed;
  const uint64_t null_hash = Mix64(kNullTag);
  std::vector<uint64_t> dict_hashes;  // Reused across string columns.
  for (const ColumnStore& c : columns_) {
    bool has_nulls = !c.nulls.empty();
    switch (c.kind) {
      case StorageKind::kInt:
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          uint64_t h;
          if (has_nulls && BitGet(c.nulls, r)) {
            h = null_hash;
          } else {
            double d;
            h = IntRendersAsDouble(c.ints[r], &d)
                    ? HashDoubleCell(d)
                    : Mix64(static_cast<uint64_t>(c.ints[r]) ^ kIntSalt);
          }
          hashes[i] = Mix64(hashes[i] ^ h);
        }
        break;
      case StorageKind::kDouble:
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          uint64_t h = (has_nulls && BitGet(c.nulls, r))
                           ? null_hash
                           : HashDoubleCell(c.doubles[r]);
          hashes[i] = Mix64(hashes[i] ^ h);
        }
        break;
      case StorageKind::kBool:
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          uint64_t h = (has_nulls && BitGet(c.nulls, r))
                           ? null_hash
                           : Mix64(c.bools[r] != 0 ? kBoolTrue : kBoolFalse);
          hashes[i] = Mix64(hashes[i] ^ h);
        }
        break;
      case StorageKind::kString: {
        // Hash every dictionary entry once, not once per referencing cell.
        dict_hashes.resize(c.dict.size());
        for (size_t k = 0; k < c.dict.size(); ++k) {
          CellRef ref;
          ref.tag = CellRef::Tag::kString;
          ref.s = &c.dict[k];
          dict_hashes[k] = HashRef(ref);
        }
        for (size_t i = 0; i < count; ++i) {
          size_t r = rows ? rows[i] : i;
          uint32_t code = c.codes[r];
          uint64_t h = code == kNullCode ? null_hash : dict_hashes[code];
          hashes[i] = Mix64(hashes[i] ^ h);
        }
        break;
      }
      case StorageKind::kAllNull:
        for (size_t i = 0; i < count; ++i) {
          hashes[i] = Mix64(hashes[i] ^ null_hash);
        }
        break;
    }
  }
}

namespace {

CellRef RefFromColumn(const ColumnarTable& t, size_t row, size_t col) {
  CellRef ref;
  if (t.CellIsNull(row, col)) return ref;
  switch (t.storage_kind(col)) {
    case ColumnarTable::StorageKind::kInt:
      ref.tag = CellRef::Tag::kInt;
      ref.i = t.CellInt(row, col);
      break;
    case ColumnarTable::StorageKind::kDouble:
      ref.tag = CellRef::Tag::kDouble;
      ref.d = t.CellDouble(row, col);
      break;
    case ColumnarTable::StorageKind::kBool:
      ref.tag = CellRef::Tag::kBool;
      ref.b = t.CellBool(row, col);
      break;
    case ColumnarTable::StorageKind::kString:
      ref.tag = CellRef::Tag::kString;
      ref.s = &t.CellString(row, col);
      break;
    case ColumnarTable::StorageKind::kAllNull:
      break;
  }
  return ref;
}

}  // namespace

bool ColumnarTable::RowsDedupEqual(const ColumnarTable& a, size_t row_a,
                                   const ColumnarTable& b, size_t row_b) {
  assert(a.num_columns() == b.num_columns());
  for (size_t col = 0; col < a.num_columns(); ++col) {
    CellRef ref_a = RefFromColumn(a, row_a, col);
    CellRef ref_b = RefFromColumn(b, row_b, col);
    if (!EqualRef(ref_a, ref_b)) return false;
  }
  return true;
}

size_t ColumnarTable::ByteSize() const {
  size_t total = 64;
  for (const ColumnStore& c : columns_) {
    total += 48;
    total += c.ints.size() * sizeof(int64_t);
    total += c.doubles.size() * sizeof(double);
    total += c.bools.size();
    total += c.codes.size() * sizeof(uint32_t);
    for (const std::string& s : c.dict) total += s.size() + 32;
    total += c.nulls.size() * sizeof(uint64_t);
    total += c.view_values.size() * sizeof(double);
    total += c.view_valid.size() * sizeof(uint64_t);
  }
  return total;
}

}  // namespace fnproxy::sql
