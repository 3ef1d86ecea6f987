#include "storage/segment.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "storage/wire.h"

namespace fnproxy::storage {

using sql::ColumnarTable;
using sql::Value;
using util::Status;
using util::StatusOr;
using StorageKind = sql::ColumnarTable::StorageKind;

const char* ColumnEncodingName(ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kRawInt:
      return "raw_int";
    case ColumnEncoding::kRawDouble:
      return "raw_double";
    case ColumnEncoding::kDeltaInt:
      return "delta_int";
    case ColumnEncoding::kDecimalDouble:
      return "decimal_double";
    case ColumnEncoding::kShuffledDouble:
      return "shuffled_double";
    case ColumnEncoding::kDictString:
      return "dict_string";
    case ColumnEncoding::kPackedBool:
      return "packed_bool";
    case ColumnEncoding::kTaggedMixed:
      return "tagged_mixed";
    case ColumnEncoding::kAllNull:
      return "all_null";
  }
  return "?";
}

namespace {

constexpr uint32_t kNullCode = 0xFFFFFFFFu;

bool BitGet(const std::vector<uint64_t>& bits, size_t i) {
  size_t word = i >> 6;
  return word < bits.size() && ((bits[word] >> (i & 63)) & 1) != 0;
}

// --- delta + bit-pack core (shared by kDeltaInt and kDecimalDouble) ---------
//
// Layout: varint n; if n > 0: zigzag(first); u8 bit_width; then n-1
// fixed-width zigzag deltas, LSB-first. bit_width 0 means every delta is 0.

void EncodeDeltaInts(const int64_t* values, size_t n, ByteWriter* out) {
  out->PutVarint(n);
  if (n == 0) return;
  out->PutZigzag(values[0]);
  uint64_t max_zz = 0;
  for (size_t i = 1; i < n; ++i) {
    // Unsigned subtraction: wrap-around deltas still round-trip exactly.
    uint64_t delta = static_cast<uint64_t>(values[i]) -
                     static_cast<uint64_t>(values[i - 1]);
    uint64_t zz = (delta << 1) ^ (0 - (delta >> 63));
    if (zz > max_zz) max_zz = zz;
  }
  uint32_t width = BitWidthFor(max_zz);
  out->PutU8(static_cast<uint8_t>(width));
  BitWriter bits(out);
  for (size_t i = 1; i < n; ++i) {
    uint64_t delta = static_cast<uint64_t>(values[i]) -
                     static_cast<uint64_t>(values[i - 1]);
    uint64_t zz = (delta << 1) ^ (0 - (delta >> 63));
    bits.Put(zz, width);
  }
  bits.Finish();
}

bool DecodeDeltaInts(ByteReader* in, std::vector<int64_t>* values) {
  size_t n = in->GetVarint();
  values->clear();
  if (!in->ok() || n == 0) return in->ok();
  values->reserve(n);
  int64_t current = in->GetZigzag();
  values->push_back(current);
  uint32_t width = in->GetU8();
  if (width > 64) return false;
  BitReader bits(in);
  for (size_t i = 1; i < n; ++i) {
    uint64_t zz = bits.Get(width);
    uint64_t delta = (zz >> 1) ^ (0 - (zz & 1));
    current = static_cast<int64_t>(static_cast<uint64_t>(current) + delta);
    values->push_back(current);
  }
  return in->ok();
}

/// Worst-case-free size estimate used by the picker: encoded bytes of the
/// delta stream without materializing it.
size_t DeltaEncodedSize(const int64_t* values, size_t n) {
  if (n == 0) return 1;
  uint64_t max_zz = 0;
  for (size_t i = 1; i < n; ++i) {
    uint64_t delta = static_cast<uint64_t>(values[i]) -
                     static_cast<uint64_t>(values[i - 1]);
    uint64_t zz = (delta << 1) ^ (0 - (delta >> 63));
    if (zz > max_zz) max_zz = zz;
  }
  uint32_t width = BitWidthFor(max_zz);
  return 16 + ((n - 1) * width + 7) / 8;
}

// --- decimal-scaled doubles --------------------------------------------------
//
// SkyServer-style decimal data (coordinates quantized to 1e-6 degrees,
// magnitudes to 1e-3) is stored as v = m / 10^e with a small int64 mantissa.
// The encoder verifies every kept value round-trips bit-exactly; values that
// do not (full-mantissa noise, NaN, ±Inf, -0.0) go to an exception list.
//
// Layout: u8 exponent; delta-packed mantissas (n entries, 0 for
// null/exception rows); varint exception_count; then (varint row, fixed64
// bits) per exception.

constexpr int kMaxDecimalExponent = 9;
constexpr int64_t kMaxMantissa = int64_t{1} << 51;

/// Powers of ten as exact doubles (1e0..1e9 are all exactly representable).
double Pow10(int e) {
  static const double kPowers[] = {1e0, 1e1, 1e2, 1e3, 1e4,
                                   1e5, 1e6, 1e7, 1e8, 1e9};
  return kPowers[e];
}

bool DecimalRoundTrips(double v, int e, int64_t* mantissa) {
  if (!std::isfinite(v)) return false;
  double scaled = v * Pow10(e);
  if (scaled < -9.0e15 || scaled > 9.0e15) return false;
  int64_t m = std::llround(scaled);
  if (m < -kMaxMantissa || m > kMaxMantissa) return false;
  double back = static_cast<double>(m) / Pow10(e);
  uint64_t vb, bb;
  std::memcpy(&vb, &v, sizeof(vb));
  std::memcpy(&bb, &back, sizeof(bb));
  if (vb != bb) return false;
  *mantissa = m;
  return true;
}

struct DecimalPlan {
  int exponent = -1;  // -1 = no usable exponent.
  std::vector<int64_t> mantissas;
  std::vector<std::pair<size_t, double>> exceptions;
};

/// Picks the smallest exponent whose exception rate stays under 5%. Rows
/// flagged in `nulls` carry mantissa 0 and are neither verified nor listed.
DecimalPlan PlanDecimal(const double* values, size_t n,
                        const std::vector<uint64_t>& nulls) {
  DecimalPlan plan;
  for (int e = 0; e <= kMaxDecimalExponent; ++e) {
    // Cheap pre-screen on a prefix sample before the full verification pass.
    size_t sample = n < 64 ? n : 64;
    size_t sample_fail = 0;
    int64_t m;
    for (size_t i = 0; i < sample; ++i) {
      if (BitGet(nulls, i)) continue;
      if (!DecimalRoundTrips(values[i], e, &m)) ++sample_fail;
    }
    if (sample > 0 && sample_fail * 4 > sample) continue;

    std::vector<int64_t> mantissas(n, 0);
    std::vector<std::pair<size_t, double>> exceptions;
    for (size_t i = 0; i < n; ++i) {
      if (BitGet(nulls, i)) continue;
      if (!DecimalRoundTrips(values[i], e, &mantissas[i])) {
        mantissas[i] = 0;
        exceptions.emplace_back(i, values[i]);
        if (exceptions.size() * 20 > n + 19) break;  // > 5%: give up on e.
      }
    }
    if (exceptions.size() * 20 <= n + 19) {
      plan.exponent = e;
      plan.mantissas = std::move(mantissas);
      plan.exceptions = std::move(exceptions);
      return plan;
    }
  }
  return plan;
}

void EncodeDecimal(const DecimalPlan& plan, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(plan.exponent));
  EncodeDeltaInts(plan.mantissas.data(), plan.mantissas.size(), out);
  out->PutVarint(plan.exceptions.size());
  for (const auto& [row, value] : plan.exceptions) {
    out->PutVarint(row);
    out->PutDouble(value);
  }
}

bool DecodeDecimal(ByteReader* in, size_t num_rows,
                   std::vector<double>* values) {
  int e = in->GetU8();
  if (e > kMaxDecimalExponent) return false;
  std::vector<int64_t> mantissas;
  if (!DecodeDeltaInts(in, &mantissas) || mantissas.size() != num_rows) {
    return false;
  }
  values->resize(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    (*values)[i] = static_cast<double>(mantissas[i]) / Pow10(e);
  }
  size_t exceptions = in->GetVarint();
  if (exceptions > num_rows) return false;
  for (size_t i = 0; i < exceptions; ++i) {
    size_t row = in->GetVarint();
    double value = in->GetDouble();
    if (row >= num_rows) return false;
    (*values)[row] = value;
  }
  return in->ok();
}

// --- byte-plane shuffle ------------------------------------------------------
//
// The 8 byte planes of an IEEE-754 column are stored separately; planes that
// barely vary (sign/exponent bytes of clustered data) collapse under RLE,
// planes that look random stay raw. Layout: per plane, u8 mode (0 raw,
// 1 RLE); raw = n bytes; RLE = varint run_count then (u8 value, varint len)
// runs.

void EncodeShuffled(const double* values, size_t n, ByteWriter* out) {
  std::vector<uint8_t> plane(n);
  for (int p = 0; p < 8; ++p) {
    size_t runs = 0;
    uint8_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits;
      std::memcpy(&bits, &values[i], sizeof(bits));
      plane[i] = static_cast<uint8_t>(bits >> (8 * p));
      if (i == 0 || plane[i] != prev) ++runs;
      prev = plane[i];
    }
    // A run costs ~3 bytes; RLE wins when runs are sparse.
    if (runs * 3 < n) {
      out->PutU8(1);
      out->PutVarint(runs);
      size_t i = 0;
      while (i < n) {
        size_t j = i;
        while (j < n && plane[j] == plane[i]) ++j;
        out->PutU8(plane[i]);
        out->PutVarint(j - i);
        i = j;
      }
    } else {
      out->PutU8(0);
      out->PutBytes(plane.data(), n);
    }
  }
}

bool DecodeShuffled(ByteReader* in, size_t n, std::vector<double>* values) {
  std::vector<uint64_t> bits(n, 0);
  for (int p = 0; p < 8; ++p) {
    uint8_t mode = in->GetU8();
    if (mode == 0) {
      std::string_view plane = in->GetBytes(n);
      if (!in->ok()) return false;
      for (size_t i = 0; i < n; ++i) {
        bits[i] |= static_cast<uint64_t>(static_cast<uint8_t>(plane[i]))
                   << (8 * p);
      }
    } else if (mode == 1) {
      size_t runs = in->GetVarint();
      size_t i = 0;
      for (size_t r = 0; r < runs; ++r) {
        uint8_t value = in->GetU8();
        size_t len = in->GetVarint();
        if (!in->ok() || len > n - i) return false;
        for (size_t k = 0; k < len; ++k) {
          bits[i + k] |= static_cast<uint64_t>(value) << (8 * p);
        }
        i += len;
      }
      if (i != n) return false;
    } else {
      return false;
    }
  }
  values->resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(&(*values)[i], &bits[i], sizeof(double));
  }
  return in->ok();
}

size_t ShuffledEncodedSize(const double* values, size_t n) {
  size_t total = 0;
  for (int p = 0; p < 8; ++p) {
    size_t runs = 0;
    uint8_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits;
      std::memcpy(&bits, &values[i], sizeof(bits));
      uint8_t b = static_cast<uint8_t>(bits >> (8 * p));
      if (i == 0 || b != prev) ++runs;
      prev = b;
    }
    total += 1 + (runs * 3 < n ? runs * 3 + 4 : n);
  }
  return total;
}

// --- tagged mixed values -----------------------------------------------------

void EncodeMixedValue(const Value& v, ByteWriter* out) {
  switch (v.type()) {
    case sql::ValueType::kNull:
      out->PutU8(0);
      break;
    case sql::ValueType::kInt:
      out->PutU8(1);
      out->PutZigzag(v.AsInt());
      break;
    case sql::ValueType::kDouble:
      out->PutU8(2);
      out->PutDouble(v.AsDouble());
      break;
    case sql::ValueType::kString:
      out->PutU8(3);
      out->PutString(v.AsString());
      break;
    case sql::ValueType::kBool:
      out->PutU8(4);
      out->PutU8(v.AsBool() ? 1 : 0);
      break;
  }
}

bool DecodeMixedValue(ByteReader* in, Value* v) {
  switch (in->GetU8()) {
    case 0:
      *v = Value::Null();
      return in->ok();
    case 1:
      *v = Value::Int(in->GetZigzag());
      return in->ok();
    case 2:
      *v = Value::Double(in->GetDouble());
      return in->ok();
    case 3:
      *v = Value::String(in->GetString());
      return in->ok();
    case 4:
      *v = Value::Bool(in->GetU8() != 0);
      return in->ok();
    default:
      return false;
  }
}

}  // namespace

FrozenSegment FrozenSegment::Freeze(const ColumnarTable& table,
                                    const FreezeOptions& options) {
  FrozenSegment segment;
  segment.schema_ = table.schema();
  segment.num_rows_ = table.num_rows();
  segment.raw_byte_size_ = table.ByteSize();
  segment.columns_.resize(table.num_columns());
  const size_t n = table.num_rows();

  for (size_t col = 0; col < table.num_columns(); ++col) {
    FrozenColumn& out = segment.columns_[col];
    out.view_prepared = table.view_prepared(col);
    size_t null_words = 0;
    const uint64_t* nulls = table.RawNullBits(col, &null_words);
    if (nulls != nullptr) out.nulls.assign(nulls, nulls + null_words);

    // Any column whose every cell is NULL needs no payload at all,
    // whatever type it was declared as.
    if (n > 0 && nulls != nullptr) {
      size_t null_count = 0;
      for (size_t w = 0; w < null_words; ++w) {
        null_count += static_cast<size_t>(__builtin_popcountll(nulls[w]));
      }
      if (null_count == n) {
        out.encoding = ColumnEncoding::kAllNull;
        continue;
      }
    }

    switch (table.storage_kind(col)) {
      case StorageKind::kInt: {
        const int64_t* ints = table.RawInts(col);
        if (DeltaEncodedSize(ints, n) < n * sizeof(int64_t)) {
          out.encoding = ColumnEncoding::kDeltaInt;
          ByteWriter w;
          EncodeDeltaInts(ints, n, &w);
          out.packed = w.Release();
        } else {
          out.encoding = ColumnEncoding::kRawInt;
          out.raw_ints.assign(ints, ints + n);
        }
        break;
      }
      case StorageKind::kDouble: {
        const double* doubles = table.RawDoubles(col);
        DoubleEncodingPolicy policy = options.double_policy;
        if (options.pin_view_columns && out.view_prepared) {
          // Scan-hot column: the membership kernels read it on every probe,
          // so it stays raw and the frozen scan is zero-copy.
          policy = DoubleEncodingPolicy::kRaw;
        }
        bool encoded = false;
        if (policy == DoubleEncodingPolicy::kAuto ||
            policy == DoubleEncodingPolicy::kDecimal) {
          DecimalPlan plan = PlanDecimal(doubles, n, out.nulls);
          bool usable = plan.exponent >= 0;
          if (usable && policy == DoubleEncodingPolicy::kAuto) {
            size_t estimate =
                DeltaEncodedSize(plan.mantissas.data(), n) +
                plan.exceptions.size() * 10;
            usable = estimate * 10 < n * sizeof(double) * 7;  // < 70% of raw.
          }
          if (usable) {
            out.encoding = ColumnEncoding::kDecimalDouble;
            ByteWriter w;
            EncodeDecimal(plan, &w);
            out.packed = w.Release();
            encoded = true;
          }
        }
        if (!encoded && (policy == DoubleEncodingPolicy::kAuto ||
                         policy == DoubleEncodingPolicy::kShuffle)) {
          size_t estimate = ShuffledEncodedSize(doubles, n);
          if (policy == DoubleEncodingPolicy::kShuffle ||
              estimate * 10 < n * sizeof(double) * 9) {  // < 90% of raw.
            out.encoding = ColumnEncoding::kShuffledDouble;
            ByteWriter w;
            EncodeShuffled(doubles, n, &w);
            out.packed = w.Release();
            encoded = true;
          }
        }
        if (!encoded) {
          out.encoding = ColumnEncoding::kRawDouble;
          out.raw_doubles.assign(doubles, doubles + n);
        }
        break;
      }
      case StorageKind::kBool: {
        out.encoding = ColumnEncoding::kPackedBool;
        const uint8_t* bools = table.RawBools(col);
        ByteWriter w;
        BitWriter bits(&w);
        for (size_t i = 0; i < n; ++i) bits.Put(bools[i] != 0 ? 1 : 0, 1);
        bits.Finish();
        out.packed = w.Release();
        break;
      }
      case StorageKind::kString: {
        out.encoding = ColumnEncoding::kDictString;
        out.dict = table.RawDict(col);
        const uint32_t* codes = table.RawStringCodes(col);
        // NULL cells carry the sentinel code dict_size; real codes are dense
        // below it, so one width covers both.
        uint32_t width =
            BitWidthFor(out.dict.size());
        ByteWriter w;
        w.PutU8(static_cast<uint8_t>(width));
        BitWriter bits(&w);
        for (size_t i = 0; i < n; ++i) {
          uint64_t code = codes[i] == kNullCode ? out.dict.size() : codes[i];
          bits.Put(code, width);
        }
        bits.Finish();
        out.packed = w.Release();
        break;
      }
      case StorageKind::kMixed: {
        out.encoding = ColumnEncoding::kTaggedMixed;
        ByteWriter w;
        for (size_t i = 0; i < n; ++i) {
          EncodeMixedValue(table.CellMixed(i, col), &w);
        }
        out.packed = w.Release();
        break;
      }
      case StorageKind::kAllNull:
        out.encoding = ColumnEncoding::kAllNull;
        break;
    }
  }
  return segment;
}

ColumnarTable FrozenSegment::Thaw() const {
  std::vector<ColumnarTable::ColumnData> columns(columns_.size());
  const size_t n = num_rows_;
  for (size_t col = 0; col < columns_.size(); ++col) {
    const FrozenColumn& in = columns_[col];
    ColumnarTable::ColumnData& out = columns[col];
    out.nulls = in.nulls;
    out.prepare_view = in.view_prepared;
    switch (in.encoding) {
      case ColumnEncoding::kRawInt:
        out.kind = StorageKind::kInt;
        out.ints = in.raw_ints;
        break;
      case ColumnEncoding::kDeltaInt: {
        out.kind = StorageKind::kInt;
        ByteReader r(in.packed);
        bool ok = DecodeDeltaInts(&r, &out.ints);
        assert(ok && out.ints.size() == n);
        (void)ok;
        break;
      }
      case ColumnEncoding::kRawDouble:
        out.kind = StorageKind::kDouble;
        out.doubles = in.raw_doubles;
        break;
      case ColumnEncoding::kDecimalDouble: {
        out.kind = StorageKind::kDouble;
        ByteReader r(in.packed);
        bool ok = DecodeDecimal(&r, n, &out.doubles);
        assert(ok);
        (void)ok;
        break;
      }
      case ColumnEncoding::kShuffledDouble: {
        out.kind = StorageKind::kDouble;
        ByteReader r(in.packed);
        bool ok = DecodeShuffled(&r, n, &out.doubles);
        assert(ok);
        (void)ok;
        break;
      }
      case ColumnEncoding::kPackedBool: {
        out.kind = StorageKind::kBool;
        ByteReader r(in.packed);
        BitReader bits(&r);
        out.bools.resize(n);
        for (size_t i = 0; i < n; ++i) {
          out.bools[i] = static_cast<uint8_t>(bits.Get(1));
        }
        break;
      }
      case ColumnEncoding::kDictString: {
        out.kind = StorageKind::kString;
        out.dict = in.dict;
        ByteReader r(in.packed);
        uint32_t width = r.GetU8();
        BitReader bits(&r);
        out.codes.resize(n);
        for (size_t i = 0; i < n; ++i) {
          uint64_t code = bits.Get(width);
          out.codes[i] = code == in.dict.size()
                             ? kNullCode
                             : static_cast<uint32_t>(code);
        }
        break;
      }
      case ColumnEncoding::kTaggedMixed: {
        out.kind = StorageKind::kMixed;
        ByteReader r(in.packed);
        out.mixed.resize(n);
        for (size_t i = 0; i < n; ++i) {
          bool ok = DecodeMixedValue(&r, &out.mixed[i]);
          assert(ok);
          (void)ok;
        }
        break;
      }
      case ColumnEncoding::kAllNull:
        out.kind = StorageKind::kAllNull;
        break;
    }
  }
  return ColumnarTable::FromColumns(schema_, n, std::move(columns));
}

size_t FrozenSegment::ByteSize() const {
  size_t total = 64;
  for (const FrozenColumn& c : columns_) {
    total += 64;
    total += c.nulls.size() * sizeof(uint64_t);
    total += c.raw_ints.size() * sizeof(int64_t);
    total += c.raw_doubles.size() * sizeof(double);
    total += c.packed.size();
    for (const std::string& s : c.dict) total += s.size() + 32;
  }
  return total;
}

std::optional<ColumnarTable::NumericView> FrozenSegment::numeric_view(
    size_t col) const {
  const FrozenColumn& c = columns_[col];
  if (c.encoding == ColumnEncoding::kRawDouble && c.nulls.empty()) {
    return ColumnarTable::NumericView{c.raw_doubles.data(), nullptr};
  }
  return std::nullopt;
}

ColumnarTable::NumericView FrozenSegment::DecodeNumericView(
    size_t col, util::Arena* arena) const {
  if (auto direct = numeric_view(col); direct.has_value()) return *direct;
  const FrozenColumn& c = columns_[col];
  const size_t n = num_rows_;
  const size_t words = (n + 63) / 64;
  double* values = arena->AllocateArray<double>(n);
  uint64_t* valid = arena->AllocateArray<uint64_t>(words);
  for (size_t w = 0; w < words; ++w) {
    valid[w] = ~(w < c.nulls.size() ? c.nulls[w] : 0);
  }
  auto copy = [&](const std::vector<double>& src) {
    // A zero-row column's vector may have a null data(), and memcpy needs
    // valid pointers even for zero bytes.
    if (n > 0) std::memcpy(values, src.data(), n * sizeof(double));
  };
  switch (c.encoding) {
    case ColumnEncoding::kRawDouble:
      copy(c.raw_doubles);
      break;
    case ColumnEncoding::kDecimalDouble: {
      std::vector<double> decoded;
      ByteReader r(c.packed);
      bool ok = DecodeDecimal(&r, n, &decoded);
      assert(ok);
      (void)ok;
      copy(decoded);
      break;
    }
    case ColumnEncoding::kShuffledDouble: {
      std::vector<double> decoded;
      ByteReader r(c.packed);
      bool ok = DecodeShuffled(&r, n, &decoded);
      assert(ok);
      (void)ok;
      copy(decoded);
      break;
    }
    case ColumnEncoding::kRawInt:
      for (size_t i = 0; i < n; ++i) {
        values[i] = static_cast<double>(c.raw_ints[i]);
      }
      break;
    case ColumnEncoding::kDeltaInt: {
      std::vector<int64_t> ints;
      ByteReader r(c.packed);
      bool ok = DecodeDeltaInts(&r, &ints);
      assert(ok && ints.size() == n);
      (void)ok;
      for (size_t i = 0; i < n; ++i) {
        values[i] = static_cast<double>(ints[i]);
      }
      break;
    }
    case ColumnEncoding::kPackedBool: {
      ByteReader r(c.packed);
      BitReader bits(&r);
      for (size_t i = 0; i < n; ++i) {
        values[i] = bits.Get(1) != 0 ? 1.0 : 0.0;
      }
      break;
    }
    case ColumnEncoding::kTaggedMixed: {
      // Match BuildNumericView's kMixed semantics: non-numeric cells are
      // invalid rows, not zeros with valid bits.
      ByteReader r(c.packed);
      for (size_t w = 0; w < words; ++w) valid[w] = 0;
      for (size_t i = 0; i < n; ++i) {
        Value v;
        bool ok = DecodeMixedValue(&r, &v);
        assert(ok);
        (void)ok;
        values[i] = 0.0;
        if (BitGet(c.nulls, i)) continue;
        auto numeric = v.ToNumeric();
        if (!numeric.ok()) continue;
        values[i] = *numeric;
        valid[i >> 6] |= uint64_t{1} << (i & 63);
      }
      break;
    }
    case ColumnEncoding::kDictString:
    case ColumnEncoding::kAllNull:
      // Not numeric: every row invalid, matching the hot-path semantics.
      for (size_t i = 0; i < n; ++i) values[i] = 0.0;
      for (size_t w = 0; w < words; ++w) valid[w] = 0;
      break;
  }
  return ColumnarTable::NumericView{values, valid};
}

// --- wire form ---------------------------------------------------------------
//
// Layout (docs/FORMATS.md §13.3):
//   varint num_rows; varint num_columns;
//   schema: per column, string name + u8 value type;
//   per column: u8 encoding; u8 view_prepared; varint null_words + words;
//               encoding payload (typed vectors as fixed64 streams, packed
//               bytes length-prefixed, dictionaries as string lists).

std::string FrozenSegment::Serialize() const {
  ByteWriter out;
  out.PutVarint(num_rows_);
  out.PutVarint(columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    out.PutString(schema_.column(col).name);
    out.PutU8(static_cast<uint8_t>(schema_.column(col).type));
  }
  for (const FrozenColumn& c : columns_) {
    out.PutU8(static_cast<uint8_t>(c.encoding));
    out.PutU8(c.view_prepared ? 1 : 0);
    out.PutVarint(c.nulls.size());
    for (uint64_t word : c.nulls) out.PutU64(word);
    out.PutVarint(c.raw_ints.size());
    for (int64_t v : c.raw_ints) out.PutU64(static_cast<uint64_t>(v));
    out.PutVarint(c.raw_doubles.size());
    for (double v : c.raw_doubles) out.PutDouble(v);
    out.PutString(c.packed);
    out.PutVarint(c.dict.size());
    for (const std::string& s : c.dict) out.PutString(s);
  }
  return out.Release();
}

StatusOr<FrozenSegment> FrozenSegment::Parse(std::string_view bytes) {
  ByteReader in(bytes);
  FrozenSegment segment;
  segment.num_rows_ = in.GetVarint();
  size_t num_columns = in.GetVarint();
  if (!in.ok() || num_columns > (1u << 20)) {
    return Status::ParseError("segment: bad header");
  }
  std::vector<sql::Column> defs;
  defs.reserve(num_columns);
  for (size_t col = 0; col < num_columns; ++col) {
    sql::Column def;
    def.name = in.GetString();
    uint8_t type = in.GetU8();
    if (type > static_cast<uint8_t>(sql::ValueType::kBool)) {
      return Status::ParseError("segment: bad column type");
    }
    def.type = static_cast<sql::ValueType>(type);
    defs.push_back(std::move(def));
  }
  segment.schema_ = sql::Schema(std::move(defs));
  segment.columns_.resize(num_columns);
  for (size_t col = 0; col < num_columns; ++col) {
    FrozenColumn& c = segment.columns_[col];
    uint8_t encoding = in.GetU8();
    if (encoding > static_cast<uint8_t>(ColumnEncoding::kAllNull)) {
      return Status::ParseError("segment: unknown encoding");
    }
    c.encoding = static_cast<ColumnEncoding>(encoding);
    c.view_prepared = in.GetU8() != 0;
    size_t null_words = in.GetVarint();
    if (!in.ok() || null_words > in.remaining()) {
      return Status::ParseError("segment: bad null bitmap");
    }
    c.nulls.resize(null_words);
    for (size_t w = 0; w < null_words; ++w) c.nulls[w] = in.GetU64();
    size_t num_ints = in.GetVarint();
    if (!in.ok() || num_ints > in.remaining()) {
      return Status::ParseError("segment: bad int payload");
    }
    c.raw_ints.resize(num_ints);
    for (size_t i = 0; i < num_ints; ++i) {
      c.raw_ints[i] = static_cast<int64_t>(in.GetU64());
    }
    size_t num_doubles = in.GetVarint();
    if (!in.ok() || num_doubles > in.remaining()) {
      return Status::ParseError("segment: bad double payload");
    }
    c.raw_doubles.resize(num_doubles);
    for (size_t i = 0; i < num_doubles; ++i) {
      c.raw_doubles[i] = in.GetDouble();
    }
    c.packed = in.GetString();
    size_t dict_size = in.GetVarint();
    if (!in.ok() || dict_size > in.remaining()) {
      return Status::ParseError("segment: bad dictionary");
    }
    c.dict.resize(dict_size);
    for (size_t i = 0; i < dict_size; ++i) c.dict[i] = in.GetString();
  }
  if (!in.ok() || !in.AtEnd()) {
    return Status::ParseError("segment: truncated or trailing bytes");
  }
  // Raw-payload sizes must match the row count so Thaw cannot index out of
  // range (packed payloads are validated by their own decoders).
  for (const FrozenColumn& c : segment.columns_) {
    if (c.encoding == ColumnEncoding::kRawInt &&
        c.raw_ints.size() != segment.num_rows_) {
      return Status::ParseError("segment: int row-count mismatch");
    }
    if (c.encoding == ColumnEncoding::kRawDouble &&
        c.raw_doubles.size() != segment.num_rows_) {
      return Status::ParseError("segment: double row-count mismatch");
    }
  }
  // raw_byte_size_ is a freeze-time measurement; a parsed segment reports 0
  // (the compression ratio is only meaningful where the hot table existed).
  return segment;
}

}  // namespace fnproxy::storage
