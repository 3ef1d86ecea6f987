#include "storage/segment.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "storage/wire.h"

namespace fnproxy::storage {

using sql::ColumnarTable;
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
    case ColumnEncoding::kAllNull:
      return "all_null";
  }
  return "?";
}

namespace {

constexpr uint32_t kNullCode = 0xFFFFFFFFu;

/// Row limit for the segments Freeze builds in memory: whatever the hot
/// table held.
constexpr size_t kNoRowLimit = std::numeric_limits<size_t>::max();

bool BitGet(const uint64_t* bits, size_t words, size_t i) {
  size_t word = i >> 6;
  return word < words && ((bits[word] >> (i & 63)) & 1) != 0;
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

/// Decodes a delta stream that must hold exactly `n` values. The count and
/// the packed bits are checked against `n` and the bytes left before
/// anything is allocated.
bool DecodeDeltaInts(ByteReader* in, size_t n, std::vector<int64_t>* values) {
  values->clear();
  const uint64_t count = in->GetVarint();
  if (!in->ok() || count != n) return false;
  if (n == 0) return true;
  int64_t current = in->GetZigzag();
  const uint32_t width = in->GetU8();
  if (!in->ok() || width > 64 || ((n - 1) * width + 7) / 8 > in->remaining()) {
    return false;
  }
  values->reserve(n);
  values->push_back(current);
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
DecimalPlan PlanDecimal(const double* values, size_t n, const uint64_t* nulls,
                        size_t null_words) {
  DecimalPlan plan;
  for (int e = 0; e <= kMaxDecimalExponent; ++e) {
    // Cheap pre-screen on a prefix sample before the full verification pass.
    size_t sample = n < 64 ? n : 64;
    size_t sample_fail = 0;
    int64_t m;
    for (size_t i = 0; i < sample; ++i) {
      if (BitGet(nulls, null_words, i)) continue;
      if (!DecimalRoundTrips(values[i], e, &m)) ++sample_fail;
    }
    if (sample > 0 && sample_fail * 4 > sample) continue;

    std::vector<int64_t> mantissas(n, 0);
    std::vector<std::pair<size_t, double>> exceptions;
    for (size_t i = 0; i < n; ++i) {
      if (BitGet(nulls, null_words, i)) continue;
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
  if (!DecodeDeltaInts(in, num_rows, &mantissas)) return false;
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

// --- column framing (docs/FORMATS.md §13.3) ----------------------------------
//
// Per column: u8 encoding; u8 view_prepared; varint null_words + fixed64
// words; varint raw_int count + fixed64 values; varint raw_double count +
// fixed64 bits; length-prefixed packed payload; varint dictionary size +
// length-prefixed strings. Every field is present whatever the encoding;
// the ones an encoding does not use are empty.

/// Encodes column `col` of `table` in the column framing.
void EncodeColumn(const ColumnarTable& table, size_t col,
                  const FreezeOptions& options, ByteWriter* out) {
  const size_t n = table.num_rows();
  size_t null_words = 0;
  const uint64_t* nulls = table.RawNullBits(col, &null_words);
  ColumnEncoding encoding = ColumnEncoding::kAllNull;
  bool raw_ints = false;
  bool raw_doubles = false;
  const std::vector<std::string>* dict = nullptr;
  ByteWriter packed;

  // Any column whose every cell is NULL needs no payload at all, whatever
  // type it was declared as.
  size_t null_count = 0;
  for (size_t w = 0; w < null_words; ++w) {
    null_count += static_cast<size_t>(__builtin_popcountll(nulls[w]));
  }
  const bool all_null = n > 0 && null_count == n;

  switch (all_null ? StorageKind::kAllNull : table.storage_kind(col)) {
    case StorageKind::kInt: {
      const int64_t* ints = table.RawInts(col);
      if (DeltaEncodedSize(ints, n) < n * sizeof(int64_t)) {
        encoding = ColumnEncoding::kDeltaInt;
        EncodeDeltaInts(ints, n, &packed);
      } else {
        encoding = ColumnEncoding::kRawInt;
        raw_ints = true;
      }
      break;
    }
    case StorageKind::kDouble: {
      const double* doubles = table.RawDoubles(col);
      const DoubleEncodingPolicy policy = options.double_policy;
      bool encoded = false;
      if (policy == DoubleEncodingPolicy::kAuto ||
          policy == DoubleEncodingPolicy::kDecimal) {
        DecimalPlan plan = PlanDecimal(doubles, n, nulls, null_words);
        bool usable = plan.exponent >= 0;
        if (usable && policy == DoubleEncodingPolicy::kAuto) {
          size_t estimate = DeltaEncodedSize(plan.mantissas.data(), n) +
                            plan.exceptions.size() * 10;
          usable = estimate * 10 < n * sizeof(double) * 7;  // < 70% of raw.
        }
        if (usable) {
          encoding = ColumnEncoding::kDecimalDouble;
          EncodeDecimal(plan, &packed);
          encoded = true;
        }
      }
      if (!encoded && (policy == DoubleEncodingPolicy::kAuto ||
                       policy == DoubleEncodingPolicy::kShuffle)) {
        size_t estimate = ShuffledEncodedSize(doubles, n);
        if (policy == DoubleEncodingPolicy::kShuffle ||
            estimate * 10 < n * sizeof(double) * 9) {  // < 90% of raw.
          encoding = ColumnEncoding::kShuffledDouble;
          EncodeShuffled(doubles, n, &packed);
          encoded = true;
        }
      }
      if (!encoded) {
        encoding = ColumnEncoding::kRawDouble;
        raw_doubles = true;
      }
      break;
    }
    case StorageKind::kBool: {
      encoding = ColumnEncoding::kPackedBool;
      const uint8_t* bools = table.RawBools(col);
      BitWriter bits(&packed);
      for (size_t i = 0; i < n; ++i) bits.Put(bools[i] != 0 ? 1 : 0, 1);
      bits.Finish();
      break;
    }
    case StorageKind::kString: {
      encoding = ColumnEncoding::kDictString;
      dict = &table.RawDict(col);
      const uint32_t* codes = table.RawStringCodes(col);
      // NULL cells carry the sentinel code dict_size; real codes are dense
      // below it, so one width covers both.
      uint32_t width = BitWidthFor(dict->size());
      packed.PutU8(static_cast<uint8_t>(width));
      BitWriter bits(&packed);
      for (size_t i = 0; i < n; ++i) {
        uint64_t code = codes[i] == kNullCode ? dict->size() : codes[i];
        bits.Put(code, width);
      }
      bits.Finish();
      break;
    }
    case StorageKind::kAllNull:
      encoding = ColumnEncoding::kAllNull;
      break;
  }

  out->PutU8(static_cast<uint8_t>(encoding));
  out->PutU8(table.view_prepared(col) ? 1 : 0);
  out->PutVarint(null_words);
  for (size_t w = 0; w < null_words; ++w) out->PutU64(nulls[w]);
  out->PutVarint(raw_ints ? n : 0);
  for (size_t i = 0; raw_ints && i < n; ++i) {
    out->PutU64(static_cast<uint64_t>(table.RawInts(col)[i]));
  }
  out->PutVarint(raw_doubles ? n : 0);
  for (size_t i = 0; raw_doubles && i < n; ++i) {
    out->PutDouble(table.RawDoubles(col)[i]);
  }
  out->PutString(packed.bytes());
  out->PutVarint(dict != nullptr ? dict->size() : 0);
  if (dict != nullptr) {
    for (const std::string& s : *dict) out->PutString(s);
  }
}

/// One column's framing, as views into the wire bytes (the three fixed64
/// streams as their bytes).
struct ColumnFrame {
  uint8_t encoding = 0;
  uint8_t view_prepared = 0;
  std::string_view nulls;
  std::string_view ints;
  std::string_view doubles;
  std::string_view packed;
  std::vector<std::string_view> dict;
};

/// Reads a varint count of fixed64 words and returns their bytes; a count
/// the remaining bytes cannot hold fails the reader.
std::string_view GetWords(ByteReader* in) {
  const uint64_t count = in->GetVarint();
  if (count > in->remaining() / 8) {
    in->Fail();
    return {};
  }
  return in->GetBytes(count * 8);
}

bool ReadFrame(ByteReader* in, ColumnFrame* frame) {
  frame->encoding = in->GetU8();
  frame->view_prepared = in->GetU8();
  frame->nulls = GetWords(in);
  frame->ints = GetWords(in);
  frame->doubles = GetWords(in);
  frame->packed = in->GetBytes(in->GetVarint());
  // Every dictionary string takes at least its length byte.
  const uint64_t dict_size = in->GetVarint();
  frame->dict.clear();
  if (dict_size > in->remaining()) {
    in->Fail();
    return false;
  }
  frame->dict.reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    frame->dict.push_back(in->GetBytes(in->GetVarint()));
  }
  return in->ok();
}

/// Reads the row count, at most `max_rows`, and the schema. A column takes
/// at least 9 bytes (2 of schema, 7 of framing), which bounds the column
/// count by the input.
Status ReadHeader(ByteReader* in, size_t max_rows, size_t* num_rows,
                  std::vector<sql::Column>* defs) {
  *num_rows = in->GetVarint();
  const uint64_t num_columns = in->GetVarint();
  if (!in->ok() || *num_rows > max_rows ||
      num_columns > in->remaining() / 9) {
    return Status::ParseError("segment: bad header");
  }
  defs->clear();
  defs->reserve(num_columns);
  for (uint64_t col = 0; col < num_columns; ++col) {
    sql::Column def;
    def.name = in->GetString();
    uint8_t type = in->GetU8();
    if (!in->ok() || type > static_cast<uint8_t>(sql::ValueType::kBool)) {
      return Status::ParseError("segment: bad column type");
    }
    def.type = static_cast<sql::ValueType>(type);
    defs->push_back(std::move(def));
  }
  return Status::Ok();
}

/// Whether a column declared `type` can hold `encoding` (false for an
/// unknown id): typed storage follows the declared type, and any column
/// may be all NULL.
bool EncodingFits(ColumnEncoding encoding, sql::ValueType type) {
  switch (encoding) {
    case ColumnEncoding::kRawInt:
    case ColumnEncoding::kDeltaInt:
      return type == sql::ValueType::kInt;
    case ColumnEncoding::kRawDouble:
    case ColumnEncoding::kDecimalDouble:
    case ColumnEncoding::kShuffledDouble:
      return type == sql::ValueType::kDouble;
    case ColumnEncoding::kDictString:
      return type == sql::ValueType::kString;
    case ColumnEncoding::kPackedBool:
      return type == sql::ValueType::kBool;
    case ColumnEncoding::kAllNull:
      return true;
  }
  return false;
}

/// Decodes one framed column of `n` rows into `out`, accepting only what
/// Freeze writes: an encoding the declared type can hold, its own fields
/// and no others, a null bitmap with no bit past the last row, exactly `n`
/// decoded cells, dictionary codes below the dictionary size (the NULL
/// sentinel only on NULL rows), and a packed payload consumed to its last
/// byte.
bool DecodeColumn(const ColumnFrame& frame, size_t n, sql::ValueType type,
                  ColumnarTable::ColumnData* out) {
  const auto encoding = static_cast<ColumnEncoding>(frame.encoding);
  const bool raw_int = encoding == ColumnEncoding::kRawInt;
  const bool raw_double = encoding == ColumnEncoding::kRawDouble;
  const bool unpacked = raw_int || raw_double ||
                        encoding == ColumnEncoding::kAllNull;
  const size_t null_words = frame.nulls.size() / 8;
  if (!EncodingFits(encoding, type) || frame.view_prepared > 1 ||
      null_words > (n + 63) / 64 ||
      frame.ints.size() != (raw_int ? n * 8 : 0) ||
      frame.doubles.size() != (raw_double ? n * 8 : 0) ||
      (unpacked && !frame.packed.empty()) ||
      (encoding != ColumnEncoding::kDictString && !frame.dict.empty())) {
    return false;
  }

  *out = ColumnarTable::ColumnData{};
  out->prepare_view = frame.view_prepared != 0;
  ByteReader words(frame.nulls);
  out->nulls.resize(null_words);
  for (uint64_t& word : out->nulls) word = words.GetU64();
  // A hot bitmap sets bits for NULL rows only, never past the last row.
  if (n % 64 != 0 && null_words == (n + 63) / 64 &&
      (out->nulls.back() >> (n % 64)) != 0) {
    return false;
  }

  ByteReader r(frame.packed);
  switch (encoding) {
    case ColumnEncoding::kRawInt: {
      out->kind = StorageKind::kInt;
      ByteReader values(frame.ints);
      out->ints.resize(n);
      for (int64_t& v : out->ints) v = static_cast<int64_t>(values.GetU64());
      break;
    }
    case ColumnEncoding::kRawDouble: {
      out->kind = StorageKind::kDouble;
      ByteReader values(frame.doubles);
      out->doubles.resize(n);
      for (double& v : out->doubles) v = values.GetDouble();
      break;
    }
    case ColumnEncoding::kDeltaInt:
      out->kind = StorageKind::kInt;
      if (!DecodeDeltaInts(&r, n, &out->ints)) return false;
      break;
    case ColumnEncoding::kDecimalDouble:
      out->kind = StorageKind::kDouble;
      if (!DecodeDecimal(&r, n, &out->doubles)) return false;
      break;
    case ColumnEncoding::kShuffledDouble:
      out->kind = StorageKind::kDouble;
      if (!DecodeShuffled(&r, n, &out->doubles)) return false;
      break;
    case ColumnEncoding::kPackedBool: {
      out->kind = StorageKind::kBool;
      if (frame.packed.size() != (n + 7) / 8) return false;
      BitReader bits(&r);
      out->bools.resize(n);
      for (uint8_t& b : out->bools) b = static_cast<uint8_t>(bits.Get(1));
      break;
    }
    case ColumnEncoding::kDictString: {
      out->kind = StorageKind::kString;
      const size_t dict_size = frame.dict.size();
      const uint32_t width = r.GetU8();
      if (!r.ok() || dict_size >= kNullCode || width != BitWidthFor(dict_size) ||
          (n * width + 7) / 8 != r.remaining()) {
        return false;
      }
      out->dict.reserve(dict_size);
      for (std::string_view s : frame.dict) out->dict.emplace_back(s);
      BitReader bits(&r);
      out->codes.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t code = bits.Get(width);
        if (code > dict_size) return false;
        if (code == dict_size &&
            !BitGet(out->nulls.data(), out->nulls.size(), i)) {
          return false;
        }
        out->codes[i] =
            code == dict_size ? kNullCode : static_cast<uint32_t>(code);
      }
      break;
    }
    case ColumnEncoding::kAllNull:
      out->kind = StorageKind::kAllNull;
      break;
  }
  return r.ok() && r.AtEnd();
}

/// Decodes and validates a whole wire form of at most `max_rows` rows. With
/// `columns` null it only validates, decoding each column into one reused
/// buffer.
Status DecodeWire(std::string_view wire, size_t max_rows, size_t* num_rows,
                  std::vector<sql::Column>* defs,
                  std::vector<ColumnarTable::ColumnData>* columns) {
  ByteReader in(wire);
  FNPROXY_RETURN_NOT_OK(ReadHeader(&in, max_rows, num_rows, defs));
  if (columns != nullptr) columns->resize(defs->size());
  ColumnFrame frame;
  ColumnarTable::ColumnData reused;
  for (size_t col = 0; col < defs->size(); ++col) {
    if (!ReadFrame(&in, &frame)) {
      return Status::ParseError(std::string("segment: truncated column ") +
                                std::to_string(col));
    }
    ColumnarTable::ColumnData* out =
        columns != nullptr ? &(*columns)[col] : &reused;
    if (!DecodeColumn(frame, *num_rows, (*defs)[col].type, out)) {
      std::string message =
          std::string("segment: bad payload in column ") + std::to_string(col);
      // An id this build has no encoding for, such as the retired 7.
      if (std::strcmp(ColumnEncodingName(
                          static_cast<ColumnEncoding>(frame.encoding)),
                      "?") == 0) {
        message += ": unknown encoding ";
        message += std::to_string(frame.encoding);
      }
      return Status::ParseError(std::move(message));
    }
  }
  if (!in.AtEnd()) return Status::ParseError("segment: trailing bytes");
  return Status::Ok();
}

}  // namespace

FrozenSegment FrozenSegment::Freeze(const ColumnarTable& table,
                                    const FreezeOptions& options) {
  ByteWriter out;
  out.PutVarint(table.num_rows());
  out.PutVarint(table.num_columns());
  for (const sql::Column& def : table.schema().columns()) {
    out.PutString(def.name);
    out.PutU8(static_cast<uint8_t>(def.type));
  }
  for (size_t col = 0; col < table.num_columns(); ++col) {
    EncodeColumn(table, col, options, &out);
  }
  FrozenSegment segment;
  segment.wire_ = out.Release();
  segment.wire_.shrink_to_fit();
  segment.num_rows_ = table.num_rows();
  return segment;
}

ColumnarTable FrozenSegment::Thaw() const {
  size_t num_rows = 0;
  std::vector<sql::Column> defs;
  std::vector<ColumnarTable::ColumnData> columns;
  Status status = DecodeWire(wire_, kNoRowLimit, &num_rows, &defs, &columns);
  assert(status.ok());  // Freeze and Parse hold only valid wire forms.
  (void)status;
  return ColumnarTable::FromColumns(sql::Schema(std::move(defs)), num_rows,
                                    std::move(columns));
}

sql::Schema FrozenSegment::schema() const {
  ByteReader in(wire_);
  size_t num_rows = 0;
  std::vector<sql::Column> defs;
  (void)ReadHeader(&in, kNoRowLimit, &num_rows, &defs);
  return sql::Schema(std::move(defs));
}

ColumnEncoding FrozenSegment::encoding(size_t col) const {
  ByteReader in(wire_);
  size_t num_rows = 0;
  std::vector<sql::Column> defs;
  (void)ReadHeader(&in, kNoRowLimit, &num_rows, &defs);
  ColumnFrame frame;
  for (size_t c = 0; c <= col; ++c) ReadFrame(&in, &frame);
  return static_cast<ColumnEncoding>(frame.encoding);
}

StatusOr<FrozenSegment> FrozenSegment::Parse(std::string_view bytes) {
  size_t num_rows = 0;
  std::vector<sql::Column> defs;
  FNPROXY_RETURN_NOT_OK(
      DecodeWire(bytes, kMaxSegmentRows, &num_rows, &defs, nullptr));
  FrozenSegment segment;
  segment.wire_.assign(bytes);
  segment.num_rows_ = num_rows;
  return segment;
}

}  // namespace fnproxy::storage
