#ifndef FNPROXY_STORAGE_SEGMENT_H_
#define FNPROXY_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "sql/columnar.h"
#include "util/status.h"

namespace fnproxy::storage {

/// Per-column encodings of a frozen segment (docs/STORAGE.md has the byte
/// layouts). The picker chooses per column from the storage kind and the
/// value distribution. Id 7, once a tagged per-cell fallback for columns
/// of mixed types, is retired: Parse refuses it.
enum class ColumnEncoding : uint8_t {
  kRawInt = 0,         ///< Plain 8-byte int64 values.
  kRawDouble = 1,      ///< Plain 8-byte doubles.
  kDeltaInt = 2,       ///< Zigzag deltas, fixed-width bit-packed.
  kDecimalDouble = 3,  ///< Decimal-scaled int64 mantissas (delta+bit-packed)
                       ///< with a bit-exact exception list.
  kShuffledDouble = 4, ///< Byte-plane shuffle with per-plane RLE.
  kDictString = 5,     ///< Dictionary + bit-packed codes.
  kPackedBool = 6,     ///< One bit per row.
  kAllNull = 8,        ///< No payload; every cell is NULL.
};

const char* ColumnEncodingName(ColumnEncoding encoding);

/// Picker override for double columns, exposed through
/// `bench_columnar_scan --encoding=` so compression trade-offs are
/// measurable per encoding.
enum class DoubleEncodingPolicy : uint8_t {
  kAuto,     ///< Decimal-scaled when it verifies, else shuffled, else raw.
  kRaw,      ///< Force kRawDouble.
  kDecimal,  ///< Force kDecimalDouble (raw when no usable exponent exists).
  kShuffle,  ///< Force kShuffledDouble.
};

struct FreezeOptions {
  DoubleEncodingPolicy double_policy = DoubleEncodingPolicy::kAuto;
};

/// Most rows Parse accepts. Constant and all-NULL columns encode any row
/// count in a few bytes, so bytes from disk could otherwise make a thaw size
/// columns from a lie. Freeze and Thaw take a hot table of any size; a
/// snapshot holding a larger one does not load.
inline constexpr size_t kMaxSegmentRows = size_t{1} << 24;

/// An immutable, compressed form of one cached ColumnarTable, held as its
/// wire form (docs/FORMATS.md §13.3) and nothing else: Freeze encodes
/// straight into the bytes, Thaw decodes from them, and snapshots store
/// them as they are. Freezing is lossless and bit-exact:
/// Thaw() rebuilds a table whose cells, null bitmaps, dictionary order and
/// prepared views are identical to the original, so XML serialization and
/// dedup hashes cannot observe the tier an entry lives in.
///
/// Every segment holds a valid wire form: Freeze writes one, and Parse
/// decodes every column before it adopts bytes, so Thaw cannot fail.
///
/// Thread safety: a FrozenSegment is immutable after Freeze/Parse and safe
/// for concurrent readers (the CacheStore shares segments via
/// shared_ptr<const FrozenSegment>).
class FrozenSegment {
 public:
  /// Encodes `table`. Columns keep their declared order.
  static FrozenSegment Freeze(const sql::ColumnarTable& table,
                              const FreezeOptions& options = {});

  /// Rebuilds the bit-identical hot table (including prepared views).
  sql::ColumnarTable Thaw() const;

  size_t num_rows() const { return num_rows_; }

  // Read from the wire form's framing on each call; for tests and
  // inspection tools, not the serving path.
  sql::Schema schema() const;
  ColumnEncoding encoding(size_t col) const;

  /// Bytes the segment holds: its wire buffer plus the object itself. The
  /// cache budget charges this for a frozen entry.
  size_t ByteSize() const { return sizeof(*this) + wire_.capacity(); }

  /// Wire form (docs/FORMATS.md §13.3): self-contained, checksummed by the
  /// enclosing container, parseable without the source table.
  const std::string& Serialize() const { return wire_; }
  /// Validates every column of `bytes` (framing, decoded counts, codes and
  /// bounds) and adopts them; rejects anything Thaw could not decode.
  static util::StatusOr<FrozenSegment> Parse(std::string_view bytes);

 private:
  FrozenSegment() = default;

  std::string wire_;
  size_t num_rows_ = 0;
};

}  // namespace fnproxy::storage

#endif  // FNPROXY_STORAGE_SEGMENT_H_
