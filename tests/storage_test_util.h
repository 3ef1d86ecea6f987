// Hand-built frozen-segment wire forms (docs/FORMATS.md §13.3) shared by the
// storage tests: segments whose framing is sound but whose payload the
// column decoders must reject.

#ifndef FNPROXY_TESTS_STORAGE_TEST_UTIL_H_
#define FNPROXY_TESTS_STORAGE_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sql/value.h"
#include "storage/segment.h"
#include "storage/wire.h"

namespace fnproxy::storage {

/// Wire form of a segment with one column named "c": only the packed
/// payload, the dictionary and the null words are set.
inline std::string OneColumnSegment(uint64_t rows, sql::ValueType type,
                                    ColumnEncoding encoding,
                                    const std::string& packed,
                                    const std::vector<std::string>& dict = {},
                                    const std::vector<uint64_t>& nulls = {}) {
  ByteWriter w;
  w.PutVarint(rows);
  w.PutVarint(1);
  w.PutString("c");
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(static_cast<uint8_t>(encoding));
  w.PutU8(0);  // view_prepared
  w.PutVarint(nulls.size());
  for (uint64_t word : nulls) w.PutU64(word);
  w.PutVarint(0);  // raw ints
  w.PutVarint(0);  // raw doubles
  w.PutString(packed);
  w.PutVarint(dict.size());
  for (const std::string& s : dict) w.PutString(s);
  return w.Release();
}

/// A delta_int payload claiming `count` values: `first`, then `deltas`
/// deltas of +1 at `width` bits each.
inline std::string DeltaPayload(uint64_t count, int64_t first, uint32_t width,
                                size_t deltas) {
  ByteWriter w;
  w.PutVarint(count);
  w.PutZigzag(first);
  w.PutU8(static_cast<uint8_t>(width));
  BitWriter bits(&w);
  for (size_t i = 0; i < deltas; ++i) bits.Put(2, width);  // zigzag(+1)
  bits.Finish();
  return w.Release();
}

/// A dict_string payload of `codes` at the dictionary's own width.
inline std::string DictPayload(size_t dict_size,
                               const std::vector<uint64_t>& codes) {
  ByteWriter w;
  const uint32_t width = BitWidthFor(dict_size);
  w.PutU8(static_cast<uint8_t>(width));
  BitWriter bits(&w);
  for (uint64_t code : codes) bits.Put(code, width);
  bits.Finish();
  return w.Release();
}

/// Segments whose framing parses but whose payload no decoder accepts,
/// each labelled with its defect.
inline std::vector<std::pair<std::string, std::string>> UndecodableSegments() {
  using sql::ValueType;
  return {
      {"10-row delta_int column carrying 3 values",
       OneColumnSegment(10, ValueType::kInt, ColumnEncoding::kDeltaInt,
                        DeltaPayload(3, 100, 2, 2))},
      {"delta_int count near 2^60",
       OneColumnSegment(10, ValueType::kInt, ColumnEncoding::kDeltaInt,
                        DeltaPayload(uint64_t{1} << 60, 100, 2, 9))},
      {"dictionary code past the dictionary",
       OneColumnSegment(4, ValueType::kString, ColumnEncoding::kDictString,
                        DictPayload(2, {0, 1, 3, 0}), {"STAR", "GALAXY"})},
  };
}

}  // namespace fnproxy::storage

#endif  // FNPROXY_TESTS_STORAGE_TEST_UTIL_H_
