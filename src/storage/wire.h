#ifndef FNPROXY_STORAGE_WIRE_H_
#define FNPROXY_STORAGE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fnproxy::storage {

/// FNV-1a over `data`, the checksum primitive for snapshot sections.
/// Stable across platforms (byte-wise, no endianness).
uint64_t Fnv1a(const void* data, size_t size);
inline uint64_t Fnv1a(std::string_view bytes) {
  return Fnv1a(bytes.data(), bytes.size());
}

/// Little-endian append-only byte sink for segment and snapshot payloads.
/// All multi-byte integers are written explicitly byte-by-byte so the wire
/// format is identical on every platform.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  /// LEB128 unsigned varint (1..10 bytes).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }
  /// Zigzag-mapped signed varint: small magnitudes of either sign stay short.
  void PutZigzag(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }
  /// Raw IEEE-754 bits, little-endian — round-trips every payload including
  /// -0.0 and NaN bit patterns.
  void PutDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    PutU64(bits);
  }
  void PutBytes(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  /// Length-prefixed string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a ByteWriter-produced buffer. Every getter
/// reports truncation by latching `ok()` false and returning zero values, so
/// parse loops check once at the end instead of per field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t GetU8() {
    if (pos_ >= bytes_.size()) return Fail();
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(GetU8()) << (8 * i);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(GetU8()) << (8 * i);
    return v;
  }
  uint64_t GetVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte = GetU8();
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    Fail();
    return 0;
  }
  int64_t GetZigzag() {
    uint64_t v = GetVarint();
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }
  double GetDouble() {
    uint64_t bits = GetU64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  /// View of the next `size` bytes (empty + !ok() on truncation).
  std::string_view GetBytes(size_t size) {
    if (size > bytes_.size() - pos_) {
      Fail();
      return {};
    }
    std::string_view view = bytes_.substr(pos_, size);
    pos_ += size;
    return view;
  }
  std::string GetString() {
    size_t size = GetVarint();
    return std::string(GetBytes(size));
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

  /// Latches failure, as truncation does; for callers that find a length
  /// field the remaining bytes cannot back. Returns 0.
  uint8_t Fail() {
    ok_ = false;
    pos_ = bytes_.size();
    return 0;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// LSB-first bit packer for fixed-width codes (delta residuals, dictionary
/// codes, booleans). Width 0 is legal and writes nothing — every value is
/// implicitly zero.
class BitWriter {
 public:
  explicit BitWriter(ByteWriter* out) : out_(out) {}
  void Put(uint64_t value, uint32_t width) {
    for (uint32_t i = 0; i < width; ++i) {
      if ((value >> i) & 1) current_ |= uint8_t{1} << filled_;
      if (++filled_ == 8) FlushByte();
    }
  }
  /// Pads the final partial byte with zero bits.
  void Finish() {
    if (filled_ > 0) FlushByte();
  }

 private:
  void FlushByte() {
    out_->PutU8(current_);
    current_ = 0;
    filled_ = 0;
  }
  ByteWriter* out_;
  uint8_t current_ = 0;
  uint32_t filled_ = 0;
};

/// Matching LSB-first unpacker.
class BitReader {
 public:
  explicit BitReader(ByteReader* in) : in_(in) {}
  uint64_t Get(uint32_t width) {
    uint64_t value = 0;
    for (uint32_t i = 0; i < width; ++i) {
      if (avail_ == 0) {
        current_ = in_->GetU8();
        avail_ = 8;
      }
      value |= static_cast<uint64_t>(current_ & 1) << i;
      current_ >>= 1;
      --avail_;
    }
    return value;
  }

 private:
  ByteReader* in_;
  uint8_t current_ = 0;
  uint32_t avail_ = 0;
};

/// Smallest width (0..64) that can represent `max_value`.
uint32_t BitWidthFor(uint64_t max_value);

// --- Sectioned snapshot container -------------------------------------------
//
// The on-disk layout of warm-restart snapshots (docs/FORMATS.md §13):
//
//   magic   "FPSNAP02"                       8 bytes
//   u32     section count
//   per section:
//     u32   section id
//     u64   payload length
//     u64   FNV-1a checksum of the payload
//     ...   payload bytes
//
// Readers skip sections with unknown ids (forward compatibility) and reject
// any section whose checksum does not match (corruption detection).

inline constexpr char kSnapshotMagic[8] = {'F', 'P', 'S', 'N',
                                           'A', 'P', '0', '2'};

/// Well-known section ids. New sections get fresh ids; readers ignore ids
/// they do not understand.
enum SnapshotSection : uint32_t {
  kSectionMeta = 1,
  kSectionEntries = 2,
  kSectionStats = 3,
};

struct Section {
  uint32_t id = 0;
  std::string_view payload;
};

/// Assembles a snapshot container from (id, payload) pairs.
std::string BuildSnapshotFile(
    const std::vector<std::pair<uint32_t, std::string>>& sections);

/// Parses and checksum-verifies a container. Views into `file` — the caller
/// keeps the backing bytes alive.
util::StatusOr<std::vector<Section>> ParseSnapshotFile(std::string_view file);

// --- Small file helpers (snapshots) ------------------------------------------

util::StatusOr<std::string> ReadFileToString(const std::string& path);
/// Writes via a temp file + rename so readers never observe a torn file.
util::Status WriteFileAtomic(const std::string& path,
                             std::string_view contents);

}  // namespace fnproxy::storage

#endif  // FNPROXY_STORAGE_WIRE_H_
