#include "storage/wire.h"

#include <bit>
#include <cstdio>

namespace fnproxy::storage {

using util::Status;
using util::StatusOr;

uint64_t Fnv1a(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint32_t BitWidthFor(uint64_t max_value) {
  return static_cast<uint32_t>(std::bit_width(max_value));
}

std::string BuildSnapshotFile(
    const std::vector<std::pair<uint32_t, std::string>>& sections) {
  ByteWriter out;
  out.PutBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.PutU32(static_cast<uint32_t>(sections.size()));
  for (const auto& [id, payload] : sections) {
    out.PutU32(id);
    out.PutU64(payload.size());
    out.PutU64(Fnv1a(payload));
    out.PutBytes(payload.data(), payload.size());
  }
  return out.Release();
}

StatusOr<std::vector<Section>> ParseSnapshotFile(std::string_view file) {
  ByteReader in(file);
  std::string_view magic = in.GetBytes(sizeof(kSnapshotMagic));
  if (!in.ok() ||
      magic != std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic))) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  uint32_t count = in.GetU32();
  // Every section header takes 20 bytes, so a count the file cannot hold
  // is rejected before it sizes anything.
  if (!in.ok() || count > in.remaining() / 20) {
    return Status::InvalidArgument("snapshot: bad section count");
  }
  std::vector<Section> sections;
  sections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Section section;
    section.id = in.GetU32();
    uint64_t length = in.GetU64();
    uint64_t checksum = in.GetU64();
    section.payload = in.GetBytes(length);
    if (!in.ok()) {
      return Status::InvalidArgument(
          std::string("snapshot: truncated section ") +
          std::to_string(section.id));
    }
    if (Fnv1a(section.payload) != checksum) {
      return Status::ParseError(
          std::string("snapshot: checksum mismatch in section ") +
          std::to_string(section.id));
    }
    sections.push_back(section);
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("snapshot: trailing garbage");
  }
  return sections;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string contents;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read failed: " + path);
  return contents;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot create " + tmp);
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  bool ok = written == contents.size() && std::fflush(f) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + path);
  }
  return Status::Ok();
}

}  // namespace fnproxy::storage
