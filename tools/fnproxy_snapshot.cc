// Command-line utility for warm-restart snapshot files (docs/FORMATS.md §13,
// docs/STORAGE.md):
//
//   fnproxy_snapshot inspect <file>   section map, entries, stats summary
//   fnproxy_snapshot verify  <file>   full integrity check (exit 0 = intact)
//
// `verify` goes beyond the container checksums: every embedded segment is
// parsed and decoded back to a hot table, so a snapshot that passes here is
// one the proxy can actually restore from.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "storage/segment.h"
#include "storage/wire.h"

using namespace fnproxy;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fnproxy_snapshot inspect <file>\n"
               "  fnproxy_snapshot verify  <file>\n");
  return 2;
}

const char* SectionName(uint32_t id) {
  switch (id) {
    case storage::kSectionMeta:
      return "META";
    case storage::kSectionEntries:
      return "ENTRIES";
    case storage::kSectionStats:
      return "STATS";
    default:
      return "(unknown)";
  }
}

/// One parsed snapshot entry body (the subset the tool reports on).
struct EntryInfo {
  std::string template_id;
  bool truncated = false;
  uint64_t access_count = 0;
  std::string segment_bytes;
};

/// Walks the ENTRIES payload. Returns false (with a message) on truncation.
bool ReadEntries(std::string_view payload, std::vector<EntryInfo>* out) {
  storage::ByteReader reader(payload);
  const uint64_t count = reader.GetVarint();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    EntryInfo info;
    info.template_id = reader.GetString();
    reader.GetString();  // nonspatial fingerprint
    reader.GetString();  // reserved slot (written empty)
    reader.GetString();  // region XML
    info.truncated = reader.GetU8() != 0;
    reader.GetZigzag();  // last access
    info.access_count = reader.GetVarint();
    info.segment_bytes = reader.GetString();
    if (reader.ok()) out->push_back(std::move(info));
  }
  return reader.ok();
}

int Inspect(const std::string& path) {
  auto file = storage::ReadFileToString(path);
  if (!file.ok()) {
    std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
    return 1;
  }
  auto sections = storage::ParseSnapshotFile(*file);
  if (!sections.ok()) {
    std::fprintf(stderr, "corrupt container: %s\n",
                 sections.status().ToString().c_str());
    return 1;
  }
  std::printf("file: %s (%zu bytes, %zu sections)\n", path.c_str(),
              file->size(), sections->size());
  for (const storage::Section& section : *sections) {
    std::printf("  section %u %-8s %10zu bytes  checksum ok\n", section.id,
                SectionName(section.id), section.payload.size());
  }
  for (const storage::Section& section : *sections) {
    if (section.id == storage::kSectionMeta) {
      storage::ByteReader reader(section.payload);
      const uint32_t version = reader.GetU32();
      const uint8_t mode = reader.GetU8();
      const int64_t written_micros = reader.GetZigzag();
      if (!reader.ok()) {
        std::fprintf(stderr, "META truncated\n");
        return 1;
      }
      std::printf("meta: version %u, mode %u, written at virtual t=%lldus\n",
                  version, mode, static_cast<long long>(written_micros));
    }
  }
  for (const storage::Section& section : *sections) {
    if (section.id != storage::kSectionEntries) continue;
    std::vector<EntryInfo> entries;
    if (!ReadEntries(section.payload, &entries)) {
      std::fprintf(stderr, "ENTRIES truncated\n");
      return 1;
    }
    std::printf("entries: %zu\n", entries.size());
    size_t raw_total = 0;
    size_t encoded_total = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const EntryInfo& info = entries[i];
      auto segment = storage::FrozenSegment::Parse(info.segment_bytes);
      if (!segment.ok()) {
        std::printf("  [%zu] template=%s  BAD SEGMENT: %s\n", i,
                    info.template_id.c_str(),
                    segment.status().ToString().c_str());
        continue;
      }
      const sql::ColumnarTable thawed = segment->Thaw();
      raw_total += thawed.ByteSize();
      encoded_total += info.segment_bytes.size();
      std::printf("  [%zu] template=%s rows=%zu cols=%zu encoded=%zuB",
                  i, info.template_id.c_str(), segment->num_rows(),
                  thawed.num_columns(), info.segment_bytes.size());
      if (info.truncated) std::printf(" truncated");
      std::printf("\n");
      const sql::Schema schema = segment->schema();
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        std::printf("        col %-20s %s\n", schema.column(c).name.c_str(),
                    storage::ColumnEncodingName(segment->encoding(c)));
      }
    }
    if (encoded_total > 0) {
      std::printf("compression: %zu raw -> %zu encoded (%.2fx)\n", raw_total,
                  encoded_total,
                  static_cast<double>(raw_total) /
                      static_cast<double>(encoded_total));
    }
  }
  for (const storage::Section& section : *sections) {
    if (section.id != storage::kSectionStats) continue;
    storage::ByteReader reader(section.payload);
    const uint64_t counters = reader.GetVarint();
    uint64_t requests = 0;
    for (uint64_t i = 0; i < counters && reader.ok(); ++i) {
      const uint64_t value = reader.GetVarint();
      if (i == 0) requests = value;
    }
    reader.GetVarint();  // origin retries
    reader.GetVarint();  // breaker transitions
    reader.GetDouble();  // coverage served
    const uint64_t records = reader.GetVarint();
    if (!reader.ok()) {
      std::fprintf(stderr, "STATS truncated\n");
      return 1;
    }
    std::printf("stats: %llu counters (requests=%llu), %llu query records\n",
                static_cast<unsigned long long>(counters),
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(records));
  }
  return 0;
}

int Verify(const std::string& path) {
  auto file = storage::ReadFileToString(path);
  if (!file.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", file.status().ToString().c_str());
    return 1;
  }
  auto sections = storage::ParseSnapshotFile(*file);
  if (!sections.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", sections.status().ToString().c_str());
    return 1;
  }
  size_t segments = 0;
  size_t rows = 0;
  for (const storage::Section& section : *sections) {
    if (section.id != storage::kSectionEntries) continue;
    std::vector<EntryInfo> entries;
    if (!ReadEntries(section.payload, &entries)) {
      std::fprintf(stderr, "FAIL: ENTRIES section truncated\n");
      return 1;
    }
    for (const EntryInfo& info : entries) {
      auto segment = storage::FrozenSegment::Parse(info.segment_bytes);
      if (!segment.ok()) {
        std::fprintf(stderr, "FAIL: bad segment (template %s): %s\n",
                     info.template_id.c_str(),
                     segment.status().ToString().c_str());
        return 1;
      }
      // Decode every column: a segment that thaws is one FindHot can serve.
      const sql::ColumnarTable thawed = segment->Thaw();
      rows += thawed.num_rows();
      ++segments;
    }
  }
  std::printf("OK: %zu sections, %zu segments, %zu rows\n", sections->size(),
              segments, rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string command = argv[1];
  if (command == "inspect") return Inspect(argv[2]);
  if (command == "verify") return Verify(argv[2]);
  return Usage();
}
