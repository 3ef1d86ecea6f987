// Command-line utility for warm-restart snapshot files (docs/FORMATS.md §13,
// docs/STORAGE.md):
//
//   fnproxy_snapshot inspect <file>   META, entries, counters by name
//   fnproxy_snapshot verify  <file>   full integrity check (exit 0 = intact)
//
// Both read the file with core::ParseSnapshot, the parser a proxy restores
// through, so `verify` passes exactly the snapshots a restore accepts and
// `inspect` prints what a restore would install.

#include <cstdio>
#include <string>
#include <utility>

#include "core/cache_snapshot.h"
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

/// Reads and parses the snapshot at `path` into `*file` and `*snapshot`;
/// false, after printing why, when a restore would refuse it.
bool Load(const std::string& path, std::string* file,
          core::Snapshot* snapshot) {
  auto bytes = storage::ReadFileToString(path);
  util::StatusOr<core::Snapshot> parsed =
      bytes.ok() ? core::ParseSnapshot(*bytes)
                 : util::StatusOr<core::Snapshot>(bytes.status());
  if (!parsed.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  *file = std::move(*bytes);
  *snapshot = std::move(*parsed);
  return true;
}

int Inspect(const std::string& path) {
  std::string file;
  core::Snapshot snapshot;
  if (!Load(path, &file, &snapshot)) return 1;
  std::printf("file: %s (%zu bytes)\n", path.c_str(), file.size());
  std::printf("meta: version %u, mode %s, written at virtual t=%lldus\n",
              core::kSnapshotVersion, core::CachingModeName(snapshot.mode),
              static_cast<long long>(snapshot.written_micros));
  std::printf("entries: %zu\n", snapshot.entries.size());
  size_t raw_total = 0;
  size_t encoded_total = 0;
  for (size_t i = 0; i < snapshot.entries.size(); ++i) {
    const core::CacheEntry& entry = snapshot.entries[i];
    const storage::FrozenSegment& segment = *entry.segment;
    const size_t encoded = segment.Serialize().size();
    const sql::ColumnarTable thawed = segment.Thaw();
    raw_total += thawed.ByteSize();
    encoded_total += encoded;
    std::printf("  [%zu] template=%s %s rows=%zu cols=%zu encoded=%zuB", i,
                entry.template_id.c_str(), entry.region->ToString().c_str(),
                segment.num_rows(), thawed.num_columns(), encoded);
    if (entry.truncated) std::printf(" truncated");
    std::printf("\n");
    const sql::Schema schema = segment.schema();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      std::printf("        col %-20s %s\n", schema.column(c).name.c_str(),
                  storage::ColumnEncodingName(segment.encoding(c)));
    }
  }
  if (encoded_total > 0) {
    std::printf("compression: %zu raw -> %zu encoded (%.2fx)\n", raw_total,
                encoded_total,
                static_cast<double>(raw_total) /
                    static_cast<double>(encoded_total));
  }
  const core::SnapshotStats& stats = snapshot.stats;
  std::printf("stats: %zu counters, %zu query records\n",
              stats.counters.size(), stats.records.size());
  for (const auto& [series, value] : stats.counters) {
    std::printf("  %s %llu\n", series.c_str(),
                static_cast<unsigned long long>(value));
  }
  return 0;
}

int Verify(const std::string& path) {
  std::string file;
  core::Snapshot snapshot;
  if (!Load(path, &file, &snapshot)) return 1;
  size_t rows = 0;
  for (const core::CacheEntry& entry : snapshot.entries) {
    rows += entry.segment->num_rows();
  }
  std::printf("OK: %zu entries, %zu rows, %zu counters, %zu query records\n",
              snapshot.entries.size(), rows, snapshot.stats.counters.size(),
              snapshot.stats.records.size());
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
