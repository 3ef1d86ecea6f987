#ifndef FNPROXY_CORE_CACHE_SNAPSHOT_H_
#define FNPROXY_CORE_CACHE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache_store.h"
#include "core/proxy.h"
#include "geometry/region.h"
#include "storage/wire.h"
#include "util/status.h"

namespace fnproxy::core {

// The warm-restart snapshot layout (docs/FORMATS.md §13.2) inside the
// checksummed container of §13.1: its one writer and its one reader.
// FunctionProxy::RestoreSnapshot installs what ParseSnapshot returns, and
// `fnproxy_snapshot inspect|verify` prints it, so the tool passes exactly
// the files a restore accepts.

/// The META version this build writes, and the only one it reads.
inline constexpr uint32_t kSnapshotVersion = 3;

/// The STATS section: what a restarted proxy adds to its fresh
/// instruments so /metrics and /proxy/stats continue the writer's series.
struct SnapshotStats {
  /// Counter values by the series /metrics renders them under, e.g.
  /// `fnproxy_cache_outcomes_total{outcome="exact_hit"}`.
  std::map<std::string, uint64_t> counters;
  /// Baselines of the two series the proxy computes live from the origin
  /// channel and the breaker.
  uint64_t origin_retries = 0;
  uint64_t breaker_transitions = 0;
  double coverage_served = 0;
  std::vector<QueryRecord> records;
};

/// A whole parsed snapshot.
struct Snapshot {
  CachingMode mode = CachingMode::kActiveFull;
  /// The writer's virtual clock when it wrote the file.
  int64_t written_micros = 0;
  /// Frozen entries: identity, region, access bookkeeping and segment.
  std::vector<CacheEntry> entries;
  SnapshotStats stats;
};

/// The file a proxy in `mode` writes at `written_micros`: each entry with
/// the access bookkeeping beside it. Hot entries are frozen on the way out;
/// a frozen entry contributes its segment as it is.
std::string SerializeSnapshot(CachingMode mode, int64_t written_micros,
                              const std::vector<LiveEntry>& entries,
                              const SnapshotStats& stats);

/// Parses and checks a whole snapshot file: the container's checksums,
/// META at kSnapshotVersion, every entry's region (GetRegion) and segment
/// (FrozenSegment::Parse), the counters (a repeated name is an error), and
/// every query record. A file that fails anywhere returns an error and
/// nothing else.
util::StatusOr<Snapshot> ParseSnapshot(std::string_view file);

/// An entry's region in the container's binary: the shape byte
/// (geometry::ShapeKind), the dimension count, then the shape's doubles.
void PutRegion(const geometry::Region& region, storage::ByteWriter* out);

/// Decodes one PutRegion region, accepting only one
/// FunctionTemplate::BuildRegion could have built: 1 to
/// kMaxRegionDimensions dimensions, every value finite, a radius >= 0,
/// lo <= hi on every axis, and a polytope with halfspaces and vertices that
/// passes Polytope::Validate. A halfspace or vertex count the remaining
/// bytes cannot hold is refused before anything is allocated for it.
util::StatusOr<std::unique_ptr<geometry::Region>> GetRegion(
    storage::ByteReader* in);

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_CACHE_SNAPSHOT_H_
