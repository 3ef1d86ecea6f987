#include "core/cache_snapshot.h"

#include <cmath>
#include <iterator>
#include <optional>
#include <utility>

#include "core/function_template.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "storage/segment.h"
#include "util/string_util.h"

namespace fnproxy::core {

using geometry::Halfspace;
using geometry::Point;
using geometry::Region;
using geometry::RegionRelation;
using geometry::ShapeKind;
using storage::ByteReader;
using storage::ByteWriter;
using util::Status;
using util::StatusOr;

namespace {

// --- Regions -----------------------------------------------------------------

void PutPoint(const Point& p, ByteWriter* out) {
  for (double v : p) out->PutDouble(v);
}

/// Reads a region's counts and doubles, remembering whether every double
/// was finite: the values are checked before a region is built from them,
/// because the constructors assert what they require and a NaN passes no
/// comparison.
class RegionReader {
 public:
  explicit RegionReader(ByteReader* in) : in_(in) {}

  double Get() {
    const double v = in_->GetDouble();
    finite_ = finite_ && std::isfinite(v);
    return v;
  }
  Point GetPoint(size_t dims) {
    Point p(dims);
    for (double& v : p) v = Get();
    return p;
  }
  /// A count of items of `item_bytes` each; one the remaining bytes cannot
  /// hold reads as truncation, before anything is sized from it.
  size_t GetCount(size_t item_bytes) {
    const uint64_t count = in_->GetVarint();
    if (count <= in_->remaining() / item_bytes) return count;
    in_->Fail();
    return 0;
  }
  Status Check() const {
    if (!in_->ok()) return Status::ParseError("truncated region");
    if (!finite_) return Status::ParseError("region value is not finite");
    return Status::Ok();
  }

 private:
  ByteReader* in_;
  bool finite_ = true;
};

// --- Sections ----------------------------------------------------------------

/// A query record takes at least 12 bytes: relation, flags, coverage and
/// two one-byte varints.
constexpr size_t kMinRecordBytes = 12;

/// A query record's flags, from bit 0 up.
constexpr bool QueryRecord::*kRecordFlags[] = {
    &QueryRecord::handled_by_template, &QueryRecord::contacted_origin,
    &QueryRecord::failed,              &QueryRecord::degraded,
    &QueryRecord::collapsed,           &QueryRecord::shed,
    &QueryRecord::peer_hit,            &QueryRecord::peer_degraded,
};

/// A section must be read to its last byte and no further.
Status SectionEnd(const ByteReader& in, const char* section) {
  if (!in.ok()) {
    return Status::ParseError(std::string("truncated snapshot ") + section +
                              " section");
  }
  if (!in.AtEnd()) {
    return Status::ParseError(std::string("trailing bytes in snapshot ") +
                              section + " section");
  }
  return Status::Ok();
}

Status ParseMeta(std::string_view payload, Snapshot* out) {
  ByteReader in(payload);
  const uint32_t version = in.GetU32();
  if (in.ok() && version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  const uint8_t mode = in.GetU8();
  out->written_micros = in.GetZigzag();
  FNPROXY_RETURN_NOT_OK(SectionEnd(in, "META"));
  // kActiveContainmentOnly is CachingMode's last enumerator.
  if (mode > static_cast<uint8_t>(CachingMode::kActiveContainmentOnly)) {
    return Status::ParseError("unknown caching mode " + std::to_string(mode) +
                              " in snapshot META section");
  }
  out->mode = static_cast<CachingMode>(mode);
  return Status::Ok();
}

Status ParseEntries(std::string_view payload, std::vector<CacheEntry>* out) {
  ByteReader in(payload);
  const uint64_t count = in.GetVarint();
  for (uint64_t i = 0; i < count && in.ok(); ++i) {
    auto fail = [i](const Status& status) {
      return Status::ParseError("snapshot entry " + std::to_string(i) + ": " +
                                status.message());
    };
    CacheEntry entry;
    entry.template_id = in.GetString();
    entry.nonspatial_fingerprint = in.GetString();
    if (!in.ok()) break;
    auto region = GetRegion(&in);
    if (!region.ok()) return fail(region.status());
    entry.region = std::move(*region);
    const uint8_t truncated = in.GetU8();
    entry.last_access_micros = in.GetZigzag();
    entry.access_count = in.GetVarint();
    const std::string_view segment_bytes = in.GetBytes(in.GetVarint());
    if (!in.ok()) break;
    if (truncated > 1) return fail(Status::ParseError("bad truncated flag"));
    auto segment = storage::FrozenSegment::Parse(segment_bytes);
    if (!segment.ok()) return fail(segment.status());
    entry.truncated = truncated == 1;
    // Restored entries come up frozen: relationship checks need only the
    // region, and the first serving access thaws (and re-prepares
    // coordinate views) through FindHot.
    entry.tier = EntryTier::kFrozen;
    entry.segment =
        std::make_shared<const storage::FrozenSegment>(std::move(*segment));
    out->push_back(std::move(entry));
  }
  return SectionEnd(in, "ENTRIES");
}

Status ParseStats(std::string_view payload, SnapshotStats* out) {
  ByteReader in(payload);
  const uint64_t num_counters = in.GetVarint();
  for (uint64_t i = 0; i < num_counters && in.ok(); ++i) {
    std::string series = in.GetString();
    const uint64_t value = in.GetVarint();
    if (!in.ok()) break;
    auto [it, inserted] = out->counters.emplace(std::move(series), value);
    if (!inserted) {
      return Status::ParseError("snapshot STATS section repeats counter " +
                                it->first);
    }
  }
  out->origin_retries = in.GetVarint();
  out->breaker_transitions = in.GetVarint();
  out->coverage_served = in.GetDouble();
  // The record count is bounded by the section before anything is reserved
  // for it.
  const uint64_t num_records = in.GetVarint();
  if (!in.ok() || num_records > in.remaining() / kMinRecordBytes) {
    return Status::ParseError("truncated snapshot STATS section");
  }
  // Coverage served sums the coverages of degraded answers, each in [0, 1].
  if (!(std::isfinite(out->coverage_served) && out->coverage_served >= 0)) {
    return Status::ParseError(std::string("coverage served ") +
                              util::FormatDouble(out->coverage_served) +
                              " in snapshot STATS section is not a finite "
                              "value >= 0");
  }
  out->records.reserve(num_records);
  for (uint64_t i = 0; i < num_records && in.ok(); ++i) {
    QueryRecord record;
    const uint8_t relation = in.GetU8();
    if (relation > static_cast<uint8_t>(RegionRelation::kDisjoint)) {
      return Status::ParseError("bad relation " + std::to_string(relation) +
                                " in snapshot STATS section");
    }
    record.status = static_cast<RegionRelation>(relation);
    const uint8_t flags = in.GetU8();
    for (size_t bit = 0; bit < std::size(kRecordFlags); ++bit) {
      record.*kRecordFlags[bit] = (flags >> bit) & 1;
    }
    record.coverage = in.GetDouble();
    record.tuples_total = in.GetVarint();
    record.tuples_from_cache = in.GetVarint();
    if (!(record.coverage >= 0 && record.coverage <= 1)) {
      return Status::ParseError(std::string("record coverage ") +
                                util::FormatDouble(record.coverage) +
                                " in snapshot STATS section is outside "
                                "[0, 1]");
    }
    out->records.push_back(record);
  }
  return SectionEnd(in, "STATS");
}

}  // namespace

void PutRegion(const Region& region, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(region.kind()));
  out->PutVarint(region.dimensions());
  switch (region.kind()) {
    case ShapeKind::kHypersphere: {
      const auto& sphere = static_cast<const geometry::Hypersphere&>(region);
      PutPoint(sphere.center(), out);
      out->PutDouble(sphere.radius());
      break;
    }
    case ShapeKind::kHyperrectangle: {
      const auto& rect = static_cast<const geometry::Hyperrectangle&>(region);
      PutPoint(rect.lo(), out);
      PutPoint(rect.hi(), out);
      break;
    }
    case ShapeKind::kPolytope: {
      const auto& poly = static_cast<const geometry::Polytope&>(region);
      out->PutVarint(poly.halfspaces().size());
      for (const Halfspace& h : poly.halfspaces()) {
        PutPoint(h.normal, out);
        out->PutDouble(h.offset);
      }
      out->PutVarint(poly.vertices().size());
      for (const Point& v : poly.vertices()) PutPoint(v, out);
      break;
    }
  }
}

StatusOr<std::unique_ptr<Region>> GetRegion(ByteReader* in) {
  const uint8_t shape = in->GetU8();
  const uint64_t dims = in->GetVarint();
  if (!in->ok()) return Status::ParseError("truncated region");
  if (dims == 0 || dims > kMaxRegionDimensions) {
    return Status::ParseError("region has " + std::to_string(dims) +
                              " dimensions, outside 1 to " +
                              std::to_string(kMaxRegionDimensions));
  }
  RegionReader values(in);
  switch (shape) {
    case static_cast<uint8_t>(ShapeKind::kHypersphere): {
      Point center = values.GetPoint(dims);
      const double radius = values.Get();
      FNPROXY_RETURN_NOT_OK(values.Check());
      if (radius < 0) return Status::ParseError("region radius is negative");
      return std::unique_ptr<Region>(
          std::make_unique<geometry::Hypersphere>(std::move(center), radius));
    }
    case static_cast<uint8_t>(ShapeKind::kHyperrectangle): {
      Point lo = values.GetPoint(dims);
      Point hi = values.GetPoint(dims);
      FNPROXY_RETURN_NOT_OK(values.Check());
      for (size_t i = 0; i < dims; ++i) {
        if (lo[i] > hi[i]) return Status::ParseError("region has lo > hi");
      }
      return std::unique_ptr<Region>(std::make_unique<geometry::Hyperrectangle>(
          std::move(lo), std::move(hi)));
    }
    case static_cast<uint8_t>(ShapeKind::kPolytope): {
      const size_t point_bytes = dims * sizeof(double);
      std::vector<Halfspace> halfspaces(
          values.GetCount(point_bytes + sizeof(double)));
      for (Halfspace& h : halfspaces) {
        h.normal = values.GetPoint(dims);
        h.offset = values.Get();
      }
      std::vector<Point> vertices(values.GetCount(point_bytes));
      for (Point& v : vertices) v = values.GetPoint(dims);
      FNPROXY_RETURN_NOT_OK(values.Check());
      if (halfspaces.empty() || vertices.empty()) {
        return Status::ParseError(
            "polytope region needs halfspaces and vertices");
      }
      auto poly = std::make_unique<geometry::Polytope>(std::move(halfspaces),
                                                       std::move(vertices));
      FNPROXY_RETURN_NOT_OK(poly->Validate());
      return std::unique_ptr<Region>(std::move(poly));
    }
  }
  return Status::ParseError("unknown region shape " + std::to_string(shape));
}

std::string SerializeSnapshot(CachingMode mode, int64_t written_micros,
                              const std::vector<LiveEntry>& entries,
                              const SnapshotStats& stats) {
  ByteWriter meta;
  meta.PutU32(kSnapshotVersion);
  meta.PutU8(static_cast<uint8_t>(mode));
  meta.PutZigzag(written_micros);

  ByteWriter body;
  body.PutVarint(entries.size());
  for (const auto& [entry, last_access_micros, access_count] : entries) {
    body.PutString(entry->template_id);
    body.PutString(entry->nonspatial_fingerprint);
    PutRegion(*entry->region, &body);
    body.PutU8(entry->truncated ? 1 : 0);
    body.PutZigzag(last_access_micros);
    body.PutVarint(access_count);
    body.PutString(
        entry->tier == EntryTier::kHot
            ? storage::FrozenSegment::Freeze(entry->result).Serialize()
            : entry->segment->Serialize());
  }

  ByteWriter statistics;
  statistics.PutVarint(stats.counters.size());
  for (const auto& [series, value] : stats.counters) {
    statistics.PutString(series);
    statistics.PutVarint(value);
  }
  statistics.PutVarint(stats.origin_retries);
  statistics.PutVarint(stats.breaker_transitions);
  statistics.PutDouble(stats.coverage_served);
  statistics.PutVarint(stats.records.size());
  for (const QueryRecord& record : stats.records) {
    uint8_t flags = 0;
    for (size_t bit = 0; bit < std::size(kRecordFlags); ++bit) {
      if (record.*kRecordFlags[bit]) flags |= 1u << bit;
    }
    statistics.PutU8(static_cast<uint8_t>(record.status));
    statistics.PutU8(flags);
    statistics.PutDouble(record.coverage);
    statistics.PutVarint(record.tuples_total);
    statistics.PutVarint(record.tuples_from_cache);
  }

  return storage::BuildSnapshotFile({
      {storage::kSectionMeta, meta.Release()},
      {storage::kSectionEntries, body.Release()},
      {storage::kSectionStats, statistics.Release()},
  });
}

StatusOr<Snapshot> ParseSnapshot(std::string_view file) {
  FNPROXY_ASSIGN_OR_RETURN(std::vector<storage::Section> sections,
                           storage::ParseSnapshotFile(file));
  // By section id. Unknown ids are skipped: a newer writer may add sections.
  std::optional<std::string_view> payloads[storage::kSectionStats + 1];
  for (const storage::Section& section : sections) {
    if (section.id > storage::kSectionStats || section.id == 0) continue;
    if (payloads[section.id]) {
      return Status::ParseError("snapshot repeats section " +
                                std::to_string(section.id));
    }
    payloads[section.id] = section.payload;
  }
  const auto& meta = payloads[storage::kSectionMeta];
  const auto& entries = payloads[storage::kSectionEntries];
  const auto& stats = payloads[storage::kSectionStats];
  if (!meta || !entries || !stats) {
    return Status::ParseError(
        "snapshot lacks its META, ENTRIES or STATS section");
  }
  Snapshot snapshot;
  // META first, so a file of another version is refused by its version.
  FNPROXY_RETURN_NOT_OK(ParseMeta(*meta, &snapshot));
  FNPROXY_RETURN_NOT_OK(ParseEntries(*entries, &snapshot.entries));
  FNPROXY_RETURN_NOT_OK(ParseStats(*stats, &snapshot.stats));
  return snapshot;
}

}  // namespace fnproxy::core
