// The warm-restart snapshot layout (docs/FORMATS.md §13.2): the binary
// region codec of snapshot entries, which accepts only a region
// FunctionTemplate::BuildRegion could have built, ParseSnapshot, the one
// reader of a whole snapshot file, and the access bookkeeping a restored
// store evicts by.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cache_snapshot.h"
#include "geometry/celestial.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "index/array_index.h"
#include "snapshot_test_util.h"
#include "sql/columnar.h"
#include "storage/wire.h"
#include "util/random.h"

namespace fnproxy::core {
namespace {

using geometry::Halfspace;
using geometry::Point;
using geometry::ShapeKind;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::string Encode(const geometry::Region& region) {
  storage::ByteWriter out;
  PutRegion(region, &out);
  return out.Release();
}

util::StatusOr<std::unique_ptr<geometry::Region>> Decode(
    std::string_view bytes) {
  storage::ByteReader in(bytes);
  auto region = GetRegion(&in);
  if (region.ok()) {
    EXPECT_TRUE(in.AtEnd());
  }
  return region;
}

/// Region bytes as a writer that skipped the checks would put them: the
/// shape byte, the dimension count, then `values`.
std::string Raw(ShapeKind shape, uint64_t dims,
                const std::vector<double>& values) {
  storage::ByteWriter out;
  out.PutU8(static_cast<uint8_t>(shape));
  out.PutVarint(dims);
  for (double v : values) out.PutDouble(v);
  return out.Release();
}

/// Polytope bytes of 2-D `halfspaces` and `vertices`.
std::string RawPolytope(const std::vector<Halfspace>& halfspaces,
                        const std::vector<Point>& vertices) {
  storage::ByteWriter out;
  out.PutU8(static_cast<uint8_t>(ShapeKind::kPolytope));
  out.PutVarint(2);
  out.PutVarint(halfspaces.size());
  for (const Halfspace& h : halfspaces) {
    for (double v : h.normal) out.PutDouble(v);
    out.PutDouble(h.offset);
  }
  out.PutVarint(vertices.size());
  for (const Point& p : vertices) {
    for (double v : p) out.PutDouble(v);
  }
  return out.Release();
}

const std::vector<Halfspace> kTriangleHalfspaces = {
    {{-1, 0}, 0}, {{0, -1}, 0}, {{1, 1}, 4}};
const std::vector<Point> kTriangleVertices = {{0, 0}, {4, 0}, {0, 4}};

TEST(RegionCodecTest, RoundTripsEveryShapeBitForBit) {
  const geometry::Hypersphere cone =
      geometry::ConeToHypersphere(195.1234, 2.5678, 17.89);
  const geometry::Hyperrectangle rect({-1.0, 2.0}, {3.5, 4.25});
  const geometry::Polytope triangle(kTriangleHalfspaces, kTriangleVertices);
  const geometry::Region* regions[] = {&cone, &rect, &triangle};
  for (const geometry::Region* region : regions) {
    SCOPED_TRACE(region->ToString());
    const std::string bytes = Encode(*region);
    auto decoded = Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ((*decoded)->kind(), region->kind());
    EXPECT_EQ(Encode(**decoded), bytes);
    EXPECT_TRUE(geometry::Equals(*region, **decoded));
  }
}

TEST(RegionCodecTest, RefusesNonFiniteValues) {
  const std::string refused[] = {
      // [-inf, inf]^2: Contains once reported it as holding any query box.
      Raw(ShapeKind::kHyperrectangle, 2, {-kInf, -kInf, kInf, kInf}),
      Raw(ShapeKind::kHyperrectangle, 1, {kNan, 1}),
      Raw(ShapeKind::kHypersphere, 3, {0, 0, 1, kNan}),
      Raw(ShapeKind::kHypersphere, 3, {0, 0, 1, kInf}),
      Raw(ShapeKind::kHypersphere, 3, {kNan, 0, 1, 0.5}),
      RawPolytope(kTriangleHalfspaces, {{0, 0}, {4, 0}, {0, kInf}}),
      RawPolytope({{{-1, 0}, 0}, {{0, -1}, 0}, {{1, 1}, kNan}},
                  kTriangleVertices),
  };
  for (const std::string& bytes : refused) {
    auto region = Decode(bytes);
    EXPECT_FALSE(region.ok()) << (*region)->ToString();
  }
}

TEST(RegionCodecTest, RefusesDimensionCountsOutsideOneToSixteen) {
  EXPECT_FALSE(Decode(Raw(ShapeKind::kHypersphere, 0, {0.5})).ok());
  EXPECT_FALSE(
      Decode(Raw(ShapeKind::kHypersphere, 17, std::vector<double>(18, 0.5)))
          .ok());
  EXPECT_TRUE(
      Decode(Raw(ShapeKind::kHypersphere, 16, std::vector<double>(17, 0.5)))
          .ok());
}

TEST(RegionCodecTest, RefusesWhatBuildRegionRefuses) {
  // A negative radius, lo > hi, and polytopes that fail Polytope::Validate
  // or lack a representation.
  const std::string refused[] = {
      Raw(ShapeKind::kHypersphere, 2, {0, 0, -0.5}),
      Raw(ShapeKind::kHyperrectangle, 2, {0, 2, 1, 1}),
      RawPolytope(kTriangleHalfspaces, {{0, 0}, {4, 0}, {5, 5}}),
      RawPolytope({{{0, 0}, 1}}, {{0, 0}}),
      RawPolytope({}, kTriangleVertices),
      RawPolytope(kTriangleHalfspaces, {}),
  };
  for (const std::string& bytes : refused) {
    EXPECT_FALSE(Decode(bytes).ok());
  }
}

TEST(RegionCodecTest, RefusesUnknownShapesAndShortBytes) {
  const std::string bytes =
      Encode(geometry::Hyperrectangle({-1.0, 2.0}, {3.5, 4.25}));
  for (int shape : {3, 9, 255}) {
    std::string unknown = bytes;
    unknown[0] = static_cast<char>(shape);
    auto region = Decode(unknown);
    ASSERT_FALSE(region.ok());
    EXPECT_NE(region.status().message().find(std::to_string(shape)),
              std::string::npos);
  }
  const std::string polytope =
      Encode(geometry::Polytope(kTriangleHalfspaces, kTriangleVertices));
  for (const std::string* full : {&bytes, &polytope}) {
    for (size_t keep = 0; keep < full->size(); ++keep) {
      EXPECT_FALSE(Decode(full->substr(0, keep)).ok()) << "kept " << keep;
    }
  }
}

TEST(RegionCodecTest, RefusesCountsTheBytesCannotHold) {
  // Decoding either count as given would allocate 2^60 halfspaces or
  // vertices; the decoder refuses both against the bytes left.
  for (bool lie_about_vertices : {false, true}) {
    storage::ByteWriter out;
    out.PutU8(static_cast<uint8_t>(ShapeKind::kPolytope));
    out.PutVarint(2);
    if (lie_about_vertices) {
      out.PutVarint(1);
      for (double v : {1.0, 0.0, 1.0}) out.PutDouble(v);
    }
    out.PutVarint(uint64_t{1} << 60);
    for (int i = 0; i < 8; ++i) out.PutDouble(0.5);
    EXPECT_FALSE(Decode(out.bytes()).ok());
  }
}

// --- Whole files -------------------------------------------------------------

/// A hot entry as admitted (accessed once, at 0) beside the live
/// bookkeeping the writer's store kept for it: the values a snapshot
/// holds.
LiveEntry HotEntry(std::unique_ptr<geometry::Region> region) {
  sql::Table rows(sql::Schema({{"x", sql::ValueType::kDouble},
                               {"name", sql::ValueType::kString}}));
  rows.AddRow({sql::Value::Double(1.5), sql::Value::String("a")});
  rows.AddRow({sql::Value::Double(-2.25), sql::Value::String("b")});
  auto entry = std::make_shared<CacheEntry>();
  entry->template_id = "radial";
  entry->nonspatial_fingerprint = "flags=1";
  entry->region = std::move(region);
  entry->result = sql::ColumnarTable(rows);
  entry->truncated = true;
  entry->last_access_micros = 0;
  entry->access_count = 1;
  return {std::move(entry), -7, 3};
}

SnapshotStats SomeStats() {
  SnapshotStats stats;
  stats.counters["fnproxy_requests_total"] = 12;
  stats.counters["fnproxy_cache_outcomes_total{outcome=\"exact_hit\"}"] = 4;
  stats.origin_retries = 2;
  stats.breaker_transitions = 1;
  stats.coverage_served = 0.5;
  QueryRecord record;
  record.status = geometry::RegionRelation::kOverlap;
  record.degraded = true;
  record.coverage = 0.5;
  record.tuples_total = 300;
  record.tuples_from_cache = 200;
  stats.records = {record, QueryRecord{}};
  return stats;
}

std::string SomeFile() {
  return SerializeSnapshot(
      CachingMode::kActiveRegionContainment, 1234,
      {HotEntry(std::make_unique<geometry::Hypersphere>(
           geometry::ConeToHypersphere(185, 33, 2))),
       HotEntry(std::make_unique<geometry::Polytope>(kTriangleHalfspaces,
                                                     kTriangleVertices))},
      SomeStats());
}

/// `file` with the payload of section `id` replaced by `edit` of it; every
/// checksum stays valid.
std::string EditSection(const std::string& file, uint32_t id,
                        const std::function<void(std::string*)>& edit) {
  auto sections = storage::ParseSnapshotFile(file);
  EXPECT_TRUE(sections.ok());
  std::vector<std::pair<uint32_t, std::string>> rebuilt;
  for (const storage::Section& section : *sections) {
    rebuilt.emplace_back(section.id, std::string(section.payload));
    if (section.id == id) edit(&rebuilt.back().second);
  }
  return storage::BuildSnapshotFile(rebuilt);
}

TEST(ParseSnapshotTest, ReadsBackWhatTheWriterWrote) {
  auto snapshot = ParseSnapshot(SomeFile());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->mode, CachingMode::kActiveRegionContainment);
  EXPECT_EQ(snapshot->written_micros, 1234);
  ASSERT_EQ(snapshot->entries.size(), 2u);
  for (const CacheEntry& entry : snapshot->entries) {
    EXPECT_EQ(entry.template_id, "radial");
    EXPECT_EQ(entry.nonspatial_fingerprint, "flags=1");
    EXPECT_TRUE(entry.truncated);
    EXPECT_EQ(entry.last_access_micros, -7);
    EXPECT_EQ(entry.access_count, 3u);
    EXPECT_EQ(entry.tier, EntryTier::kFrozen);
    ASSERT_NE(entry.segment, nullptr);
    EXPECT_EQ(entry.segment->num_rows(), 2u);
  }
  EXPECT_EQ(snapshot->entries[1].region->kind(), ShapeKind::kPolytope);
  const SnapshotStats want = SomeStats();
  EXPECT_EQ(snapshot->stats.counters, want.counters);
  EXPECT_EQ(snapshot->stats.origin_retries, 2u);
  EXPECT_EQ(snapshot->stats.breaker_transitions, 1u);
  EXPECT_EQ(snapshot->stats.coverage_served, 0.5);
  ASSERT_EQ(snapshot->stats.records.size(), 2u);
  const QueryRecord& record = snapshot->stats.records[0];
  EXPECT_EQ(record.status, geometry::RegionRelation::kOverlap);
  EXPECT_TRUE(record.degraded);
  EXPECT_FALSE(record.failed);
  EXPECT_EQ(record.tuples_total, 300u);
  EXPECT_EQ(record.tuples_from_cache, 200u);
}

TEST(ParseSnapshotTest, RefusesEveryOtherVersionByName) {
  for (uint32_t version : {0u, 2u, 7u}) {
    const std::string file = EditSection(
        SomeFile(), storage::kSectionMeta, [version](std::string* meta) {
          for (int i = 0; i < 4; ++i) {
            (*meta)[i] = static_cast<char>(version >> (8 * i));
          }
        });
    auto snapshot = ParseSnapshot(file);
    ASSERT_FALSE(snapshot.ok());
    EXPECT_NE(snapshot.status().message().find(
                  "version " + std::to_string(version)),
              std::string::npos)
        << snapshot.status().ToString();
  }
}

/// A STATS payload with `counters`, no baselines and one record of
/// relation byte `relation`.
std::string Stats(const std::vector<std::string>& counters,
                  uint8_t relation) {
  storage::ByteWriter out;
  out.PutVarint(counters.size());
  for (const std::string& series : counters) {
    out.PutString(series);
    out.PutVarint(1);
  }
  out.PutVarint(0);
  out.PutVarint(0);
  out.PutDouble(0);
  out.PutVarint(1);
  out.PutU8(relation);
  out.PutU8(0);
  out.PutDouble(1);
  out.PutVarint(0);
  out.PutVarint(0);
  return out.Release();
}

TEST(ParseSnapshotTest, ChecksCountersAndRecords) {
  auto with_stats = [](std::string stats) {
    return ParseSnapshot(EditSection(
        SomeFile(), storage::kSectionStats,
        [&stats](std::string* payload) { *payload = stats; }));
  };
  // Any name parses; restore ignores one this build does not register.
  EXPECT_TRUE(with_stats(Stats({"a_total", "fnproxy_retired_total"}, 4)).ok());
  EXPECT_FALSE(with_stats(Stats({"a_total", "b_total", "a_total"}, 4)).ok());
  EXPECT_FALSE(with_stats(Stats({}, 5)).ok());
  EXPECT_FALSE(with_stats(Stats({}, 9)).ok());
}

/// SomeFile with `coverage_served` and its first record's `coverage`.
std::string FileWithCoverage(double coverage_served, double coverage) {
  SnapshotStats stats = SomeStats();
  stats.coverage_served = coverage_served;
  stats.records[0].coverage = coverage;
  return SerializeSnapshot(CachingMode::kActiveFull, 0,
                           {HotEntry(std::make_unique<geometry::Hypersphere>(
                               geometry::ConeToHypersphere(185, 33, 2)))},
                           stats);
}

TEST(ParseSnapshotTest, RefusesCoverageNoWriterProduces) {
  EXPECT_TRUE(ParseSnapshot(FileWithCoverage(0, 0)).ok());
  EXPECT_TRUE(ParseSnapshot(FileWithCoverage(2.5, 1)).ok());
  // Coverage served sums degraded answers' coverages, so it is finite and
  // never negative.
  for (double served : {kNan, kInf, -kInf, -0.5}) {
    SCOPED_TRACE(served);
    auto parsed = ParseSnapshot(FileWithCoverage(served, 0.5));
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("coverage served"),
              std::string::npos)
        << parsed.status().ToString();
  }
  // A record's coverage is a fraction of its region.
  for (double coverage : {kNan, kInf, -0.25, 1.5}) {
    SCOPED_TRACE(coverage);
    auto parsed = ParseSnapshot(FileWithCoverage(0.5, coverage));
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("record coverage"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ParseSnapshotTest, NanCoverageServedRestoresCold) {
  const std::string path =
      ::testing::TempDir() + "/fnproxy_nan_coverage_served.snap";
  ASSERT_TRUE(
      storage::WriteFileAtomic(path, FileWithCoverage(kNan, 0.5)).ok());
  {
    RestoringProxy restored(path);
    EXPECT_EQ(restored.proxy()->cache().num_entries(), 0u);
    EXPECT_EQ(SnapshotErrors(restored.proxy()), 1);
    EXPECT_EQ(MetricValue(restored.proxy(),
                          "fnproxy_degraded_coverage_served_total"),
              0);
  }
  std::remove(path.c_str());
}

// --- Access bookkeeping ------------------------------------------------------

/// Entry `i` of the store tests: `rows` full-precision doubles in a region
/// of its own, admitted at virtual time i + 1 with one access.
CacheEntry StoreEntry(int i, size_t rows) {
  util::Random rng(static_cast<uint64_t>(i) + 1);
  sql::Table table(sql::Schema({{"x", sql::ValueType::kDouble}}));
  for (size_t r = 0; r < rows; ++r) {
    table.AddRow({sql::Value::Double(rng.NextDouble(-1, 1))});
  }
  CacheEntry entry;
  entry.template_id = "radial";
  entry.nonspatial_fingerprint = std::string("e") + std::to_string(i);
  entry.region = std::make_unique<geometry::Hypersphere>(
      Point{10.0 * i, 0.0}, 1.0);
  entry.result = table;
  entry.last_access_micros = i + 1;
  entry.access_count = 1;
  return entry;
}

std::unique_ptr<CacheStore> MakeStore(ReplacementPolicy policy,
                                      size_t max_bytes) {
  return std::make_unique<CacheStore>(
      [] { return std::make_unique<index::ArrayRegionIndex>(); }, 1,
      max_bytes, policy);
}

std::set<std::string> Fingerprints(const CacheStore& store) {
  std::set<std::string> fingerprints;
  for (const LiveEntry& live : store.LiveEntries()) {
    fingerprints.insert(live.entry->nonspatial_fingerprint);
  }
  return fingerprints;
}

TEST(SnapshotBookkeepingTest, RestoredStoreEvictsTheWritersNextVictim) {
  // The first entry is the largest and the oldest, so it is the next
  // victim of both policies until its three later hits count: the access
  // count prices it under kCostAware, the last access orders it under
  // kLru.
  const size_t kRows[] = {300, 100, 200};
  auto fill = [&](CacheStore* store) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
      ids.push_back(store->Insert(StoreEntry(i, kRows[i])));
    }
    for (int64_t now : {10, 11, 12}) store->Touch(ids[0], now);
  };
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kCostAware, ReplacementPolicy::kLru}) {
    SCOPED_TRACE(ReplacementPolicyName(policy));
    // Each store's budget holds its three entries and one byte less than
    // the next entry besides, so admitting that entry evicts exactly one.
    auto extra = MakeStore(policy, 0);
    extra->Insert(StoreEntry(3, 50));
    auto unlimited = MakeStore(policy, 0);
    fill(unlimited.get());
    auto writer = MakeStore(policy, unlimited->bytes_used() +
                                        extra->bytes_used() - 1);
    fill(writer.get());
    const std::string file = SerializeSnapshot(
        CachingMode::kActiveFull, 20, writer->LiveEntries(), SnapshotStats{});

    auto restore = [&](CacheStore* store) {
      auto snapshot = ParseSnapshot(file);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      for (CacheEntry& entry : snapshot->entries) {
        store->Insert(std::move(entry));
      }
    };
    auto restored_unlimited = MakeStore(policy, 0);
    restore(restored_unlimited.get());
    auto restored = MakeStore(policy, restored_unlimited->bytes_used() +
                                          extra->bytes_used() - 1);
    restore(restored.get());
    ASSERT_EQ(restored->num_entries(), 3u);

    writer->Insert(StoreEntry(3, 50));
    restored->Insert(StoreEntry(3, 50));
    EXPECT_EQ(writer->evictions(), 1u);
    EXPECT_EQ(restored->evictions(), 1u);
    EXPECT_EQ(Fingerprints(*restored), Fingerprints(*writer));
    EXPECT_EQ(Fingerprints(*writer).count("e0"), 1u);
  }
}

TEST(ParseSnapshotTest, RefusesBadSectionsAndSectionSets) {
  const std::string file = SomeFile();
  ASSERT_TRUE(ParseSnapshot(file).ok());
  for (uint32_t id : {storage::kSectionMeta, storage::kSectionEntries,
                      storage::kSectionStats}) {
    SCOPED_TRACE(id);
    EXPECT_FALSE(ParseSnapshot(EditSection(file, id, [](std::string* p) {
                   p->push_back('\0');
                 })).ok());
    EXPECT_FALSE(ParseSnapshot(EditSection(file, id, [](std::string* p) {
                   p->pop_back();
                 })).ok());
  }
  auto sections = storage::ParseSnapshotFile(file);
  ASSERT_TRUE(sections.ok());
  std::vector<std::pair<uint32_t, std::string>> missing_stats, repeated_meta;
  for (const storage::Section& section : *sections) {
    if (section.id != storage::kSectionStats) {
      missing_stats.emplace_back(section.id, std::string(section.payload));
    }
    repeated_meta.emplace_back(section.id, std::string(section.payload));
    if (section.id == storage::kSectionMeta) {
      repeated_meta.emplace_back(section.id, std::string(section.payload));
    }
  }
  EXPECT_FALSE(ParseSnapshot(storage::BuildSnapshotFile(missing_stats)).ok());
  EXPECT_FALSE(ParseSnapshot(storage::BuildSnapshotFile(repeated_meta)).ok());
  // A section id this build does not know is skipped.
  std::vector<std::pair<uint32_t, std::string>> extra = missing_stats;
  extra.emplace_back(999, "future bytes");
  extra.emplace_back(storage::kSectionStats,
                     std::string(sections->back().payload));
  EXPECT_TRUE(ParseSnapshot(storage::BuildSnapshotFile(extra)).ok());
}

}  // namespace
}  // namespace fnproxy::core
