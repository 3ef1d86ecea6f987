// Seeded mutation fuzzing of the parsers of bytes that come back from disk
// (docs/FORMATS.md §13): frozen segments and warm-restart snapshots.
// Segments of radial, rect, string and bool/NULL tables get bit flips,
// truncations and length-field lies, and each result is fed to
// FrozenSegment::Parse and to FunctionProxy::RestoreSnapshot inside a
// checksum-valid snapshot, as are mutated entry regions and mutated
// ENTRIES and STATS sections. Every input must be rejected with a status
// or decode to a table whose every cell reads back and to regions that
// FunctionTemplate::BuildRegion could have built, and a failed restore must
// leave the proxy as it was. The inputs in
// storage_fuzz_fixtures/ once got past a parser; they are replayed first.
// The seed and the mutation budget are fixed, so a run is reproducible and
// stays within a few seconds under the sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/cache_snapshot.h"
#include "core/function_template.h"
#include "core/proxy.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "net/network.h"
#include "server/database.h"
#include "server/web_app.h"
#include "sql/columnar.h"
#include "sql/table_xml.h"
#include "storage/segment.h"
#include "storage/wire.h"
#include "util/random.h"

namespace fnproxy::core {
namespace {

using sql::ColumnarTable;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;
using storage::FrozenSegment;

constexpr uint64_t kSeed = 2004;
constexpr int kMutationsPerTable = 80;

// --- Source tables -----------------------------------------------------------

struct Source {
  const char* name;
  ColumnarTable table;
  std::unique_ptr<geometry::Region> region;
};

Table Catalog() {
  catalog::SkyCatalogConfig config;
  config.num_objects = 40;
  config.num_clusters = 2;
  config.seed = 11;
  return catalog::GenerateSkyCatalog(config).ToTable();
}

/// The catalog's columns at `indexes`, with views prepared on `coords`.
ColumnarTable Project(const Table& catalog, const std::vector<size_t>& indexes,
                      const std::vector<size_t>& coords) {
  std::vector<sql::Column> columns;
  for (size_t i : indexes) columns.push_back(catalog.schema().column(i));
  Table rows{Schema(columns)};
  for (const sql::Row& row : catalog.rows()) {
    sql::Row projected;
    for (size_t i : indexes) projected.push_back(row[i]);
    rows.AddRow(std::move(projected));
  }
  ColumnarTable table(rows);
  for (size_t c : coords) EXPECT_TRUE(table.PrepareNumericView(c).ok());
  return table;
}

/// Radial (objID..z; views on cx/cy/cz), rect (objID, ra, dec, cx..cz, r;
/// views on ra/dec), string (dictionary columns with NULLs beside wide
/// ints) and typed (strings and bools with NULLs, an all-NULL DOUBLE
/// column, a NULL-typed column and full-precision doubles) tables:
/// together they use every encoding.
std::vector<Source> Sources() {
  const Table catalog = Catalog();
  std::vector<Source> sources;
  sources.push_back(
      {"radial",
       Project(catalog, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {3, 4, 5}),
       std::make_unique<geometry::Hypersphere>(
           geometry::Point{-0.75, 0.43, 0.5}, 0.006)});
  sources.push_back({"rect", Project(catalog, {0, 1, 2, 3, 4, 5, 8}, {1, 2}),
                     std::make_unique<geometry::Hyperrectangle>(
                         geometry::Point{170.0, 20.0},
                         geometry::Point{190.0, 40.0})});

  util::Random rng(kSeed);
  Table strings(Schema({{"name", ValueType::kString},
                        {"class", ValueType::kString},
                        {"id", ValueType::kInt}}));
  const char* kClasses[] = {"STAR", "GALAXY", "QSO", ""};
  for (int i = 0; i < 30; ++i) {
    strings.AddRow(
        {Value::String(std::string("obj-") +
                       std::to_string(rng.NextUint64(1000))),
         rng.NextUint64(5) == 0 ? Value::Null()
                                : Value::String(kClasses[rng.NextUint64(4)]),
         Value::Int(static_cast<int64_t>(rng.NextUint64(uint64_t{1} << 62)) -
                    (int64_t{1} << 61))});
  }
  sources.push_back({"string", ColumnarTable(strings),
                     std::make_unique<geometry::Hypersphere>(
                         geometry::Point{0.1, 0.2, 0.9}, 0.01)});

  Table typed(Schema({{"label", ValueType::kString},
                      {"flag", ValueType::kBool},
                      {"none", ValueType::kDouble},
                      {"noise", ValueType::kDouble},
                      {"k", ValueType::kNull}}));
  for (int i = 0; i < 30; ++i) {
    // std::string("s"): GCC 12 at -O3 misreports `"s" + std::string`
    // as an overlapping memcpy (-Wrestrict), which -Werror fails.
    typed.AddRow({i % 5 == 4 ? Value::Null()
                             : Value::String(std::string("s") +
                                             std::to_string(i % 4)),
                  i % 7 == 0 ? Value::Null() : Value::Bool(i % 3 == 0),
                  Value::Null(), Value::Double(rng.NextDouble(-1e9, 1e9)),
                  Value::Null()});
  }
  sources.push_back(
      {"typed", ColumnarTable(typed),
       std::make_unique<geometry::Polytope>(
           std::vector<geometry::Halfspace>{
               {{-1, 0}, 0}, {{0, -1}, 0}, {{1, 1}, 1}},
           std::vector<geometry::Point>{{0, 0}, {1, 0}, {0, 1}})});
  return sources;
}

// --- Mutations ---------------------------------------------------------------

/// Reads the varint at `offset`; `*length` receives its byte count.
uint64_t VarintAt(std::string_view bytes, size_t offset, size_t* length) {
  storage::ByteReader in(bytes.substr(offset));
  const uint64_t value = in.GetVarint();
  *length = bytes.size() - offset - in.remaining();
  return value;
}

/// Offsets of the length and count fields of a segment (docs/FORMATS.md
/// §13.3): the header's counts, every schema name length, every framing
/// count and length, and the leading value count of delta-coded payloads.
std::vector<size_t> LengthFields(std::string_view wire) {
  std::vector<size_t> fields;
  storage::ByteReader in(wire);
  auto here = [&] { return wire.size() - in.remaining(); };
  fields.push_back(here());
  in.GetVarint();
  fields.push_back(here());
  const uint64_t columns = in.GetVarint();
  for (uint64_t c = 0; c < columns && in.ok(); ++c) {
    fields.push_back(here());
    in.GetString();
    in.GetU8();
  }
  for (uint64_t c = 0; c < columns && in.ok(); ++c) {
    const auto encoding = static_cast<storage::ColumnEncoding>(in.GetU8());
    in.GetU8();
    for (int words = 0; words < 3; ++words) {
      fields.push_back(here());
      in.GetBytes(in.GetVarint() * 8);
    }
    fields.push_back(here());
    const size_t packed_length = in.GetVarint();
    const size_t packed_start = here();
    if (encoding == storage::ColumnEncoding::kDeltaInt && packed_length > 0) {
      fields.push_back(packed_start);
    } else if (encoding == storage::ColumnEncoding::kDecimalDouble &&
               packed_length > 1) {
      fields.push_back(packed_start + 1);
    }
    in.GetBytes(packed_length);
    fields.push_back(here());
    const uint64_t dict = in.GetVarint();
    for (uint64_t i = 0; i < dict && in.ok(); ++i) {
      fields.push_back(here());
      in.GetString();
    }
  }
  std::erase_if(fields, [&](size_t offset) { return offset >= wire.size(); });
  return fields;
}

/// One of three mutations: 1-4 bit flips, a truncation, or a length field
/// rewritten to a lie (off by one, zero, doubled, or huge).
std::string Mutate(const std::string& wire, util::Random* rng) {
  std::string out = wire;
  if (out.empty()) return out;
  switch (rng->NextUint64(3)) {
    case 0: {
      const uint64_t flips = 1 + rng->NextUint64(4);
      for (uint64_t i = 0; i < flips; ++i) {
        const uint64_t bit = rng->NextUint64(out.size() * 8);
        out[bit / 8] = static_cast<char>(out[bit / 8] ^ (1 << (bit % 8)));
      }
      return out;
    }
    case 1:
      return out.substr(0, rng->NextUint64(out.size()));
    default: {
      const std::vector<size_t> fields = LengthFields(out);
      if (fields.empty()) return out;
      const size_t offset = fields[rng->NextUint64(fields.size())];
      size_t length = 0;
      const uint64_t value = VarintAt(out, offset, &length);
      const uint64_t kLies[] = {value + 1,       value - 1,
                                0,               value * 2 + 1,
                                value + 64,      uint64_t{1} << 32,
                                uint64_t{1} << 60, ~uint64_t{0}};
      storage::ByteWriter lie;
      lie.PutVarint(kLies[rng->NextUint64(std::size(kLies))]);
      return out.replace(offset, length, lie.bytes());
    }
  }
}

/// Offsets of the doubles in the encoded `region` (docs/FORMATS.md §13.2):
/// after the shape byte and the one-byte dimension count, and for a
/// polytope after each one-byte count.
std::vector<size_t> DoubleOffsets(const geometry::Region& region) {
  const size_t dims = region.dimensions();
  std::vector<size_t> offsets;
  auto run = [&](size_t start, size_t count) {
    for (size_t k = 0; k < count; ++k) offsets.push_back(start + 8 * k);
    return start + 8 * count;
  };
  if (region.kind() != geometry::ShapeKind::kPolytope) {
    run(2, region.kind() == geometry::ShapeKind::kHypersphere ? dims + 1
                                                               : 2 * dims);
    return offsets;
  }
  const auto& poly = static_cast<const geometry::Polytope&>(region);
  const size_t end = run(3, poly.halfspaces().size() * (dims + 1));
  run(end + 1, poly.vertices().size() * dims);
  return offsets;
}

/// One of four mutations of an encoded region: 1-4 bit flips, a
/// truncation, one double overwritten with a value no template builds (or
/// an ordinary one), or its shape byte or a count rewritten to a lie.
std::string MutateRegion(const geometry::Region& region, util::Random* rng) {
  storage::ByteWriter encoded;
  PutRegion(region, &encoded);
  std::string out = encoded.Release();
  switch (rng->NextUint64(4)) {
    case 0: {
      const uint64_t flips = 1 + rng->NextUint64(4);
      for (uint64_t i = 0; i < flips; ++i) {
        const uint64_t bit = rng->NextUint64(out.size() * 8);
        out[bit / 8] = static_cast<char>(out[bit / 8] ^ (1 << (bit % 8)));
      }
      return out;
    }
    case 1:
      return out.substr(0, rng->NextUint64(out.size()));
    case 2: {
      const double kValues[] = {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                -1.0, -0.0, 1e308, -1e308, 0.25};
      const std::vector<size_t> offsets = DoubleOffsets(region);
      storage::ByteWriter value;
      value.PutDouble(kValues[rng->NextUint64(std::size(kValues))]);
      return out.replace(offsets[rng->NextUint64(offsets.size())], 8,
                         value.bytes());
    }
    default: {
      // The shape byte, the dimension count, or a polytope's first count.
      const size_t offset = rng->NextUint64(
          region.kind() == geometry::ShapeKind::kPolytope ? 3 : 2);
      const uint8_t kLies[] = {0, 1, 2, 3, 16, 17, 127, 255};
      out[offset] = static_cast<char>(kLies[rng->NextUint64(std::size(kLies))]);
      return out;
    }
  }
}

// --- Oracles -----------------------------------------------------------------

/// Every cell of `table` reads back, and the table freezes, parses and
/// thaws to the same XML again.
void ExpectReadable(const ColumnarTable& table) {
  const Table rows = table.ToTable();
  ASSERT_EQ(rows.num_rows(), table.num_rows());
  const std::string xml = sql::TableToXml(table);
  auto again = FrozenSegment::Parse(FrozenSegment::Freeze(table).Serialize());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(sql::TableToXml(again->Thaw()), xml);
}

/// The rule for a region restored from disk (docs/FORMATS.md §13.2),
/// stated apart from the decoder: one FunctionTemplate::BuildRegion could
/// have built.
void ExpectBuildable(const geometry::Region& region) {
  auto finite = [](const geometry::Point& p) {
    return std::all_of(p.begin(), p.end(),
                       [](double v) { return std::isfinite(v); });
  };
  const size_t dims = region.dimensions();
  EXPECT_GE(dims, 1u);
  EXPECT_LE(dims, kMaxRegionDimensions);
  switch (region.kind()) {
    case geometry::ShapeKind::kHypersphere: {
      const auto& sphere = static_cast<const geometry::Hypersphere&>(region);
      EXPECT_TRUE(finite(sphere.center()) && std::isfinite(sphere.radius()));
      EXPECT_GE(sphere.radius(), 0.0);
      break;
    }
    case geometry::ShapeKind::kHyperrectangle: {
      const auto& rect = static_cast<const geometry::Hyperrectangle&>(region);
      EXPECT_TRUE(finite(rect.lo()) && finite(rect.hi()));
      for (size_t i = 0; i < dims; ++i) EXPECT_LE(rect.lo()[i], rect.hi()[i]);
      break;
    }
    case geometry::ShapeKind::kPolytope: {
      const auto& poly = static_cast<const geometry::Polytope&>(region);
      EXPECT_FALSE(poly.halfspaces().empty());
      EXPECT_FALSE(poly.vertices().empty());
      for (const geometry::Halfspace& h : poly.halfspaces()) {
        EXPECT_TRUE(finite(h.normal) && std::isfinite(h.offset));
      }
      for (const geometry::Point& v : poly.vertices()) EXPECT_TRUE(finite(v));
      EXPECT_TRUE(poly.Validate().ok());
      break;
    }
  }
}

/// A proxy environment whose only use is restoring snapshots.
class RestoreHarness {
 public:
  explicit RestoreHarness(std::string path)
      : path_(std::move(path)),
        app_(&db_, &clock_),
        channel_(&app_, net::LinkConfig{0.0, 1e9}, &clock_) {
    fresh_stats_ = MakeProxy()->stats().ToXml();
  }

  /// The encoded region of each source, in order.
  static std::vector<std::string> Regions(const std::vector<Source>& sources) {
    std::vector<std::string> regions;
    for (const Source& source : sources) {
      storage::ByteWriter w;
      PutRegion(*source.region, &w);
      regions.push_back(w.Release());
    }
    return regions;
  }

  /// The ENTRIES payload for `segments` and encoded `regions`, one per
  /// source, in order.
  static std::string Entries(const std::vector<Source>& sources,
                             const std::vector<std::string>& segments,
                             const std::vector<std::string>& regions) {
    storage::ByteWriter w;
    w.PutVarint(segments.size());
    for (size_t i = 0; i < segments.size(); ++i) {
      w.PutString(sources[i].name);
      w.PutString(std::string("p=") + sources[i].name);
      w.PutBytes(regions[i].data(), regions[i].size());
      w.PutU8(0);
      w.PutZigzag(0);
      w.PutVarint(1);
      w.PutString(segments[i]);
    }
    return w.Release();
  }

  /// A STATS payload with two named counters and two records.
  static std::string Stats() {
    storage::ByteWriter w;
    w.PutVarint(2);
    w.PutString("fnproxy_requests_total");
    w.PutVarint(5);
    w.PutString("fnproxy_template_requests_total");
    w.PutVarint(3);
    w.PutVarint(0);  // origin retries
    w.PutVarint(0);  // breaker transitions
    w.PutDouble(1.5);
    w.PutVarint(2);
    for (int i = 0; i < 2; ++i) {
      w.PutU8(static_cast<uint8_t>(geometry::RegionRelation::kOverlap));
      w.PutU8(1);
      w.PutDouble(0.75);
      w.PutVarint(10);
      w.PutVarint(7);
    }
    return w.Release();
  }

  /// Restores the snapshot made of `entries` and `stats`: either every
  /// entry comes back, thaws and has a region BuildRegion could have
  /// built, or nothing is installed at all.
  void ExpectAllOrNothing(const std::string& entries,
                          const std::string& stats) {
    storage::ByteWriter meta;
    meta.PutU32(kSnapshotVersion);
    meta.PutU8(static_cast<uint8_t>(CachingMode::kActiveFull));
    meta.PutZigzag(0);
    ASSERT_TRUE(storage::WriteFileAtomic(
                    path_, storage::BuildSnapshotFile(
                               {{storage::kSectionMeta, meta.Release()},
                                {storage::kSectionEntries, entries},
                                {storage::kSectionStats, stats}}))
                    .ok());
    std::unique_ptr<FunctionProxy> proxy = MakeProxy();
    auto restored = proxy->RestoreSnapshot(path_);
    if (!restored.ok()) {
      EXPECT_EQ(proxy->cache().num_entries(), 0u);
      EXPECT_EQ(proxy->stats().ToXml(), fresh_stats_);
      return;
    }
    EXPECT_EQ(proxy->cache().num_entries(), *restored);
    for (uint64_t id : proxy->cache().AllIds()) {
      auto entry = proxy->cache().Find(id);
      ASSERT_NE(entry, nullptr);
      ASSERT_NE(entry->segment, nullptr);
      ExpectReadable(entry->segment->Thaw());
      ExpectBuildable(*entry->region);
    }
  }

 private:
  std::unique_ptr<FunctionProxy> MakeProxy() {
    ProxyConfig config;
    config.mode = CachingMode::kActiveFull;
    return std::make_unique<FunctionProxy>(config, &templates_, &channel_,
                                           &clock_);
  }

  std::string path_;
  server::Database db_;
  util::SimulatedClock clock_;
  server::OriginWebApp app_;
  net::SimulatedChannel channel_;
  TemplateRegistry templates_;
  std::string fresh_stats_;
};

std::string FreshTempDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/fnproxy_fuzz_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs one segment input through both parsers: Parse and a restore with
/// the other sources' valid segments around it. Returns whether Parse
/// accepted it.
bool FeedSegment(const std::vector<Source>& sources, size_t index,
                 const std::string& wire, RestoreHarness* restore) {
  const auto parsed = FrozenSegment::Parse(wire);
  if (parsed.ok()) {
    const ColumnarTable table = parsed->Thaw();
    EXPECT_EQ(table.num_rows(), parsed->num_rows());
    ExpectReadable(table);
  }
  std::vector<std::string> segments;
  for (const Source& source : sources) {
    segments.push_back(FrozenSegment::Freeze(source.table).Serialize());
  }
  segments[index] = wire;
  restore->ExpectAllOrNothing(
      RestoreHarness::Entries(sources, segments,
                              RestoreHarness::Regions(sources)),
      RestoreHarness::Stats());
  return parsed.ok();
}

/// The committed fixtures: each `.seg` is fed as the second segment of a
/// snapshot (so a restore that installs entries as it parses them would
/// leave the first one behind), each `.stats` as a STATS section.
TEST(StorageFuzzTest, CommittedFixturesAreRejectedOrDecode) {
  const std::vector<Source> sources = Sources();
  const std::string dir = FreshTempDir("fixtures");
  RestoreHarness restore(dir + "/snapshot.bin");
  std::vector<std::string> segments;
  for (const Source& source : sources) {
    segments.push_back(FrozenSegment::Freeze(source.table).Serialize());
  }
  size_t fixtures = 0;
  for (const auto& file : std::filesystem::directory_iterator(
           FNPROXY_FUZZ_FIXTURE_DIR)) {
    SCOPED_TRACE(file.path().filename().string());
    auto bytes = storage::ReadFileToString(file.path().string());
    ASSERT_TRUE(bytes.ok());
    if (file.path().extension() == ".seg") {
      FeedSegment(sources, 1, *bytes, &restore);
    } else if (file.path().extension() == ".stats") {
      restore.ExpectAllOrNothing(
          RestoreHarness::Entries(sources, segments,
                                  RestoreHarness::Regions(sources)),
          *bytes);
    } else {
      continue;
    }
    ++fixtures;
  }
  EXPECT_GT(fixtures, 0u);
}

TEST(StorageFuzzTest, MutatedSegmentsAreRejectedOrDecode) {
  const std::vector<Source> sources = Sources();
  const std::string dir = FreshTempDir("segments");
  RestoreHarness restore(dir + "/snapshot.bin");
  util::Random rng(kSeed);
  int accepted = 0;
  for (size_t index = 0; index < sources.size(); ++index) {
    const std::string wire =
        FrozenSegment::Freeze(sources[index].table).Serialize();
    for (int i = 0; i < kMutationsPerTable; ++i) {
      SCOPED_TRACE(std::string(sources[index].name) + " mutation " +
                   std::to_string(i));
      accepted += FeedSegment(sources, index, Mutate(wire, &rng), &restore);
      if (HasFatalFailure()) return;
    }
  }
  // The budget reaches both outcomes, so the decode oracles run too.
  const int total = kMutationsPerTable * static_cast<int>(sources.size());
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, total);
}

TEST(StorageFuzzTest, MutatedSnapshotSectionsRestoreAllOrNothing) {
  const std::vector<Source> sources = Sources();
  const std::string dir = FreshTempDir("sections");
  RestoreHarness restore(dir + "/snapshot.bin");
  std::vector<std::string> segments;
  for (const Source& source : sources) {
    segments.push_back(FrozenSegment::Freeze(source.table).Serialize());
  }
  const std::string entries = RestoreHarness::Entries(
      sources, segments, RestoreHarness::Regions(sources));
  const std::string stats = RestoreHarness::Stats();
  util::Random rng(kSeed + 1);
  for (int i = 0; i < kMutationsPerTable; ++i) {
    SCOPED_TRACE(std::string("mutation ") + std::to_string(i));
    // Mutate walks a section as if it were a segment, so its length-field
    // lies land on whatever varints that walk finds.
    if (rng.NextUint64(2) == 0) {
      restore.ExpectAllOrNothing(Mutate(entries, &rng), stats);
    } else {
      restore.ExpectAllOrNothing(entries, Mutate(stats, &rng));
    }
    if (HasFatalFailure()) return;
  }
}

TEST(StorageFuzzTest, MutatedRegionsRestoreAllOrNothing) {
  const std::vector<Source> sources = Sources();
  const std::string dir = FreshTempDir("regions");
  RestoreHarness restore(dir + "/snapshot.bin");
  std::vector<std::string> segments;
  for (const Source& source : sources) {
    segments.push_back(FrozenSegment::Freeze(source.table).Serialize());
  }
  const std::vector<std::string> regions = RestoreHarness::Regions(sources);
  util::Random rng(kSeed + 2);
  int accepted = 0;
  for (size_t index = 0; index < sources.size(); ++index) {
    for (int i = 0; i < kMutationsPerTable; ++i) {
      SCOPED_TRACE(std::string(sources[index].name) + " region mutation " +
                   std::to_string(i));
      std::string region = MutateRegion(*sources[index].region, &rng);
      storage::ByteReader in(region);
      const auto decoded = GetRegion(&in);
      if (decoded.ok()) {
        ++accepted;
        ExpectBuildable(**decoded);
      }
      std::vector<std::string> mutated = regions;
      mutated[index] = std::move(region);
      restore.ExpectAllOrNothing(
          RestoreHarness::Entries(sources, segments, mutated),
          RestoreHarness::Stats());
      if (HasFatalFailure()) return;
    }
  }
  // The budget reaches both outcomes: ordinary values and flips in low
  // mantissa bits still decode.
  const int total = kMutationsPerTable * static_cast<int>(sources.size());
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, total);
}

}  // namespace
}  // namespace fnproxy::core
