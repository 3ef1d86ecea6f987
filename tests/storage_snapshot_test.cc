// Warm-restart snapshot tests (docs/FORMATS.md §13, docs/STORAGE.md):
// the checksummed container detects a corrupted byte in any section, and a
// proxy restored from a snapshot is observationally identical to the proxy
// that wrote it — /proxy/stats renders byte-identically, and subsequent
// queries serve from the restored cache with responses matching a
// never-restarted oracle, without an origin round trip. A snapshot that
// fails to parse anywhere installs nothing.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/cache_snapshot.h"
#include "core/proxy.h"
#include "geometry/hyperrectangle.h"
#include "net/network.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "snapshot_test_util.h"
#include "sql/table_xml.h"
#include "storage/wire.h"
#include "workload/experiment.h"

namespace fnproxy::core {
namespace {

using net::HttpRequest;
using net::HttpResponse;

// --- Container-level properties --------------------------------------------

TEST(SnapshotContainerTest, RoundTripsSections) {
  std::string file = storage::BuildSnapshotFile(
      {{storage::kSectionMeta, "meta-bytes"},
       {storage::kSectionEntries, std::string("entry\0payload", 13)},
       {storage::kSectionStats, ""}});
  auto sections = storage::ParseSnapshotFile(file);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  ASSERT_EQ(sections->size(), 3u);
  EXPECT_EQ((*sections)[0].id, storage::kSectionMeta);
  EXPECT_EQ((*sections)[0].payload, "meta-bytes");
  EXPECT_EQ((*sections)[1].payload, std::string("entry\0payload", 13));
  EXPECT_EQ((*sections)[2].payload, "");
}

TEST(SnapshotContainerTest, DetectsOneCorruptByteInEverySection) {
  const std::string file = storage::BuildSnapshotFile(
      {{storage::kSectionMeta, "0123456789"},
       {storage::kSectionEntries, std::string(300, 'e')},
       {storage::kSectionStats, "stats-payload"}});
  // Flip one byte inside each section's payload region; the per-section
  // checksum must catch each one.
  for (const std::string& needle :
       {std::string("0123456789"), std::string(300, 'e'),
        std::string("stats-payload")}) {
    std::string corrupt = file;
    size_t pos = corrupt.find(needle);
    ASSERT_NE(pos, std::string::npos);
    corrupt[pos + needle.size() / 2] ^= 0x40;
    auto sections = storage::ParseSnapshotFile(corrupt);
    EXPECT_FALSE(sections.ok());
  }
}

TEST(SnapshotContainerTest, RejectsTruncationAndBadMagic) {
  const std::string file = storage::BuildSnapshotFile(
      {{storage::kSectionEntries, std::string(100, 'x')}});
  for (size_t keep : {size_t{0}, size_t{4}, size_t{12}, file.size() - 1}) {
    EXPECT_FALSE(storage::ParseSnapshotFile(file.substr(0, keep)).ok())
        << "kept " << keep << " bytes";
  }
  std::string bad_magic = file;
  bad_magic[0] = 'X';
  EXPECT_FALSE(storage::ParseSnapshotFile(bad_magic).ok());
}

TEST(SnapshotContainerTest, SkipsUnknownSections) {
  // Forward compatibility: a newer writer may add sections; an older reader
  // must still see the ones it knows.
  std::string file = storage::BuildSnapshotFile(
      {{storage::kSectionMeta, "m"}, {uint32_t{999}, "future bytes"}});
  auto sections = storage::ParseSnapshotFile(file);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ((*sections)[1].id, 999u);
}

// --- Proxy warm restart -----------------------------------------------------

HttpRequest RadialRequest(double ra, double dec, double radius) {
  HttpRequest request;
  request.path = "/radial";
  request.query_params["ra"] = std::to_string(ra);
  request.query_params["dec"] = std::to_string(dec);
  request.query_params["radius"] = std::to_string(radius);
  return request;
}

/// Origin environment shared by every proxy in a test; each proxy gets its
/// own simulated channel so origin-traffic counters are per proxy.
class SnapshotProxyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 8000;
    config.num_clusters = 5;
    config.seed = 42;
    config.ra_min = 175.0;
    config.ra_max = 205.0;
    config.dec_min = 25.0;
    config.dec_max = 50.0;
    db_ = new server::Database();
    db_->AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(config));
    grid_ = new server::SkyGrid(db_->FindTable("PhotoPrimary"));
    db_->RegisterTableFunction(server::MakeGetNearbyObjEq(grid_));
    db_->scalar_functions()->Register(
        "fPhotoFlags",
        [](const std::vector<sql::Value>& args)
            -> util::StatusOr<sql::Value> {
          FNPROXY_ASSIGN_OR_RETURN(
              int64_t bit, catalog::PhotoFlagValue(args.at(0).AsString()));
          return sql::Value::Int(bit);
        });
    templates_ = new TemplateRegistry();
    ASSERT_TRUE(templates_
                    ->RegisterFunctionTemplateXml(
                        workload::kNearbyObjEqTemplateXml)
                    .ok());
    auto qt = QueryTemplate::Create("radial", "/radial",
                                    workload::kRadialTemplateSql);
    ASSERT_TRUE(qt.ok());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*qt)).ok());
  }
  static void TearDownTestSuite() {
    delete templates_;
    delete grid_;
    delete db_;
    templates_ = nullptr;
    grid_ = nullptr;
    db_ = nullptr;
  }

  void SetUp() override {
    clock_ = std::make_unique<util::SimulatedClock>();
    app_ = std::make_unique<server::OriginWebApp>(db_, clock_.get());
    ASSERT_TRUE(
        app_->RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    snapshot_path_ = ::testing::TempDir() + "/fnproxy_snapshot_test_" +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".bin";
    std::remove(snapshot_path_.c_str());
  }
  void TearDown() override { std::remove(snapshot_path_.c_str()); }

  /// A proxy over its own channel; storage enabled, deterministic inline
  /// maintenance, snapshot at `snapshot_path_`.
  struct Node {
    std::unique_ptr<net::SimulatedChannel> channel;
    std::unique_ptr<FunctionProxy> proxy;
  };

  Node MakeNode(bool restore, bool enable_storage = true) {
    Node node;
    node.channel = std::make_unique<net::SimulatedChannel>(
        app_.get(), net::LinkConfig{0.0, 1e9}, clock_.get());
    ProxyConfig config;
    config.mode = CachingMode::kActiveFull;
    config.storage.enable = enable_storage;
    config.storage.background_maintenance = false;
    config.storage.snapshot_path = snapshot_path_;
    config.storage.restore_on_start = restore;
    node.proxy = std::make_unique<FunctionProxy>(config, templates_,
                                                 node.channel.get(),
                                                 clock_.get());
    return node;
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static TemplateRegistry* templates_;

  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<server::OriginWebApp> app_;
  std::string snapshot_path_;
};

server::Database* SnapshotProxyTest::db_ = nullptr;
server::SkyGrid* SnapshotProxyTest::grid_ = nullptr;
TemplateRegistry* SnapshotProxyTest::templates_ = nullptr;

std::vector<HttpRequest> WarmupSequence() {
  return {
      RadialRequest(180.0, 30.0, 20.0),  // Miss (fills cache).
      RadialRequest(180.0, 30.0, 20.0),  // Exact repeat.
      RadialRequest(180.05, 30.0, 8.0),  // Contained.
      RadialRequest(195.0, 40.0, 15.0),  // Second region.
      RadialRequest(195.0, 40.0, 25.0),  // Contains (region containment).
  };
}

TEST_F(SnapshotProxyTest, RestoredProxyRendersIdenticalStats) {
  Node writer = MakeNode(/*restore=*/false);
  for (const HttpRequest& request : WarmupSequence()) {
    HttpResponse response = writer.proxy->Handle(request);
    ASSERT_TRUE(response.ok()) << response.body;
  }
  const std::string want_stats = writer.proxy->stats().ToXml();
  ASSERT_TRUE(writer.proxy->WriteSnapshot(snapshot_path_).ok());

  Node restored = MakeNode(/*restore=*/true);
  // The restored process continues the writer's statistics series: the
  // /proxy/stats rendering must be byte-identical before any new traffic.
  EXPECT_EQ(restored.proxy->stats().ToXml(), want_stats);
  // The eviction cost fit is not persisted: the writer fitted it from its
  // own origin fetches; the restored proxy prices every entry at 1 until
  // its first fetch.
  EXPECT_TRUE(writer.proxy->cache().refetch_cost().Current().fitted);
  RefetchCost restored_cost = restored.proxy->cache().refetch_cost().Current();
  EXPECT_FALSE(restored_cost.fitted);
  EXPECT_EQ(restored_cost.Of(100), 1.0);
}

TEST_F(SnapshotProxyTest, SnapshotKeepsLiveAccessBookkeeping) {
  Node writer = MakeNode(/*restore=*/false);
  for (const HttpRequest& request : WarmupSequence()) {
    ASSERT_TRUE(writer.proxy->Handle(request).ok());
  }
  ASSERT_GT(writer.proxy->stats().exact_hits +
                writer.proxy->stats().containment_hits,
            0u);
  ASSERT_TRUE(writer.proxy->WriteSnapshot(snapshot_path_).ok());
  const std::vector<LiveEntry> live = writer.proxy->cache().LiveEntries();
  auto file = storage::ReadFileToString(snapshot_path_);
  ASSERT_TRUE(file.ok());
  auto snapshot = ParseSnapshot(*file);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // The file holds the entries in the store's order, each with the
  // bookkeeping its hits left, not the values it was admitted with.
  ASSERT_EQ(snapshot->entries.size(), live.size());
  bool hit_since_admission = false;
  for (size_t i = 0; i < live.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(snapshot->entries[i].access_count, live[i].access_count);
    EXPECT_EQ(snapshot->entries[i].last_access_micros,
              live[i].last_access_micros);
    hit_since_admission |= live[i].access_count > live[i].entry->access_count;
  }
  EXPECT_TRUE(hit_since_admission);
}

TEST_F(SnapshotProxyTest, RestoredProxyServesWarmWithoutOrigin) {
  std::vector<HttpRequest> warmup = WarmupSequence();
  std::vector<HttpRequest> probes = {
      RadialRequest(180.0, 30.0, 20.0),   // Exact vs restored entry.
      RadialRequest(180.02, 30.0, 6.0),   // Contained in restored entry.
      RadialRequest(195.0, 40.0, 25.0),   // Exact vs second entry.
  };

  // Oracle: one proxy sees warmup + probes with no restart.
  Node oracle = MakeNode(/*restore=*/false, /*enable_storage=*/false);
  std::vector<std::string> want;
  for (const HttpRequest& request : warmup) {
    ASSERT_TRUE(oracle.proxy->Handle(request).ok());
  }
  for (const HttpRequest& request : probes) {
    HttpResponse response = oracle.proxy->Handle(request);
    ASSERT_TRUE(response.ok());
    want.push_back(response.body);
  }

  // Writer runs the warmup and snapshots.
  Node writer = MakeNode(/*restore=*/false);
  for (const HttpRequest& request : warmup) {
    ASSERT_TRUE(writer.proxy->Handle(request).ok());
  }
  ASSERT_TRUE(writer.proxy->WriteSnapshot(snapshot_path_).ok());

  // The restored proxy must answer every probe byte-identically to the
  // oracle without contacting the origin.
  Node restored = MakeNode(/*restore=*/true);
  const uint64_t origin_before =
      restored.proxy->stats().origin_form_requests +
      restored.proxy->stats().origin_sql_requests;
  for (size_t i = 0; i < probes.size(); ++i) {
    HttpResponse response = restored.proxy->Handle(probes[i]);
    ASSERT_TRUE(response.ok()) << response.body;
    EXPECT_EQ(response.body, want[i]) << "probe " << i;
  }
  ProxyStats after = restored.proxy->stats();
  EXPECT_EQ(after.origin_form_requests + after.origin_sql_requests,
            origin_before)
      << "restored proxy contacted the origin";
}

TEST_F(SnapshotProxyTest, CorruptSnapshotIsRejectedAndProxyStartsCold) {
  Node writer = MakeNode(/*restore=*/false);
  for (const HttpRequest& request : WarmupSequence()) {
    ASSERT_TRUE(writer.proxy->Handle(request).ok());
  }
  ASSERT_TRUE(writer.proxy->WriteSnapshot(snapshot_path_).ok());

  // Corrupt one byte in the middle of the file (inside a section payload).
  {
    std::fstream file(snapshot_path_,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    ASSERT_GT(size, 64);
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte ^= 0x10;
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  // Startup restore fails closed: the proxy logs, starts cold, and still
  // serves correctly from the origin.
  Node restored = MakeNode(/*restore=*/true);
  EXPECT_EQ(restored.proxy->stats().requests, 0u);
  HttpResponse response = restored.proxy->Handle(RadialRequest(180, 30, 20));
  EXPECT_TRUE(response.ok()) << response.body;
  ProxyStats stats = restored.proxy->stats();
  EXPECT_EQ(stats.misses, 1u);
}

/// Rewrites the snapshot at `path` with `edit` applied to the payload of
/// section `id`; every checksum stays valid.
void RewriteSection(const std::string& path, uint32_t id,
                    const std::function<void(std::string*)>& edit) {
  auto contents = storage::ReadFileToString(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  auto sections = storage::ParseSnapshotFile(*contents);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  std::vector<std::pair<uint32_t, std::string>> rebuilt;
  for (const storage::Section& section : *sections) {
    rebuilt.emplace_back(section.id, std::string(section.payload));
    if (section.id == id) edit(&rebuilt.back().second);
  }
  ASSERT_TRUE(
      storage::WriteFileAtomic(path, storage::BuildSnapshotFile(rebuilt)).ok());
}

/// Offset, within the ENTRIES payload of the snapshot `file`, of the
/// encoding byte of the first column of entry `index`'s segment
/// (docs/FORMATS.md §13.3).
size_t FirstEncodingByte(std::string_view file, std::string_view entries,
                         size_t index) {
  auto snapshot = ParseSnapshot(file);
  EXPECT_TRUE(snapshot.ok());
  const std::string& segment = snapshot->entries.at(index).segment->Serialize();
  const size_t start = entries.find(segment);
  EXPECT_NE(start, std::string_view::npos);
  storage::ByteReader seg(segment);
  seg.GetVarint();
  const uint64_t columns = seg.GetVarint();
  for (uint64_t c = 0; c < columns; ++c) {
    seg.GetString();
    seg.GetU8();
  }
  EXPECT_TRUE(seg.ok());
  return start + segment.size() - seg.remaining();
}

/// Offset, within the ENTRIES payload of the snapshot `file`, of the shape
/// byte of entry `index`'s region.
size_t ShapeByte(std::string_view file, std::string_view entries,
                 size_t index) {
  auto snapshot = ParseSnapshot(file);
  EXPECT_TRUE(snapshot.ok());
  storage::ByteWriter region;
  PutRegion(*snapshot->entries.at(index).region, &region);
  const size_t start = entries.find(region.bytes());
  EXPECT_NE(start, std::string_view::npos);
  return start;
}

/// Rewrites the snapshot at `path` with `edit` applied to its parsed
/// contents.
void RewriteSnapshot(const std::string& path,
                     const std::function<void(Snapshot*)>& edit) {
  auto contents = storage::ReadFileToString(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  auto snapshot = ParseSnapshot(*contents);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  edit(&*snapshot);
  std::vector<LiveEntry> entries;
  for (CacheEntry& entry : snapshot->entries) {
    const int64_t last_access_micros = entry.last_access_micros;
    const uint64_t access_count = entry.access_count;
    entries.push_back({std::make_shared<CacheEntry>(std::move(entry)),
                       last_access_micros, access_count});
  }
  ASSERT_TRUE(storage::WriteFileAtomic(
                  path, SerializeSnapshot(snapshot->mode,
                                          snapshot->written_micros, entries,
                                          snapshot->stats))
                  .ok());
}

TEST_F(SnapshotProxyTest, FailedRestoreInstallsNothing) {
  Node writer = MakeNode(/*restore=*/false);
  for (const HttpRequest& request : WarmupSequence()) {
    ASSERT_TRUE(writer.proxy->Handle(request).ok());
  }
  ASSERT_GE(writer.proxy->cache().num_entries(), 2u);
  ASSERT_TRUE(writer.proxy->WriteSnapshot(snapshot_path_).ok());
  auto pristine = storage::ReadFileToString(snapshot_path_);
  ASSERT_TRUE(pristine.ok());

  // Checksum-valid snapshots that fail past their first parsed entry, or
  // in META before any, each with the error a restore must give: an
  // unknown encoding id or region shape in the second entry, a second
  // entry whose region is [-inf, inf]^2, a query record of relation 9, a
  // STATS section cut short after the entries, and META versions 2 and 7.
  const std::pair<const char*, std::function<void()>> kDamage[] = {
      {"entry 1: segment: bad payload",
       [&] {
         RewriteSection(snapshot_path_, storage::kSectionEntries,
                        [&](std::string* entries) {
                          (*entries)[FirstEncodingByte(*pristine, *entries,
                                                       1)] = 9;
                        });
       }},
      {"entry 1: unknown region shape 9",
       [&] {
         RewriteSection(snapshot_path_, storage::kSectionEntries,
                        [&](std::string* entries) {
                          (*entries)[ShapeByte(*pristine, *entries, 1)] = 9;
                        });
       }},
      {"entry 1: region value is not finite",
       [&] {
         RewriteSnapshot(snapshot_path_, [](Snapshot* snapshot) {
           const double inf = std::numeric_limits<double>::infinity();
           snapshot->entries.at(1).region =
               std::make_unique<geometry::Hyperrectangle>(
                   geometry::Point{-inf, -inf}, geometry::Point{inf, inf});
         });
       }},
      {"bad relation 9",
       [&] {
         RewriteSnapshot(snapshot_path_, [](Snapshot* snapshot) {
           snapshot->stats.records.at(1).status =
               static_cast<geometry::RegionRelation>(9);
         });
       }},
      {"truncated snapshot STATS section",
       [&] {
         RewriteSection(snapshot_path_, storage::kSectionStats,
                        [](std::string* stats) {
                          stats->resize(stats->size() - 3);
                        });
       }},
      {"unsupported snapshot version 2",
       [&] {
         RewriteSection(snapshot_path_, storage::kSectionMeta,
                        [](std::string* meta) { (*meta)[0] = 2; });
       }},
      {"unsupported snapshot version 7",
       [&] {
         RewriteSection(snapshot_path_, storage::kSectionMeta,
                        [](std::string* meta) { (*meta)[0] = 7; });
       }},
  };
  for (const auto& [error, damage] : kDamage) {
    SCOPED_TRACE(error);
    ASSERT_TRUE(storage::WriteFileAtomic(snapshot_path_, *pristine).ok());
    damage();
    {
      // Storage off, so its shutdown writes no snapshot over the damage.
      Node probe = MakeNode(/*restore=*/false, /*enable_storage=*/false);
      auto restored = probe.proxy->RestoreSnapshot(snapshot_path_);
      ASSERT_FALSE(restored.ok());
      EXPECT_NE(restored.status().message().find(error), std::string::npos)
          << restored.status().ToString();
    }
    Node restored = MakeNode(/*restore=*/true);
    Node fresh = MakeNode(/*restore=*/false);
    EXPECT_EQ(restored.proxy->cache().num_entries(), 0u);
    EXPECT_EQ(restored.proxy->stats().ToXml(), fresh.proxy->stats().ToXml());
    EXPECT_EQ(SnapshotErrors(restored.proxy.get()), 1);
    EXPECT_EQ(
        MetricValue(restored.proxy.get(),
                    "fnproxy_storage_restored_entries_total"),
        0);
  }
}

TEST_F(SnapshotProxyTest, CountersRestoreByName) {
  Node writer = MakeNode(/*restore=*/false);
  for (const HttpRequest& request : WarmupSequence()) {
    ASSERT_TRUE(writer.proxy->Handle(request).ok());
  }
  const std::string want_stats = writer.proxy->stats().ToXml();
  ASSERT_TRUE(writer.proxy->WriteSnapshot(snapshot_path_).ok());
  // Every counter is named by its /metrics series.
  auto contents = storage::ReadFileToString(snapshot_path_);
  ASSERT_TRUE(contents.ok());
  auto snapshot = ParseSnapshot(*contents);
  ASSERT_TRUE(snapshot.ok());
  const auto& counters = snapshot->stats.counters;
  EXPECT_EQ(counters.size(), writer.proxy->metrics().CounterSeries().size());
  EXPECT_EQ(counters.at("fnproxy_requests_total"), 5u);
  EXPECT_EQ(counters.at("fnproxy_cache_outcomes_total{outcome=\"exact_hit\"}"),
            writer.proxy->stats().exact_hits);

  // A counter this build does not register is ignored, and one it
  // registers but the file lacks starts at 0.
  RewriteSnapshot(snapshot_path_, [](Snapshot* edited) {
    edited->stats.counters["fnproxy_retired_total"] = 7;
    edited->stats.counters.erase("fnproxy_shed_total{reason=\"overload\"}");
  });
  Node restored = MakeNode(/*restore=*/true);
  EXPECT_EQ(restored.proxy->stats().ToXml(), want_stats);
}

TEST_F(SnapshotProxyTest, DestructorWritesCleanShutdownSnapshot) {
  {
    Node writer = MakeNode(/*restore=*/false);
    for (const HttpRequest& request : WarmupSequence()) {
      ASSERT_TRUE(writer.proxy->Handle(request).ok());
    }
    // No explicit WriteSnapshot: the proxy's destructor writes it.
  }
  auto contents = storage::ReadFileToString(snapshot_path_);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  auto sections = storage::ParseSnapshotFile(*contents);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  EXPECT_EQ(sections->size(), 3u);

  Node restored = MakeNode(/*restore=*/true);
  EXPECT_GT(restored.proxy->stats().requests, 0u);
}

}  // namespace
}  // namespace fnproxy::core
