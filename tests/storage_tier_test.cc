// CacheStore storage-tier tests (docs/STORAGE.md): idle entries demote hot
// -> frozen -> spilled under the sweep, promotion restores bit-identical
// tuples, the spill budget is honored, a lost or corrupt spill file degrades
// to a counted miss (never wrong data), and the whole lifecycle survives
// concurrent promotion racing the sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_store.h"
#include "geometry/hypersphere.h"
#include "index/array_index.h"
#include "sql/table_xml.h"
#include "storage/wire.h"
#include "storage_test_util.h"

namespace fnproxy::core {
namespace {

using geometry::Hypersphere;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

constexpr int64_t kSecond = 1'000'000;

Table MakeResult(size_t rows) {
  Table table(Schema({{"objID", ValueType::kInt},
                      {"ra", ValueType::kDouble},
                      {"class", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    table.AddRow({Value::Int(static_cast<int64_t>(1000 + i)),
                  Value::Double(static_cast<double>(i) * 0.25),
                  Value::String(i % 3 == 0 ? "STAR" : "GALAXY")});
  }
  return table;
}

CacheEntry MakeEntry(double center, size_t rows) {
  CacheEntry entry;
  entry.template_id = "radial";
  entry.region =
      std::make_unique<Hypersphere>(geometry::Point{center, 0.0}, 1.0);
  entry.result = MakeResult(rows);
  return entry;
}

std::unique_ptr<CacheStore> MakeStore(TierConfig config) {
  auto store = std::make_unique<CacheStore>(
      [] { return std::make_unique<index::ArrayRegionIndex>(); },
      /*num_shards=*/1, /*max_bytes=*/0, ReplacementPolicy::kLru);
  store->set_tier_config(std::move(config));
  return store;
}

std::string SpillDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/fnproxy_tier_" + name;
  std::remove(dir.c_str());
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(StorageTierTest, SweepFreezesIdleEntriesAndFindDoesNotPromote) {
  TierConfig config;
  config.freeze_idle_micros = 10 * kSecond;
  auto store = MakeStore(config);
  const std::string hot_xml =
      sql::TableToXml(sql::ColumnarTable(MakeResult(50)));

  uint64_t id = store->Insert(MakeEntry(0, 50));
  ASSERT_NE(id, 0u);
  // Young entry: the sweep leaves it hot.
  EXPECT_EQ(store->SweepColdEntries(5 * kSecond).frozen, 0u);
  EXPECT_EQ(store->frozen_entries(), 0u);

  TierSweepResult swept = store->SweepColdEntries(20 * kSecond);
  EXPECT_EQ(swept.frozen, 1u);
  EXPECT_EQ(store->frozen_entries(), 1u);
  EXPECT_EQ(store->freezes(), 1u);
  EXPECT_GT(store->frozen_raw_bytes(), store->frozen_encoded_bytes());

  // Find hands back the cold snapshot without a thaw: no result table, the
  // segment attached and charged at what it holds.
  std::shared_ptr<const CacheEntry> cold = store->Find(id);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->tier, EntryTier::kFrozen);
  EXPECT_EQ(cold->result.num_rows(), 0u);
  EXPECT_EQ(cold->result.num_columns(), 0u);
  ASSERT_NE(cold->segment, nullptr);
  EXPECT_EQ(cold->segment->num_rows(), 50u);
  EXPECT_EQ(cold->bytes, cold->segment->ByteSize() + 256);
  EXPECT_EQ(store->thaws(), 0u);

  // FindHot promotes and restores the identical table.
  std::shared_ptr<const CacheEntry> hot = store->FindHot(id);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->tier, EntryTier::kHot);
  EXPECT_EQ(sql::TableToXml(hot->result), hot_xml);
  EXPECT_EQ(store->thaws(), 1u);
  EXPECT_EQ(store->frozen_entries(), 0u);
}

TEST(StorageTierTest, SpillAndFaultBack) {
  const std::string dir = SpillDir("spill");
  TierConfig config;
  config.freeze_idle_micros = 10 * kSecond;
  config.spill_idle_micros = 30 * kSecond;
  config.spill_dir = dir;
  auto store = MakeStore(config);
  const std::string hot_xml =
      sql::TableToXml(sql::ColumnarTable(MakeResult(80)));

  uint64_t id = store->Insert(MakeEntry(0, 80));
  ASSERT_NE(id, 0u);
  EXPECT_EQ(store->SweepColdEntries(15 * kSecond).frozen, 1u);
  TierSweepResult swept = store->SweepColdEntries(60 * kSecond);
  EXPECT_EQ(swept.spilled, 1u);
  EXPECT_EQ(store->spilled_entries(), 1u);
  EXPECT_GT(store->spill_bytes_used(), 0u);

  std::shared_ptr<const CacheEntry> cold = store->Find(id);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->tier, EntryTier::kSpilled);
  ASSERT_FALSE(cold->spill_file.empty());
  EXPECT_TRUE(std::filesystem::exists(cold->spill_file));

  std::shared_ptr<const CacheEntry> hot = store->FindHot(id);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->tier, EntryTier::kHot);
  EXPECT_EQ(sql::TableToXml(hot->result), hot_xml);
  EXPECT_EQ(store->spill_faults(), 1u);
  EXPECT_EQ(store->spilled_entries(), 0u);
  EXPECT_EQ(store->spill_bytes_used(), 0u);
  // The fault-back reclaimed the file.
  EXPECT_FALSE(std::filesystem::exists(cold->spill_file));
}

TEST(StorageTierTest, SpillBudgetStopsSpilling) {
  const std::string dir = SpillDir("budget");
  TierConfig config;
  config.freeze_idle_micros = 10 * kSecond;
  config.spill_idle_micros = 30 * kSecond;
  config.spill_dir = dir;
  config.spill_max_bytes = 1;  // Nothing fits.
  auto store = MakeStore(config);

  uint64_t id = store->Insert(MakeEntry(0, 80));
  ASSERT_NE(id, 0u);
  EXPECT_EQ(store->SweepColdEntries(15 * kSecond).frozen, 1u);
  EXPECT_EQ(store->SweepColdEntries(60 * kSecond).spilled, 0u);
  EXPECT_EQ(store->spilled_entries(), 0u);
  std::shared_ptr<const CacheEntry> cold = store->Find(id);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->tier, EntryTier::kFrozen);
}

TEST(StorageTierTest, CorruptSpillFileBecomesCountedMiss) {
  const std::string dir = SpillDir("corrupt");
  TierConfig config;
  config.freeze_idle_micros = 10 * kSecond;
  config.spill_idle_micros = 30 * kSecond;
  config.spill_dir = dir;
  auto store = MakeStore(config);

  uint64_t id = store->Insert(MakeEntry(0, 40));
  ASSERT_NE(id, 0u);
  store->SweepColdEntries(15 * kSecond);
  ASSERT_EQ(store->SweepColdEntries(60 * kSecond).spilled, 1u);
  std::shared_ptr<const CacheEntry> cold = store->Find(id);
  ASSERT_NE(cold, nullptr);
  {
    std::ofstream out(cold->spill_file,
                      std::ios::binary | std::ios::trunc);
    out << "garbage, not a snapshot container";
  }

  // Promotion must fail safe: null result, entry dropped, error counted —
  // the caller treats it as a miss and refetches from the origin.
  EXPECT_EQ(store->FindHot(id), nullptr);
  EXPECT_EQ(store->spill_io_errors(), 1u);
  EXPECT_EQ(store->Find(id), nullptr);
  EXPECT_EQ(store->num_entries(), 0u);
}

TEST(StorageTierTest, UndecodableSegmentInValidSpillFileBecomesCountedMiss) {
  const std::string dir = SpillDir("undecodable");
  TierConfig config;
  config.freeze_idle_micros = 10 * kSecond;
  config.spill_idle_micros = 30 * kSecond;
  config.spill_dir = dir;
  for (const auto& [label, segment] : storage::UndecodableSegments()) {
    SCOPED_TRACE(label);
    auto store = MakeStore(config);
    uint64_t id = store->Insert(MakeEntry(0, 40));
    ASSERT_NE(id, 0u);
    store->SweepColdEntries(15 * kSecond);
    ASSERT_EQ(store->SweepColdEntries(60 * kSecond).spilled, 1u);
    std::shared_ptr<const CacheEntry> cold = store->Find(id);
    ASSERT_NE(cold, nullptr);
    // A checksum-valid container around a segment no decoder accepts.
    ASSERT_TRUE(storage::WriteFileAtomic(
                    cold->spill_file,
                    storage::BuildSnapshotFile(
                        {{storage::kSectionEntries, segment}}))
                    .ok());

    EXPECT_EQ(store->FindHot(id), nullptr);
    EXPECT_EQ(store->spill_io_errors(), 1u);
    EXPECT_EQ(store->num_entries(), 0u);
  }
}

TEST(StorageTierTest, LostSpillFileBecomesCountedMiss) {
  const std::string dir = SpillDir("lost");
  TierConfig config;
  config.freeze_idle_micros = 10 * kSecond;
  config.spill_idle_micros = 30 * kSecond;
  config.spill_dir = dir;
  auto store = MakeStore(config);

  uint64_t id = store->Insert(MakeEntry(0, 40));
  ASSERT_NE(id, 0u);
  store->SweepColdEntries(15 * kSecond);
  ASSERT_EQ(store->SweepColdEntries(60 * kSecond).spilled, 1u);
  std::shared_ptr<const CacheEntry> cold = store->Find(id);
  ASSERT_NE(cold, nullptr);
  ASSERT_TRUE(std::filesystem::remove(cold->spill_file));

  EXPECT_EQ(store->FindHot(id), nullptr);
  EXPECT_EQ(store->spill_io_errors(), 1u);
  EXPECT_EQ(store->num_entries(), 0u);
}

// The TSan soak shape: readers promoting entries while a maintenance thread
// sweeps them cold again, over a store small enough that every entry keeps
// changing tier. Every successful lookup must return the full table.
TEST(StorageTierTest, ConcurrentPromotionRacesSweep) {
  const std::string dir = SpillDir("race");
  TierConfig config;
  config.freeze_idle_micros = 1;  // Everything is always idle.
  config.spill_idle_micros = 2;
  config.spill_dir = dir;
  auto store = std::make_unique<CacheStore>(
      [] { return std::make_unique<index::ArrayRegionIndex>(); },
      /*num_shards=*/4, /*max_bytes=*/0, ReplacementPolicy::kLru);
  store->set_tier_config(config);

  constexpr size_t kEntries = 16;
  constexpr size_t kRows = 30;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kEntries; ++i) {
    size_t comparisons = 0;
    uint64_t id =
        store->Insert(MakeEntry(static_cast<double>(i) * 10, kRows),
                      &comparisons);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  const std::string want_xml =
      sql::TableToXml(sql::ColumnarTable(MakeResult(kRows)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> promotions{0};
  std::thread sweeper([&] {
    int64_t now = 10;
    while (!stop.load(std::memory_order_relaxed)) {
      store->SweepColdEntries(now);
      now += 10;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 200; ++iter) {
        uint64_t id = ids[(iter * 7 + t) % ids.size()];
        std::shared_ptr<const CacheEntry> hot = store->FindHot(id);
        ASSERT_NE(hot, nullptr);
        ASSERT_EQ(hot->tier, EntryTier::kHot);
        ASSERT_EQ(hot->result.num_rows(), kRows);
        ASSERT_EQ(sql::TableToXml(hot->result), want_xml);
        promotions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();

  EXPECT_EQ(promotions.load(), 4u * 200u);
  EXPECT_EQ(store->spill_io_errors(), 0u);
  EXPECT_EQ(store->num_entries(), kEntries);
  for (uint64_t id : ids) {
    std::shared_ptr<const CacheEntry> hot = store->FindHot(id);
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(sql::TableToXml(hot->result), want_xml);
  }
}

}  // namespace
}  // namespace fnproxy::core
