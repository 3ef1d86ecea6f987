// CacheStore storage-tier tests (docs/STORAGE.md): idle entries freeze under
// the sweep, promotion thaws bit-identical tuples, and the lifecycle
// survives concurrent promotion racing the sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_store.h"
#include "geometry/hypersphere.h"
#include "index/array_index.h"
#include "sql/table_xml.h"

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

TEST(StorageTierTest, SweepFreezesIdleEntriesAndFindDoesNotPromote) {
  constexpr int64_t kFreezeIdle = 10 * kSecond;
  CacheStore store([] { return std::make_unique<index::ArrayRegionIndex>(); },
                   /*num_shards=*/1, /*max_bytes=*/0, ReplacementPolicy::kLru);
  const std::string hot_xml =
      sql::TableToXml(sql::ColumnarTable(MakeResult(50)));

  uint64_t id = store.Insert(MakeEntry(0, 50));
  ASSERT_NE(id, 0u);
  // Young entry: the sweep leaves it hot.
  EXPECT_EQ(store.SweepColdEntries(5 * kSecond, kFreezeIdle), 0u);
  EXPECT_EQ(store.frozen_entries(), 0u);

  EXPECT_EQ(store.SweepColdEntries(20 * kSecond, kFreezeIdle), 1u);
  EXPECT_EQ(store.frozen_entries(), 1u);
  EXPECT_EQ(store.freezes(), 1u);
  EXPECT_GT(store.frozen_raw_bytes(), store.frozen_encoded_bytes());

  // Find hands back the cold snapshot without a thaw: no result table, the
  // segment attached and charged at what it holds.
  std::shared_ptr<const CacheEntry> cold = store.Find(id);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->tier, EntryTier::kFrozen);
  EXPECT_EQ(cold->result.num_rows(), 0u);
  EXPECT_EQ(cold->result.num_columns(), 0u);
  ASSERT_NE(cold->segment, nullptr);
  EXPECT_EQ(cold->segment->num_rows(), 50u);
  EXPECT_EQ(cold->bytes, cold->segment->ByteSize() + 256);
  EXPECT_EQ(store.thaws(), 0u);

  // FindHot promotes and restores the identical table.
  std::shared_ptr<const CacheEntry> hot = store.FindHot(id);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->tier, EntryTier::kHot);
  EXPECT_EQ(sql::TableToXml(hot->result), hot_xml);
  EXPECT_EQ(store.thaws(), 1u);
  EXPECT_EQ(store.frozen_entries(), 0u);
}

// The TSan soak shape: readers thawing entries while a maintenance thread
// freezes them again, over a store small enough that every entry keeps
// changing tier. Every lookup must return the full table.
TEST(StorageTierTest, ConcurrentPromotionRacesSweep) {
  auto store = std::make_unique<CacheStore>(
      [] { return std::make_unique<index::ArrayRegionIndex>(); },
      /*num_shards=*/4, /*max_bytes=*/0, ReplacementPolicy::kLru);

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
      store->SweepColdEntries(now, /*freeze_idle_micros=*/1);  // All idle.
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
  EXPECT_EQ(store->num_entries(), kEntries);
  for (uint64_t id : ids) {
    std::shared_ptr<const CacheEntry> hot = store->FindHot(id);
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(sql::TableToXml(hot->result), want_xml);
  }
}

}  // namespace
}  // namespace fnproxy::core
