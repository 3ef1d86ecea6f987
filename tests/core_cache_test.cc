#include <gtest/gtest.h>

#include "core/cache_store.h"
#include "geometry/hypersphere.h"
#include "index/array_index.h"
#include "index/rtree.h"

namespace fnproxy::core {
namespace {

using geometry::Hypersphere;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

Table MakeResult(size_t rows) {
  Table table(Schema({{"objID", ValueType::kInt}, {"x", ValueType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    table.AddRow({Value::Int(static_cast<int64_t>(i)),
                  Value::Double(static_cast<double>(i) * 0.5)});
  }
  return table;
}

CacheEntry MakeEntry(double center, double radius, size_t rows,
                     const std::string& template_id = "radial") {
  CacheEntry entry;
  entry.template_id = template_id;
  entry.nonspatial_fingerprint = "";
  entry.region =
      std::make_unique<Hypersphere>(geometry::Point{center, 0.0}, radius);
  entry.result = MakeResult(rows);
  entry.access_count = 1;  // As the proxy admits a fetched result.
  return entry;
}

std::unique_ptr<CacheStore> MakeStore(size_t max_bytes,
                                      ReplacementPolicy policy =
                                          ReplacementPolicy::kLru) {
  return std::make_unique<CacheStore>(
      [] { return std::make_unique<index::ArrayRegionIndex>(); },
      /*num_shards=*/1, max_bytes, policy);
}

/// Accounted bytes of a hot entry holding `rows` result rows.
size_t EntryBytes(size_t rows) {
  auto probe = MakeStore(0);
  return probe->Find(probe->Insert(MakeEntry(0, 1, rows)))->bytes;
}

TEST(CacheStoreTest, InsertFindRemove) {
  auto store = MakeStore(0);
  uint64_t id = store->Insert(MakeEntry(0, 1, 10));
  ASSERT_NE(id, 0u);
  std::shared_ptr<const CacheEntry> entry = store->Find(id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->result.num_rows(), 10u);
  EXPECT_EQ(store->num_entries(), 1u);
  EXPECT_GT(store->bytes_used(), 0u);
  EXPECT_TRUE(store->Remove(id));
  EXPECT_FALSE(store->Remove(id));
  EXPECT_EQ(store->num_entries(), 0u);
  EXPECT_EQ(store->bytes_used(), 0u);
}

TEST(CacheStoreTest, CandidatesUseBoundingBoxes) {
  auto store = MakeStore(0);
  uint64_t near = store->Insert(MakeEntry(0, 1, 5));
  uint64_t far = store->Insert(MakeEntry(100, 1, 5));
  auto hits = store->Candidates(
      geometry::Hyperrectangle({-2.0, -2.0}, {2.0, 2.0}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], near);
  (void)far;
}

TEST(CacheStoreTest, ByteBudgetEnforced) {
  auto store = MakeStore(0);
  uint64_t id = store->Insert(MakeEntry(0, 1, 100));
  size_t one_entry_bytes = store->Find(id)->bytes;
  store->Remove(id);

  auto limited = MakeStore(one_entry_bytes * 3);
  for (int i = 0; i < 10; ++i) {
    limited->Insert(MakeEntry(i * 10.0, 1, 100));
    EXPECT_LE(limited->bytes_used(), limited->max_bytes());
  }
  EXPECT_LE(limited->num_entries(), 3u);
  EXPECT_GT(limited->evictions(), 0u);
}

TEST(CacheStoreTest, OversizedEntryNotCached) {
  auto store = MakeStore(100);  // Tiny budget.
  uint64_t id = store->Insert(MakeEntry(0, 1, 1000));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(store->num_entries(), 0u);
}

TEST(CacheStoreTest, LruEvictsLeastRecentlyTouched) {
  size_t entry_bytes = EntryBytes(50);

  auto store = MakeStore(entry_bytes * 2 + entry_bytes / 2);
  uint64_t a = store->Insert(MakeEntry(0, 1, 50));
  uint64_t b = store->Insert(MakeEntry(10, 1, 50));
  store->Touch(a, 100);
  store->Touch(b, 200);
  store->Touch(a, 300);  // a is now more recent than b.
  store->Insert(MakeEntry(20, 1, 50));
  EXPECT_NE(store->Find(a), nullptr);
  EXPECT_EQ(store->Find(b), nullptr);  // b evicted.
}

TEST(CostAwareEvictionTest, FrequentlyTouchedEntryOutlivesEqualOne) {
  size_t entry_bytes = EntryBytes(50);
  auto store = MakeStore(entry_bytes * 2 + entry_bytes / 2,
                         ReplacementPolicy::kCostAware);
  uint64_t a = store->Insert(MakeEntry(0, 1, 50));
  uint64_t b = store->Insert(MakeEntry(10, 1, 50));
  for (int i = 0; i < 5; ++i) store->Touch(a, i);
  store->Insert(MakeEntry(20, 1, 50));
  EXPECT_NE(store->Find(a), nullptr);
  EXPECT_EQ(store->Find(b), nullptr);
}

TEST(CostAwareEvictionTest, LargerEntryGoesFirstAtEqualAccessCount) {
  size_t small_bytes = EntryBytes(10);
  size_t large_bytes = EntryBytes(500);
  auto store = MakeStore(small_bytes + large_bytes + small_bytes / 2,
                         ReplacementPolicy::kCostAware);
  // Priced by a fitted line, so the large entry also costs more to re-fetch;
  // per byte it is still the cheaper one to lose.
  store->refetch_cost().AddSample(0, 1'600'000);
  store->refetch_cost().AddSample(100, 1'600'000 + 46'000 * 100);
  uint64_t small_id = store->Insert(MakeEntry(0, 1, 10));
  uint64_t large_id = store->Insert(MakeEntry(10, 1, 500));
  store->Insert(MakeEntry(20, 1, 10));
  EXPECT_NE(store->Find(small_id), nullptr);
  EXPECT_EQ(store->Find(large_id), nullptr);
}

TEST(CostAwareEvictionTest, IdleHotEntryAgesOutOnceLPassesIt) {
  size_t entry_bytes = EntryBytes(50);
  auto store = MakeStore(entry_bytes * 2 + entry_bytes / 2,
                         ReplacementPolicy::kCostAware);
  uint64_t hot = store->Insert(MakeEntry(0, 1, 50));
  for (int i = 0; i < 3; ++i) store->Touch(hot, i);  // n = 4: H = 4/s.
  // One-shot entries arrive; from the second on, each evicts its
  // predecessor and lifts L by 1/s. While L < 4/s the hot entry survives.
  for (int i = 1; i <= 3; ++i) {
    store->Insert(MakeEntry(10.0 * i, 1, 50));
    EXPECT_NE(store->Find(hot), nullptr) << "one-shot entry " << i;
  }
  // Never touched again, it is evicted once L reaches its priority.
  for (int i = 4; i <= 6; ++i) store->Insert(MakeEntry(10.0 * i, 1, 50));
  EXPECT_EQ(store->Find(hot), nullptr);
  EXPECT_EQ(store->num_entries(), 2u);
}

TEST(CostAwareEvictionTest, FreezingDoesNotChangeTheNextVictim) {
  // p is the next victim while hot (more bytes, same access count). If its
  // frozen size priced it, p would outrank q and q would go instead. The
  // budget needs one eviction to admit r in either state.
  size_t budget = EntryBytes(100) + EntryBytes(90) + EntryBytes(10) / 2;
  for (bool freeze : {false, true}) {
    SCOPED_TRACE(freeze ? "p frozen" : "all hot");
    auto store = MakeStore(budget, ReplacementPolicy::kCostAware);
    CacheEntry p_entry = MakeEntry(0, 1, 100);
    p_entry.last_access_micros = 0;
    CacheEntry q_entry = MakeEntry(10, 1, 90);
    q_entry.last_access_micros = 1000;
    uint64_t p = store->Insert(std::move(p_entry));
    uint64_t q = store->Insert(std::move(q_entry));
    if (freeze) {
      EXPECT_EQ(store->SweepColdEntries(/*now_micros=*/1000,
                                        /*freeze_idle_micros=*/500),
                1u);
      ASSERT_EQ(store->Find(p)->tier, EntryTier::kFrozen);
      ASSERT_LT(store->Find(p)->bytes, store->Find(q)->bytes);
    }
    store->Insert(MakeEntry(20, 1, 100));
    EXPECT_EQ(store->evictions(), 1u);
    EXPECT_EQ(store->Find(p), nullptr);
    EXPECT_NE(store->Find(q), nullptr);
  }
}

TEST(RefetchCostFitTest, RecoversFixedAndPerRowCost) {
  RefetchCostFit fit;
  // Before any sample, as in a freshly constructed or restored proxy.
  RefetchCost unfitted = fit.Current();
  EXPECT_FALSE(unfitted.fitted);
  EXPECT_EQ(unfitted.Of(0), 1.0);
  EXPECT_EQ(unfitted.Of(5000), 1.0);

  // One sample fixes the level but not the slope.
  fit.AddSample(12, 2'000'000);
  EXPECT_TRUE(fit.Current().fitted);
  EXPECT_DOUBLE_EQ(fit.Current().fixed_micros, 2'000'000.0);
  EXPECT_DOUBLE_EQ(fit.Current().per_row_micros, 0.0);

  RefetchCostFit line;
  for (size_t rows : {0, 3, 10, 25, 40, 100, 7, 250}) {
    line.AddSample(rows, 1'600'000 + 46'000 * static_cast<int64_t>(rows));
  }
  RefetchCost cost = line.Current();
  EXPECT_NEAR(cost.fixed_micros, 1'600'000.0, 1e-3);
  EXPECT_NEAR(cost.per_row_micros, 46'000.0, 1e-6);
  EXPECT_NEAR(cost.Of(10), 2'060'000.0, 1e-3);

  // Symmetric noise around the line averages out.
  RefetchCostFit noisy;
  for (int64_t rows = 0; rows < 200; ++rows) {
    int64_t noise = (rows % 2 == 0 ? 1 : -1) * 50'000;
    noisy.AddSample(static_cast<size_t>(rows),
                    1'600'000 + 46'000 * rows + noise);
  }
  EXPECT_NEAR(noisy.Current().fixed_micros, 1'600'000.0, 0.01 * 1'600'000);
  EXPECT_NEAR(noisy.Current().per_row_micros, 46'000.0, 0.01 * 46'000);
}

TEST(RefetchCostFitTest, NegativeSlopeClampsToFlatLine) {
  RefetchCostFit fit;
  fit.AddSample(0, 3'000'000);
  fit.AddSample(100, 1'000'000);
  EXPECT_EQ(fit.Current().per_row_micros, 0.0);
  EXPECT_DOUBLE_EQ(fit.Current().fixed_micros, 2'000'000.0);
}

TEST(CacheStoreTest, DescriptionStaysInSyncThroughEviction) {
  size_t entry_bytes = EntryBytes(20);
  auto store = MakeStore(entry_bytes * 4);
  for (int i = 0; i < 20; ++i) {
    store->Insert(MakeEntry(i * 10.0, 1, 20));
  }
  // Every candidate returned by the description must still exist.
  auto hits = store->Candidates(
      geometry::Hyperrectangle({-1000.0, -1000.0}, {1000.0, 1000.0}));
  EXPECT_EQ(hits.size(), store->num_entries());
  for (uint64_t id : hits) {
    EXPECT_NE(store->Find(id), nullptr);
  }
}

TEST(CacheStoreTest, WorksWithRTreeDescription) {
  CacheStore store([] { return std::make_unique<index::RTreeIndex>(); },
                   /*num_shards=*/1, 0, ReplacementPolicy::kLru);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(store.Insert(MakeEntry(i * 5.0, 1, 5)));
  }
  auto hits = store.Candidates(geometry::Hyperrectangle({-1.5, -1.5}, {6.0, 1.5}));
  EXPECT_EQ(hits.size(), 2u);  // Centers 0 and 5.
  for (uint64_t id : ids) EXPECT_TRUE(store.Remove(id));
  EXPECT_EQ(store.num_entries(), 0u);
}

TEST(CacheStoreTest, AllIdsEnumerates) {
  auto store = MakeStore(0);
  store->Insert(MakeEntry(0, 1, 5));
  store->Insert(MakeEntry(10, 1, 5));
  EXPECT_EQ(store->AllIds().size(), 2u);
}

TEST(ReplacementPolicyTest, Names) {
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicy::kLru), "LRU");
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicy::kCostAware),
               "cost-aware");
}

}  // namespace
}  // namespace fnproxy::core
