// Heap measurements of the storage tier (docs/STORAGE.md): a counting global
// operator new/delete measures the bytes a frozen segment and a cache entry
// really hold, instead of trusting the byte counts the cache budget charges.
// A frozen segment's ByteSize() must cover its heap, and freezing a
// Radial-schema entry must shrink it at every row count, empty results
// included.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "catalog/sky_catalog.h"
#include "core/cache_store.h"
#include "geometry/hypersphere.h"
#include "index/array_index.h"
#include "sql/columnar.h"
#include "storage/segment.h"

namespace {

/// Live bytes requested through the global operator new. Each block keeps
/// its size in a header of the default new alignment.
std::atomic<int64_t> g_live_bytes{0};
constexpr size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void* CountedAlloc(size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace fnproxy::core {
namespace {

using sql::ColumnarTable;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;
using storage::FrozenSegment;

constexpr size_t kRowCounts[] = {0, 1, 10, 25, 100};

/// The Radial template's result schema (objID, ra, dec, cx..cz, u..z), with
/// the first `rows` objects of a synthetic catalog.
Table RadialResult(size_t rows) {
  catalog::SkyCatalogConfig config;
  config.num_objects = 100;
  config.num_clusters = 2;
  config.seed = 7;
  const Table catalog = catalog::GenerateSkyCatalog(config).ToTable();
  std::vector<sql::Column> columns(catalog.schema().columns().begin(),
                                   catalog.schema().columns().begin() + 11);
  Table result{Schema(columns)};
  for (size_t r = 0; r < rows; ++r) {
    const sql::Row& row = catalog.rows()[r];
    result.AddRow(sql::Row(row.begin(), row.begin() + 11));
  }
  return result;
}

/// The table as the proxy admits it: coordinate views prepared.
ColumnarTable AdmittedTable(const Table& rows) {
  ColumnarTable table(rows);
  for (const char* name : {"cx", "cy", "cz"}) {
    EXPECT_TRUE(table.PrepareNumericView(*table.schema().FindColumn(name)).ok());
  }
  return table;
}

TEST(StorageMemoryTest, SegmentByteSizeCoversItsHeap) {
  for (size_t rows : kRowCounts) {
    SCOPED_TRACE(rows);
    const ColumnarTable table = AdmittedTable(RadialResult(rows));
    {
      const int64_t before = LiveBytes();
      const FrozenSegment segment = FrozenSegment::Freeze(table);
      const int64_t held = LiveBytes() - before;
      EXPECT_GE(static_cast<int64_t>(segment.ByteSize()), held);
      EXPECT_GE(held, static_cast<int64_t>(segment.Serialize().size()) - 15);

      const int64_t before_parse = LiveBytes();
      auto parsed = FrozenSegment::Parse(segment.Serialize());
      ASSERT_TRUE(parsed.ok());
      EXPECT_GE(static_cast<int64_t>(parsed->ByteSize()),
                LiveBytes() - before_parse);
    }
  }
}

TEST(StorageMemoryTest, FrozenEntryHoldsLessHeapThanHotEntry) {
  for (size_t rows : kRowCounts) {
    SCOPED_TRACE(rows);
    const Table source = RadialResult(rows);
    CacheStore store([] { return std::make_unique<index::ArrayRegionIndex>(); },
                     /*num_shards=*/1, /*max_bytes=*/0,
                     ReplacementPolicy::kCostAware);

    // Both measurements include the store's bookkeeping for the entry (its
    // map node and description slot), which freezing leaves as it was.
    const int64_t empty = LiveBytes();
    CacheEntry entry;
    entry.template_id = "radial";
    entry.nonspatial_fingerprint =
        "dec=30.000000&ra=180.000000&radius=20.000000";
    entry.region = std::make_unique<geometry::Hypersphere>(
        geometry::Point{-0.75, 0.43, 0.5}, 0.0058);
    entry.result = AdmittedTable(source);
    const uint64_t id = store.Insert(std::move(entry));
    ASSERT_NE(id, 0u);
    const int64_t hot = LiveBytes() - empty;

    ASSERT_EQ(store.SweepColdEntries(/*now_micros=*/10,
                                     /*freeze_idle_micros=*/1),
              1u);
    const int64_t frozen = LiveBytes() - empty;
    EXPECT_LT(frozen, hot) << "hot " << hot << " B, frozen " << frozen << " B";

    // The budget charge of the frozen entry covers the segment it holds.
    auto cold = store.Find(id);
    ASSERT_NE(cold, nullptr);
    EXPECT_EQ(cold->tier, EntryTier::kFrozen);
    EXPECT_EQ(cold->bytes, cold->segment->ByteSize() + 256);
  }
}

}  // namespace
}  // namespace fnproxy::core
