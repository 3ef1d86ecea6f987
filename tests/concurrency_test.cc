// Concurrency suite for the sharded proxy core: K threads with
// deterministic per-thread seeds hammer one shared CacheStore / one shared
// FunctionProxy with overlapping, subsumed and disjoint queries. The
// assertions are bookkeeping invariants that any lost admission, double
// eviction or torn counter update would break. Run under
// -fsanitize=thread in CI to also prove data-race freedom.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/cache_store.h"
#include "core/proxy.h"
#include "geometry/hypersphere.h"
#include "index/array_index.h"
#include "net/network.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "util/random.h"
#include "workload/experiment.h"

namespace fnproxy::core {
namespace {

using geometry::Hypersphere;
using net::HttpRequest;
using net::HttpResponse;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

constexpr size_t kThreads = 8;

CacheEntry MakeEntry(double x, double y, size_t rows) {
  CacheEntry entry;
  entry.template_id = "radial";
  entry.region = std::make_unique<Hypersphere>(geometry::Point{x, y}, 0.5);
  Table result(Schema({{"v", ValueType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    result.AddRow({Value::Double(static_cast<double>(i))});
  }
  entry.result = std::move(result);
  return entry;
}

std::unique_ptr<CacheStore> MakeShardedStore(
    size_t max_bytes, ReplacementPolicy policy = ReplacementPolicy::kLru) {
  return std::make_unique<CacheStore>(
      [] { return std::make_unique<index::ArrayRegionIndex>(); },
      /*num_shards=*/8, max_bytes, policy);
}

/// Recomputes the store's byte usage entry by entry and checks it against
/// the atomic accounting, along with the entry count.
void ExpectConsistentAccounting(const CacheStore& store) {
  std::vector<uint64_t> ids = store.AllIds();
  EXPECT_EQ(ids.size(), store.num_entries());
  size_t bytes = 0;
  for (uint64_t id : ids) {
    std::shared_ptr<const CacheEntry> entry = store.Find(id);
    ASSERT_NE(entry, nullptr);
    bytes += entry->bytes;
  }
  EXPECT_EQ(bytes, store.bytes_used());
}

TEST(ConcurrentCacheStoreTest, UnlimitedStoreLosesNoAdmissions) {
  std::unique_ptr<CacheStore> store = MakeShardedStore(/*max_bytes=*/0);
  std::atomic<uint64_t> admitted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Random rng(1000 + t);  // Deterministic per-thread stream.
      std::vector<uint64_t> my_ids;
      for (int i = 0; i < 200; ++i) {
        double x = rng.NextDouble(-50, 50);
        double y = rng.NextDouble(-50, 50);
        size_t comparisons = 0;
        uint64_t id = store->Insert(MakeEntry(x, y, 4), &comparisons);
        ASSERT_NE(id, 0u);
        admitted.fetch_add(1);
        my_ids.push_back(id);
        // Interleave reads: my own earlier entries must still be there
        // (nothing evicts in an unlimited store).
        uint64_t probe = my_ids[rng.NextUint64(my_ids.size())];
        ASSERT_NE(store->Find(probe), nullptr);
        size_t scan = 0;
        store->Candidates(Hypersphere({x, y}, 2.0).BoundingBox(), &scan);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(admitted.load(), kThreads * 200);
  EXPECT_EQ(store->num_entries(), kThreads * 200);
  EXPECT_EQ(store->evictions(), 0u);
  ExpectConsistentAccounting(*store);
}

TEST(ConcurrentCacheStoreTest, EvictionStormBalancesBooks) {
  // A budget of ~40 entries under 1600 concurrent admissions: every insert
  // evicts, often racing with other inserters picking the same victim.
  std::unique_ptr<CacheStore> store = MakeShardedStore(/*max_bytes=*/0);
  size_t entry_bytes = 0;
  {
    size_t comparisons = 0;
    uint64_t probe_id = store->Insert(MakeEntry(0, 0, 4), &comparisons);
    entry_bytes = store->Find(probe_id)->bytes;
    store->Remove(probe_id, &comparisons);
  }
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kCostAware}) {
    SCOPED_TRACE(ReplacementPolicyName(policy));
    store = MakeShardedStore(/*max_bytes=*/entry_bytes * 40, policy);

    std::atomic<uint64_t> admitted{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        util::Random rng(2000 + t);
        for (int i = 0; i < 200; ++i) {
          size_t comparisons = 0;
          uint64_t id = store->Insert(
              MakeEntry(rng.NextDouble(-50, 50), rng.NextDouble(-50, 50), 4),
              &comparisons);
          ASSERT_NE(id, 0u);  // Entries are far smaller than the budget.
          admitted.fetch_add(1);
          store->Find(id);  // May already be evicted; must not crash.
          // Touches and cost samples race the victim scans.
          store->Touch(id, i);
          store->refetch_cost().AddSample(4, 1'000 + i);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    // Every admitted entry either is still resident or was evicted exactly
    // once: lost admissions or double-counted evictions break this balance.
    EXPECT_EQ(admitted.load(), kThreads * 200);
    EXPECT_EQ(store->num_entries() + store->evictions(), admitted.load());
    EXPECT_LE(store->bytes_used(), entry_bytes * 40);
    ExpectConsistentAccounting(*store);
  }
}

TEST(ConcurrentCacheStoreTest, RacingRemovesDeleteExactlyOnce) {
  std::unique_ptr<CacheStore> store = MakeShardedStore(/*max_bytes=*/0);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 400; ++i) {
    ids.push_back(store->Insert(MakeEntry(i, 0, 2)));
  }
  std::atomic<uint64_t> removed{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // All threads race over the same id list; each id must be removed by
      // exactly one winner.
      for (uint64_t id : ids) {
        size_t comparisons = 0;
        if (store->Remove(id, &comparisons)) removed.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(removed.load(), ids.size());
  EXPECT_EQ(store->num_entries(), 0u);
  EXPECT_EQ(store->bytes_used(), 0u);
}

/// Proxy-level storm: shared origin environment, one proxy, K clients.
class ConcurrentProxyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 12000;
    config.num_clusters = 5;
    config.seed = 7;
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
        [](const std::vector<Value>& args) -> util::StatusOr<Value> {
          FNPROXY_ASSIGN_OR_RETURN(
              int64_t bit, catalog::PhotoFlagValue(args.at(0).AsString()));
          return Value::Int(bit);
        });
    templates_ = new TemplateRegistry();
    ASSERT_TRUE(
        templates_
            ->RegisterFunctionTemplateXml(workload::kNearbyObjEqTemplateXml)
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

  static HttpRequest Radial(double ra, double dec, double radius) {
    HttpRequest request;
    request.path = "/radial";
    request.query_params["ra"] = std::to_string(ra);
    request.query_params["dec"] = std::to_string(dec);
    request.query_params["radius"] = std::to_string(radius);
    return request;
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static TemplateRegistry* templates_;
};

server::Database* ConcurrentProxyTest::db_ = nullptr;
server::SkyGrid* ConcurrentProxyTest::grid_ = nullptr;
TemplateRegistry* ConcurrentProxyTest::templates_ = nullptr;

TEST_F(ConcurrentProxyTest, StatsTotalsEqualPerThreadSums) {
  util::SimulatedClock clock;
  server::OriginWebApp app(db_, &clock);
  ASSERT_TRUE(app.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
  net::SimulatedChannel channel(&app, net::LinkConfig{0.0, 1e9}, &clock);
  ProxyConfig config;
  config.mode = CachingMode::kActiveFull;
  config.cache_shards = 8;
  FunctionProxy proxy(config, templates_, &channel, &clock);

  // A small pool of distinct queries so threads collide on exact repeats,
  // subsumptions (same center, smaller radius) and partial overlaps.
  struct Cone {
    double ra, dec, radius;
  };
  std::vector<Cone> cones;
  for (int i = 0; i < 4; ++i) {
    double ra = 180.0 + 6.0 * i;
    cones.push_back({ra, 35.0, 30.0});
    cones.push_back({ra, 35.0, 15.0});        // Subsumed by the first.
    cones.push_back({ra + 0.3, 35.2, 25.0});  // Overlaps the first.
  }
  // Ground truth row counts from a proxy-free origin.
  std::vector<size_t> expected_rows;
  {
    util::SimulatedClock scratch;
    server::OriginWebApp reference(db_, &scratch);
    ASSERT_TRUE(
        reference.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    for (const Cone& cone : cones) {
      HttpResponse response =
          reference.Handle(Radial(cone.ra, cone.dec, cone.radius));
      ASSERT_TRUE(response.ok()) << response.body;
      auto table = sql::TableFromXml(response.body);
      ASSERT_TRUE(table.ok());
      expected_rows.push_back(table->num_rows());
    }
  }

  constexpr int kPerThread = 30;
  std::vector<uint64_t> per_thread_requests(kThreads, 0);
  std::atomic<uint64_t> wrong_answers{0};
  std::atomic<uint64_t> stats_polls_ok{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Random rng(3000 + t);  // Deterministic per-thread schedule.
      for (int i = 0; i < kPerThread; ++i) {
        size_t pick = rng.NextUint64(cones.size());
        const Cone& cone = cones[pick];
        HttpResponse response =
            proxy.Handle(Radial(cone.ra, cone.dec, cone.radius));
        ++per_thread_requests[t];
        auto table = sql::TableFromXml(response.body);
        if (!response.ok() || !table.ok() ||
            table->num_rows() != expected_rows[pick]) {
          wrong_answers.fetch_add(1);
        }
      }
    });
  }
  // One extra client polls the admin endpoint mid-storm: each snapshot must
  // be well-formed (a torn render would lose the trailing Cache line).
  std::thread poller([&] {
    for (int i = 0; i < 20; ++i) {
      HttpRequest request;
      request.path = "/proxy/stats";
      HttpResponse response = proxy.Handle(request);
      if (response.ok() &&
          response.body.find("<Cache ") != std::string::npos &&
          response.body.find("<CircuitBreaker ") != std::string::npos) {
        stats_polls_ok.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();
  poller.join();

  uint64_t issued = 0;
  for (uint64_t n : per_thread_requests) issued += n;
  ASSERT_EQ(issued, kThreads * kPerThread);
  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_EQ(stats_polls_ok.load(), 20u);

  ProxyStats stats = proxy.stats();
  // No request lost, none double-counted, and every template request was
  // classified exactly once.
  EXPECT_EQ(stats.requests, issued);
  EXPECT_EQ(stats.template_requests, issued);
  EXPECT_EQ(stats.records.size(), issued);
  EXPECT_EQ(stats.exact_hits + stats.containment_hits +
                stats.region_containments + stats.overlaps_handled +
                stats.misses + stats.collapsed,
            stats.template_requests);
  EXPECT_EQ(stats.origin_failures, 0u);
  // The cache saw real concurrency and stayed balanced.
  EXPECT_GT(stats.exact_hits + stats.containment_hits, 0u);
  std::vector<uint64_t> ids = proxy.cache().AllIds();
  EXPECT_EQ(ids.size(), proxy.cache().num_entries());
  size_t bytes = 0;
  for (uint64_t id : ids) {
    std::shared_ptr<const CacheEntry> entry = proxy.cache().Find(id);
    ASSERT_NE(entry, nullptr);
    bytes += entry->bytes;
  }
  EXPECT_EQ(bytes, proxy.cache().bytes_used());
}

TEST_F(ConcurrentProxyTest, BoundedCacheUnderStormKeepsBalance) {
  util::SimulatedClock clock;
  server::OriginWebApp app(db_, &clock);
  ASSERT_TRUE(app.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
  net::SimulatedChannel channel(&app, net::LinkConfig{0.0, 1e9}, &clock);
  ProxyConfig config;
  config.mode = CachingMode::kActiveFull;
  config.cache_shards = 8;
  config.max_cache_bytes = 64 * 1024;  // Tiny: constant eviction pressure.
  FunctionProxy proxy(config, templates_, &channel, &clock);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Random rng(4000 + t);
      for (int i = 0; i < 25; ++i) {
        HttpResponse response = proxy.Handle(
            Radial(rng.NextDouble(178, 202), rng.NextDouble(28, 47),
                   rng.NextDouble(10, 35)));
        ASSERT_TRUE(response.ok()) << response.body;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(proxy.cache().bytes_used(), config.max_cache_bytes);
  std::vector<uint64_t> ids = proxy.cache().AllIds();
  EXPECT_EQ(ids.size(), proxy.cache().num_entries());
  size_t bytes = 0;
  for (uint64_t id : ids) {
    std::shared_ptr<const CacheEntry> entry = proxy.cache().Find(id);
    ASSERT_NE(entry, nullptr);
    bytes += entry->bytes;
  }
  EXPECT_EQ(bytes, proxy.cache().bytes_used());
}

}  // namespace
}  // namespace fnproxy::core
