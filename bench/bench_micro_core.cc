// Micro-benchmarks for the proxy core: region construction from templates,
// relationship checking against a populated cache, local evaluation of
// subsumed queries, and remainder-query construction.

#include <benchmark/benchmark.h>

#include "core/cache_store.h"
#include "core/function_template.h"
#include "core/local_eval.h"
#include "core/region_predicate.h"
#include "core/relationship.h"
#include "geometry/celestial.h"
#include "index/array_index.h"
#include "sql/parser.h"
#include "util/random.h"
#include "workload/experiment.h"

namespace fnproxy::core {
namespace {

using sql::Value;

void BM_BuildRegionFromTemplate(benchmark::State& state) {
  auto tmpl = FunctionTemplate::FromXml(workload::kNearbyObjEqTemplateXml);
  std::vector<Value> args = {Value::Double(195.1), Value::Double(2.5),
                             Value::Double(10.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmpl->BuildRegion(args));
  }
}
BENCHMARK(BM_BuildRegionFromTemplate);

std::unique_ptr<CacheStore> MakePopulatedStore(size_t entries,
                                               util::Random& rng) {
  auto store = std::make_unique<CacheStore>(
      [] { return std::make_unique<index::ArrayRegionIndex>(); },
      /*num_shards=*/1, 0, ReplacementPolicy::kLru);
  sql::Table empty(sql::Schema({{"cx", sql::ValueType::kDouble}}));
  for (size_t i = 0; i < entries; ++i) {
    CacheEntry entry;
    entry.template_id = "radial";
    entry.region = geometry::ConeToHypersphere(rng.NextDouble(130, 230),
                                               rng.NextDouble(0, 60),
                                               rng.NextDouble(4, 30))
                       .Clone();
    entry.result = empty;
    store->Insert(std::move(entry));
  }
  return store;
}

void BM_CheckRelationship(benchmark::State& state) {
  util::Random rng(1);
  std::unique_ptr<CacheStore> store_owner =
      MakePopulatedStore(static_cast<size_t>(state.range(0)), rng);
  CacheStore& store = *store_owner;
  std::vector<geometry::Hypersphere> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back(geometry::ConeToHypersphere(rng.NextDouble(130, 230),
                                                 rng.NextDouble(0, 60),
                                                 rng.NextDouble(4, 30)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CheckRelationship(store, "radial", "", probes[i & 255]));
    ++i;
  }
}
BENCHMARK(BM_CheckRelationship)->Arg(1000)->Arg(5000);

void BM_SelectInRegion(benchmark::State& state) {
  util::Random rng(2);
  sql::Table cached(sql::Schema({{"objID", sql::ValueType::kInt},
                                 {"cx", sql::ValueType::kDouble},
                                 {"cy", sql::ValueType::kDouble},
                                 {"cz", sql::ValueType::kDouble}}));
  for (int64_t i = 0; i < state.range(0); ++i) {
    geometry::Point p = geometry::RaDecToUnitVector(
        rng.NextDouble(180, 181), rng.NextDouble(30, 31));
    cached.AddRow({Value::Int(i), Value::Double(p[0]), Value::Double(p[1]),
                   Value::Double(p[2])});
  }
  geometry::Hypersphere region =
      geometry::ConeToHypersphere(180.5, 30.5, 20.0);
  std::vector<std::string> coords = {"cx", "cy", "cz"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectInRegion(cached, region, coords));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectInRegion)->Arg(100)->Arg(1000);

void BM_BuildRemainderQuery(benchmark::State& state) {
  auto stmt = sql::ParseSelect(
      "SELECT p.objID, p.cx, p.cy, p.cz FROM fGetNearbyObjEq(180.0, 30.0, 30.0)"
      " AS n JOIN PhotoPrimary AS p ON n.objID = p.objID");
  util::Random rng(3);
  std::vector<std::unique_ptr<geometry::Region>> holes;
  std::vector<const geometry::Region*> hole_ptrs;
  for (int i = 0; i < state.range(0); ++i) {
    holes.push_back(geometry::ConeToHypersphere(rng.NextDouble(179, 181),
                                                rng.NextDouble(29, 31),
                                                rng.NextDouble(2, 10))
                        .Clone());
    hole_ptrs.push_back(holes.back().get());
  }
  std::vector<std::string> coords = {"cx", "cy", "cz"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRemainderQuery(*stmt, hole_ptrs, coords));
  }
}
BENCHMARK(BM_BuildRemainderQuery)->Arg(1)->Arg(8);

void BM_MergeDistinct(benchmark::State& state) {
  util::Random rng(4);
  sql::Table a(sql::Schema({{"objID", sql::ValueType::kInt},
                            {"v", sql::ValueType::kDouble}}));
  sql::Table b(a.schema());
  for (int64_t i = 0; i < state.range(0); ++i) {
    a.AddRow({Value::Int(i), Value::Double(rng.NextDouble())});
    // Half the rows of b duplicate a.
    if (i % 2 == 0) {
      b.AddRow(a.row(static_cast<size_t>(i)));
    } else {
      b.AddRow({Value::Int(i + 100000), Value::Double(rng.NextDouble())});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeDistinct({&a, &b}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_MergeDistinct)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace fnproxy::core
