#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/sky_catalog.h"
#include "geometry/celestial.h"
#include "geometry/hypersphere.h"
#include "geometry/region.h"
#include "net/fault.h"
#include "net/network.h"
#include "proxy_test_util.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "util/clock.h"
#include "util/string_util.h"
#include "workload/experiment.h"
#include "workload/rbe.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"

namespace fnproxy::workload {
namespace {

using geometry::RegionRelation;

RadialTraceConfig SmallTrace(size_t n = 1500) {
  RadialTraceConfig config;
  config.num_queries = n;
  config.seed = 7;
  return config;
}

TEST(RadialTraceGeneratorTest, SizeAndParams) {
  Trace trace = GenerateRadialTrace(SmallTrace());
  EXPECT_EQ(trace.form_path, "/radial");
  ASSERT_EQ(trace.queries.size(), 1500u);
  for (const TraceQuery& q : trace.queries) {
    ASSERT_EQ(q.params.size(), 3u);
    EXPECT_TRUE(util::ParseDouble(q.params.at("ra")).ok());
    EXPECT_TRUE(util::ParseDouble(q.params.at("dec")).ok());
    auto radius = util::ParseDouble(q.params.at("radius"));
    ASSERT_TRUE(radius.ok());
    EXPECT_GT(*radius, 0.0);
  }
}

TEST(RadialTraceGeneratorTest, MixApproximatesConfig) {
  RadialTraceConfig config = SmallTrace(4000);
  Trace trace = GenerateRadialTrace(config);
  EXPECT_NEAR(trace.IntendedFraction(RegionRelation::kEqual),
              config.exact_fraction, 0.03);
  EXPECT_NEAR(trace.IntendedFraction(RegionRelation::kContainedBy),
              config.containment_fraction, 0.04);
  EXPECT_NEAR(trace.IntendedFraction(RegionRelation::kContains),
              config.region_containment_fraction, 0.02);
  EXPECT_NEAR(trace.IntendedFraction(RegionRelation::kOverlap),
              config.overlap_fraction, 0.03);
}

TEST(RadialTraceGeneratorTest, DeterministicInSeed) {
  Trace a = GenerateRadialTrace(SmallTrace());
  Trace b = GenerateRadialTrace(SmallTrace());
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].params, b.queries[i].params);
  }
}

TEST(RadialTraceGeneratorTest, LabelsAreGeometricallySound) {
  // Every non-disjoint label must be realizable against the set of earlier
  // queries: an exact label has an identical earlier query; containment has
  // an earlier container; etc.
  Trace trace = GenerateRadialTrace(SmallTrace(800));
  std::vector<geometry::Hypersphere> history;
  for (const TraceQuery& q : trace.queries) {
    double ra = *util::ParseDouble(q.params.at("ra"));
    double dec = *util::ParseDouble(q.params.at("dec"));
    double radius = *util::ParseDouble(q.params.at("radius"));
    geometry::Hypersphere sphere = geometry::ConeToHypersphere(ra, dec, radius);

    bool found = false;
    for (const auto& prev : history) {
      switch (q.intended) {
        case RegionRelation::kEqual:
          found = geometry::Equals(sphere, prev);
          break;
        case RegionRelation::kContainedBy:
          found = geometry::Contains(prev, sphere) &&
                  !geometry::Equals(prev, sphere);
          break;
        case RegionRelation::kContains:
          found = geometry::Contains(sphere, prev) &&
                  !geometry::Equals(prev, sphere);
          break;
        case RegionRelation::kOverlap:
          found = geometry::Relate(sphere, prev) == RegionRelation::kOverlap;
          break;
        case RegionRelation::kDisjoint:
          found = true;  // Nothing to verify against history.
          break;
      }
      if (found) break;
    }
    EXPECT_TRUE(found || history.empty())
        << "label " << geometry::RegionRelationName(q.intended)
        << " unrealizable for ra=" << ra << " dec=" << dec
        << " radius=" << radius;
    history.push_back(sphere);
  }
}

TEST(RadialTraceGeneratorTest, QueriesInsideFootprint) {
  RadialTraceConfig config = SmallTrace();
  Trace trace = GenerateRadialTrace(config);
  for (const TraceQuery& q : trace.queries) {
    double ra = *util::ParseDouble(q.params.at("ra"));
    double dec = *util::ParseDouble(q.params.at("dec"));
    EXPECT_GE(ra, config.ra_min - 2.0);
    EXPECT_LE(ra, config.ra_max + 2.0);
    EXPECT_GE(dec, config.dec_min - 2.0);
    EXPECT_LE(dec, config.dec_max + 2.0);
  }
}

TEST(FlashCrowdTraceTest, BurstWindowSlamsHotCone) {
  FlashCrowdTraceConfig config;
  config.base = SmallTrace(2000);
  Trace trace = GenerateFlashCrowdTrace(config);
  ASSERT_EQ(trace.queries.size(), 2000u);
  EXPECT_EQ(trace.form_path, "/radial");

  const std::string hot_ra = "185.0000";
  const std::string hot_dec = "30.0000";
  size_t burst_start = static_cast<size_t>(2000 * config.burst_start_fraction);
  size_t burst_end = static_cast<size_t>(2000 * config.burst_end_fraction);
  size_t hot_in_burst = 0;
  size_t hot_outside = 0;
  for (size_t i = 0; i < trace.queries.size(); ++i) {
    const TraceQuery& q = trace.queries[i];
    bool hot = q.params.at("ra") == hot_ra && q.params.at("dec") == hot_dec;
    if (i >= burst_start && i < burst_end) {
      hot_in_burst += hot ? 1 : 0;
    } else {
      hot_outside += hot ? 1 : 0;
    }
  }
  // ~85% of the burst window hits the hot cone; outside it, background
  // traffic essentially never lands on that exact center.
  double window = static_cast<double>(burst_end - burst_start);
  EXPECT_GT(static_cast<double>(hot_in_burst) / window, 0.7);
  EXPECT_LT(hot_outside, 5u);
}

TEST(FlashCrowdTraceTest, HotVariantsContainedInHotCone) {
  FlashCrowdTraceConfig config;
  config.base = SmallTrace(2000);
  Trace trace = GenerateFlashCrowdTrace(config);
  geometry::Hypersphere hot = geometry::ConeToHypersphere(
      config.hot_ra, config.hot_dec, config.hot_radius_arcmin);
  size_t exact = 0;
  size_t contained = 0;
  for (const TraceQuery& q : trace.queries) {
    if (q.params.at("ra") != "185.0000" || q.params.at("dec") != "30.0000") {
      continue;
    }
    double radius = *util::ParseDouble(q.params.at("radius"));
    geometry::Hypersphere sphere =
        geometry::ConeToHypersphere(config.hot_ra, config.hot_dec, radius);
    if (q.intended == RegionRelation::kContainedBy) {
      EXPECT_TRUE(geometry::Contains(hot, sphere));
      EXPECT_FALSE(geometry::Equals(hot, sphere));
      ++contained;
    } else {
      EXPECT_TRUE(geometry::Equals(hot, sphere));
      ++exact;
    }
  }
  // Both flavors are present: exact repeats dominate, shrunken variants are
  // a meaningful minority (hot_subsumed_fraction = 0.3).
  EXPECT_GT(exact, contained);
  EXPECT_GT(contained, 50u);
}

TEST(FlashCrowdTraceTest, DeterministicInSeed) {
  FlashCrowdTraceConfig config;
  config.base = SmallTrace(500);
  Trace a = GenerateFlashCrowdTrace(config);
  Trace b = GenerateFlashCrowdTrace(config);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].params, b.queries[i].params);
  }
}

TEST(RectTraceGeneratorTest, GeneratesValidBoxes) {
  RectTraceConfig config;
  config.num_queries = 500;
  Trace trace = GenerateRectTrace(config);
  EXPECT_EQ(trace.queries.size(), 500u);
  for (const TraceQuery& q : trace.queries) {
    double ra_min = *util::ParseDouble(q.params.at("ra_min"));
    double ra_max = *util::ParseDouble(q.params.at("ra_max"));
    double dec_min = *util::ParseDouble(q.params.at("dec_min"));
    double dec_max = *util::ParseDouble(q.params.at("dec_max"));
    EXPECT_LT(ra_min, ra_max);
    EXPECT_LT(dec_min, dec_max);
  }
  EXPECT_GT(trace.IntendedFraction(RegionRelation::kEqual), 0.05);
  EXPECT_GT(trace.IntendedFraction(RegionRelation::kContainedBy), 0.15);
}

TEST(TraceSerializationTest, RoundTrips) {
  Trace trace = GenerateRadialTrace(SmallTrace(100));
  auto parsed = Trace::Deserialize(trace.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->form_path, trace.form_path);
  ASSERT_EQ(parsed->queries.size(), trace.queries.size());
  for (size_t i = 0; i < trace.queries.size(); ++i) {
    EXPECT_EQ(parsed->queries[i].params, trace.queries[i].params);
    EXPECT_EQ(parsed->queries[i].intended, trace.queries[i].intended);
  }
}

TEST(TraceSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(Trace::Deserialize("").ok());
  EXPECT_FALSE(Trace::Deserialize("/radial\nnotabbedline\n").ok());
  EXPECT_FALSE(Trace::Deserialize("/radial\nZ\tra=1\n").ok());
}

RbeResult WithLatencies(const std::vector<int64_t>& micros) {
  RbeResult result;
  for (int64_t us : micros) {
    QueryResult query;
    query.response_micros = us;
    query.wall_micros = us;
    result.queries.push_back(query);
  }
  return result;
}

TEST(RbeResultTest, AverageOverPrefix) {
  RbeResult result = WithLatencies({1000, 2000, 3000, 10000});
  EXPECT_DOUBLE_EQ(result.AverageResponseMillis(), 4.0);
  EXPECT_DOUBLE_EQ(result.AverageResponseMillis(2), 1.5);
  EXPECT_DOUBLE_EQ(result.AverageResponseMillis(100), 4.0);
  EXPECT_DOUBLE_EQ(RbeResult().AverageResponseMillis(), 0.0);
}

// Nearest rank is the smallest sample with at least p% of the samples at or
// below it; a whole p·n/100 must not round up to the next sample.
TEST(RbeResultTest, WallPercentileIsNearestRank) {
  RbeResult four = WithLatencies({40, 10, 30, 20});
  EXPECT_EQ(four.WallPercentileMicros(50), 20);
  EXPECT_EQ(four.WallPercentileMicros(51), 30);
  EXPECT_EQ(four.WallPercentileMicros(100), 40);
  std::vector<int64_t> one_to_hundred;
  for (int64_t v = 1; v <= 100; ++v) one_to_hundred.push_back(v);
  RbeResult hundred = WithLatencies(one_to_hundred);
  EXPECT_EQ(hundred.WallPercentileMicros(99), 99);
  EXPECT_EQ(hundred.WallPercentileMicros(95), 95);
  EXPECT_EQ(hundred.WallPercentileMicros(100), 100);
  EXPECT_EQ(RbeResult().WallPercentileMicros(50), 0);
}

/// End-to-end smoke over a small experiment: schemes behave sanely relative
/// to each other.
class ExperimentSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkyExperiment::Options options;
    options.catalog.num_objects = 30000;
    options.catalog.num_clusters = 10;
    options.trace.num_queries = 400;
    options.trace.seed = 5;
    experiment_ = new SkyExperiment(options);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  /// One client, one proxy in `mode`, a healthy origin.
  static ReplayResult ReplayMode(core::CachingMode mode) {
    ReplayOptions options;
    options.tier.proxy.mode = mode;
    return experiment_->Replay(experiment_->trace(), options);
  }

  /// The first `n` queries of the experiment's trace.
  static Trace Prefix(size_t n) {
    Trace trace;
    trace.form_path = experiment_->trace().form_path;
    trace.queries.assign(experiment_->trace().queries.begin(),
                         experiment_->trace().queries.begin() + n);
    return trace;
  }

  static SkyExperiment* experiment_;
};

SkyExperiment* ExperimentSmokeTest::experiment_ = nullptr;

TEST_F(ExperimentSmokeTest, NoCacheSlowerThanActive) {
  ReplayResult nc_result = ReplayMode(core::CachingMode::kNoCache);
  ReplayResult ac_result = ReplayMode(core::CachingMode::kActiveFull);
  EXPECT_EQ(nc_result.rbe.failed, 0u);
  EXPECT_EQ(ac_result.rbe.failed, 0u);
  EXPECT_LT(ac_result.rbe.AverageResponseMillis(),
            nc_result.rbe.AverageResponseMillis());
  EXPECT_GT(ac_result.proxy_stats.AverageCacheEfficiency(), 0.3);
  EXPECT_EQ(nc_result.proxy_stats.AverageCacheEfficiency(), 0.0);
}

TEST_F(ExperimentSmokeTest, ActiveBeatsPassiveEfficiency) {
  ReplayResult pc_result = ReplayMode(core::CachingMode::kPassive);
  ReplayResult ac_result = ReplayMode(core::CachingMode::kActiveFull);
  EXPECT_GT(ac_result.proxy_stats.AverageCacheEfficiency(),
            pc_result.proxy_stats.AverageCacheEfficiency() + 0.1);
}

TEST_F(ExperimentSmokeTest, TotalDistinctResultBytesStable) {
  size_t a = experiment_->TotalDistinctResultBytes();
  size_t b = experiment_->TotalDistinctResultBytes();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

TEST_F(ExperimentSmokeTest, RunsAreDeterministic) {
  ReplayResult r1 = ReplayMode(core::CachingMode::kActiveFull);
  ReplayResult r2 = ReplayMode(core::CachingMode::kActiveFull);
  EXPECT_EQ(r1.rbe.AverageResponseMillis(), r2.rbe.AverageResponseMillis());
  EXPECT_EQ(r1.proxy_stats.AverageCacheEfficiency(),
            r2.proxy_stats.AverageCacheEfficiency());
  EXPECT_EQ(r1.origin_bytes_received, r2.origin_bytes_received);
}

/// Requests recorded in the snapshot at `path`, read back into a fresh
/// proxy.
uint64_t SnapshotRequests(SkyExperiment& sky, const std::string& path) {
  util::SimulatedClock clock;
  server::OriginWebApp app(sky.database(), &clock, sky.options().server_costs);
  net::SimulatedChannel wan(&app, sky.options().wan, &clock);
  core::FunctionProxy proxy(core::ProxyConfig(), &sky.templates(), &wan,
                            &clock);
  EXPECT_TRUE(proxy.RestoreSnapshot(path).ok());
  return proxy.stats().requests;
}

// Regression: the outage profile's fault-free calibration replay starts from
// the restored snapshot but must neither write it nor hand its end state to
// the measured replay. It used to do both, so the measured replay restored
// the calibration's cache and statistics and left 3x the trace behind.
TEST_F(ExperimentSmokeTest, OutageCalibrationLeavesTheSnapshotAlone) {
  const std::string dir =
      ::testing::TempDir() + "/fnproxy_outage_calibration_snapshot";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Trace trace = Prefix(150);
  ReplayOptions options;
  core::StorageTierConfig& storage = options.tier.proxy.storage;
  storage.enable = true;
  storage.background_maintenance = false;
  storage.snapshot_path = dir + "/written.snap";
  storage.restore_on_start = false;
  ASSERT_EQ(experiment_->Replay(trace, options).rbe.failed, 0u);
  ASSERT_EQ(SnapshotRequests(*experiment_, storage.snapshot_path),
            trace.queries.size());
  // Each restored replay rewrites its file, so each gets its own copy.
  for (const char* copy : {"/healthy.snap", "/outage.snap"}) {
    std::filesystem::copy_file(storage.snapshot_path, dir + copy);
  }

  storage.restore_on_start = true;
  storage.snapshot_path = dir + "/healthy.snap";
  const ReplayResult healthy = experiment_->Replay(trace, options);
  storage.snapshot_path = dir + "/outage.snap";
  options.outage_fractions = {{0.3, 0.3}};
  const ReplayResult outage = experiment_->Replay(trace, options);

  EXPECT_EQ(outage.proxy_stats.exact_hits, healthy.proxy_stats.exact_hits);
  EXPECT_EQ(outage.proxy_stats.containment_hits,
            healthy.proxy_stats.containment_hits);
  EXPECT_EQ(outage.proxy_stats.requests, 2 * trace.queries.size());
  EXPECT_EQ(SnapshotRequests(*experiment_, dir + "/outage.snap"),
            2 * trace.queries.size());
  std::filesystem::remove_all(dir);
}

enum class Profile { kHealthy, kFlaky, kOutage };

struct MatrixCell {
  size_t proxies;
  size_t clients;
  Profile profile;
};

std::string CellName(const ::testing::TestParamInfo<MatrixCell>& info) {
  const char* profiles[] = {"healthy", "flaky", "outage"};
  return std::to_string(info.param.proxies) + "proxies_" +
         std::to_string(info.param.clients) + "clients_" +
         profiles[static_cast<int>(info.param.profile)];
}

/// The combinations the one replay opens: 1 or N proxies, 1 or N clients,
/// and a healthy, flaky or dark origin, all through SkyExperiment::Replay.
class ReplayMatrixTest : public ExperimentSmokeTest,
                         public ::testing::WithParamInterface<MatrixCell> {
 protected:
  static ReplayOptions CellOptions(const MatrixCell& cell) {
    ReplayOptions options;
    options.tier.num_proxies = cell.proxies;
    options.rbe.clients = cell.clients;
    if (cell.profile != Profile::kHealthy) {
      options.tier.proxy.breaker.enabled = true;
      options.tier.proxy.breaker.open_cooldown_micros = 120'000'000;
      options.origin_retry.max_attempts = 3;
      options.origin_retry.base_backoff_micros = 200'000;
      options.origin_retry.max_backoff_micros = 2'000'000;
      options.origin_retry.jitter_seed = 42;
    }
    if (cell.profile == Profile::kFlaky) options.faults = net::FlakyProfile();
    if (cell.profile == Profile::kOutage) {
      options.outage_fractions = {{0.3, 0.3}};
      options.rbe.think_time_micros = 30'000'000;
    }
    return options;
  }
};

TEST_P(ReplayMatrixTest, EveryQueryEndsOnceAndStatsAddUp) {
  const MatrixCell cell = GetParam();
  const Trace trace = Prefix(150);
  const ReplayOptions options = CellOptions(cell);
  const ReplayResult result = experiment_->Replay(trace, options);

  EXPECT_EQ(result.rbe.ok + result.rbe.partial + result.rbe.failed,
            trace.queries.size());
  if (cell.profile == Profile::kHealthy) {
    EXPECT_EQ(result.rbe.failed, 0u);
  }
  ASSERT_EQ(result.per_proxy.size(), cell.proxies);
  for (const core::ProxyStats& proxy : result.per_proxy) {
    EXPECT_EQ(OutcomeSum(proxy), proxy.template_requests);
  }
  EXPECT_EQ(OutcomeSum(result.proxy_stats),
            result.proxy_stats.template_requests);
  EXPECT_EQ(result.proxy_stats.template_requests, trace.queries.size());
  // Siblings never fail each other: an owner whose origin fetch failed
  // answers a clean miss, so a sick origin charges no peer.
  EXPECT_EQ(result.proxy_stats.peer_failures, 0u);
  // The degraded and shed counters count client answers, each once, and
  // none of an owner's answers to its siblings' lookups.
  EXPECT_EQ(result.proxy_stats.degraded_partial, result.rbe.partial);
  EXPECT_EQ(result.proxy_stats.degraded_unavailable + result.proxy_stats.shed,
            result.rbe.shed);

  if (cell.clients == 1) {
    // One client: the virtual clock moves only for the request in flight,
    // so every per-request time repeats bit for bit.
    const ReplayResult again = experiment_->Replay(trace, options);
    ASSERT_EQ(again.rbe.queries.size(), result.rbe.queries.size());
    for (size_t i = 0; i < result.rbe.queries.size(); ++i) {
      EXPECT_EQ(again.rbe.queries[i].response_micros,
                result.rbe.queries[i].response_micros)
          << "query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OneReplay, ReplayMatrixTest,
    ::testing::Values(MatrixCell{1, 1, Profile::kHealthy},
                      MatrixCell{1, 1, Profile::kFlaky},
                      MatrixCell{1, 1, Profile::kOutage},
                      MatrixCell{1, 4, Profile::kHealthy},
                      MatrixCell{1, 4, Profile::kFlaky},
                      MatrixCell{1, 4, Profile::kOutage},
                      MatrixCell{3, 1, Profile::kHealthy},
                      MatrixCell{3, 1, Profile::kFlaky},
                      MatrixCell{3, 1, Profile::kOutage},
                      MatrixCell{3, 4, Profile::kHealthy},
                      MatrixCell{3, 4, Profile::kFlaky},
                      MatrixCell{3, 4, Profile::kOutage}),
    CellName);

// --- Substrate digests -------------------------------------------------------
//
// The DeterministicInSeed tests compare a generator with itself, so they
// cannot see a refactor that changes what it emits. These pin 64-bit FNV-1a
// digests of the experiment substrate's exact bytes (doubles by bit pattern):
// the paper-size catalog, the seed-2004 paper trace, bench_e2e's flash-crowd
// trace and the origin's spatial-index candidate lists. A failure names the
// artefact that drifted; every paper number and bench/e2e metric rests on
// it. The digests assume x86-64 with this repository's compiler flags, which
// allow no FMA contraction: a build that fuses multiply-adds rounds the trig
// differently and will not match.

/// Streaming 64-bit FNV-1a.
class Fnv64 {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddU64(uint64_t v) { Add(&v, sizeof v); }
  void AddDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    AddU64(bits);
  }
  void AddString(std::string_view s) {
    AddU64(s.size());
    Add(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t TableDigest(const sql::Table& table) {
  Fnv64 fnv;
  fnv.AddU64(table.num_rows());
  for (const sql::Row& row : table.rows()) {
    for (const sql::Value& v : row) {
      fnv.AddU64(static_cast<uint64_t>(v.type()));
      switch (v.type()) {
        case sql::ValueType::kInt:
          fnv.AddU64(static_cast<uint64_t>(v.AsInt()));
          break;
        case sql::ValueType::kDouble:
          fnv.AddDouble(v.AsDouble());
          break;
        case sql::ValueType::kBool:
          fnv.AddU64(v.AsBool() ? 1 : 0);
          break;
        case sql::ValueType::kString:
          fnv.AddString(v.AsString());
          break;
        case sql::ValueType::kNull:
          break;
      }
    }
  }
  return fnv.value();
}

uint64_t TraceDigest(const Trace& trace) {
  Fnv64 fnv;
  fnv.AddString(trace.Serialize());
  return fnv.value();
}

/// One paper-size experiment shared by the digest tests; its PhotoPrimary
/// table is GenerateSkyCatalog(SkyExperiment::Options().catalog).
class SubstrateDigestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    experiment_ = new SkyExperiment(SkyExperiment::Options());
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }
  static const sql::ColumnarTable& Catalog() {
    return *experiment_->database()->FindTable("PhotoPrimary");
  }
  /// The seed-2004 Radial configuration bench_e2e builds its traces from:
  /// the experiment's footprint, with the catalog's cluster centers as
  /// hotspots.
  static const RadialTraceConfig& PaperRadialConfig() {
    return experiment_->trace_config();
  }

  static SkyExperiment* experiment_;
};

SkyExperiment* SubstrateDigestTest::experiment_ = nullptr;

TEST_F(SubstrateDigestTest, PaperCatalogCells) {
  ASSERT_EQ(Catalog().num_rows(), 300000u);
  EXPECT_EQ(TableDigest(Catalog().ToTable()), 0x8eaa7c8e345b4ed4ULL)
      << "GenerateSkyCatalog(SkyExperiment::Options().catalog) drifted";
}

TEST_F(SubstrateDigestTest, PaperTrace) {
  ASSERT_EQ(experiment_->trace().queries.size(), 11323u);
  EXPECT_EQ(TraceDigest(experiment_->trace()), 0x5e3a30378cfb7a66ULL)
      << "the seed-2004 SkyExperiment::trace() drifted";
  // bench_e2e's trace 0 is the same trace, built outside the experiment.
  EXPECT_EQ(TraceDigest(GenerateRadialTrace(PaperRadialConfig())),
            TraceDigest(experiment_->trace()));
}

TEST_F(SubstrateDigestTest, FlashCrowdTrace) {
  FlashCrowdTraceConfig crowd;
  crowd.base = PaperRadialConfig();
  crowd.seed = 2004 ^ 0x5eedf1a5ULL;
  crowd.hot_ra = 180.0;
  crowd.hot_dec = 30.0;
  crowd.hot_radius_arcmin = 20.0;
  EXPECT_EQ(TraceDigest(GenerateFlashCrowdTrace(crowd)), 0xe26b0b95d1284fbeULL)
      << "bench_e2e's seed-2004 flash-crowd trace drifted";
}

TEST_F(SubstrateDigestTest, SkyGridCandidates) {
  const server::SkyGrid grid(&Catalog());
  // 21 x 14 window origins x 2 sizes = 588 windows, some reaching past the
  // catalog's footprint (ra 130-230, dec 0-60) on every side.
  Fnv64 fnv;
  size_t windows = 0;
  for (int i = 0; i < 21; ++i) {
    for (int j = 0; j < 14; ++j) {
      for (double size : {0.37, 2.9}) {
        const double ra = 123.5 + 5.3 * i;
        const double dec = -4.25 + 4.9 * j;
        const std::vector<size_t> ids =
            grid.Candidates(ra, ra + size * 1.5, dec, dec + size);
        fnv.AddU64(ids.size());
        for (size_t id : ids) fnv.AddU64(id);
        ++windows;
      }
    }
  }
  ASSERT_EQ(windows, 588u);
  EXPECT_EQ(fnv.value(), 0xadc6e71da957646aULL)
      << "SkyGrid::Candidates drifted";
}

// What the origin answers over the paper catalog, byte for byte: the
// response bodies and the virtual microseconds each request is charged (so
// also tuples_examined), for the paper trace's first 1,000 distinct Radial
// queries and for /sql statements on the executor's other paths: a
// remainder with negated region predicates, a PhotoPrimary scan with TOP
// and ORDER BY, and a nested-loop join. Taken at the parent of the
// columnar base tables.
TEST_F(SubstrateDigestTest, OriginAnswers) {
  util::SimulatedClock clock;
  server::OriginWebApp app(experiment_->database(), &clock,
                           experiment_->options().server_costs);
  ASSERT_TRUE(app.RegisterForm("/radial", kRadialTemplateSql).ok());
  Fnv64 fnv;
  size_t lines = 0;
  auto answer = [&](const net::HttpRequest& request) {
    const int64_t before = clock.NowMicros();
    const net::HttpResponse response = app.Handle(request);
    fnv.AddU64(static_cast<uint64_t>(response.status_code));
    fnv.AddString(response.body);
    fnv.AddU64(static_cast<uint64_t>(clock.NowMicros() - before));
    lines += static_cast<size_t>(
        std::count(response.body.begin(), response.body.end(), '\n'));
    return response.status_code;
  };

  const Trace& trace = experiment_->trace();
  std::set<std::map<std::string, std::string>> seen;
  for (const TraceQuery& query : trace.queries) {
    if (!seen.insert(query.params).second) continue;
    ASSERT_EQ(answer(MakeRequest(trace, query)), 200);
    if (seen.size() == 1000) break;
  }
  ASSERT_EQ(seen.size(), 1000u);

  // The nested loop's outer side: the objects within 0.2 arcmin of the
  // catalog's first object (the object itself, at least).
  const std::string near_first =
      std::string("fGetNearbyObjEq(") +
      util::FormatDouble(Catalog().CellDouble(0, 1)) + ", " +
      util::FormatDouble(Catalog().CellDouble(0, 2)) + ", 0.2)";
  const std::string statements[] = {
      "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z "
      "FROM fGetNearbyObjEq(185.0, 33.0, 25.0) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID "
      "WHERE (p.flags & fPhotoFlags('SATURATED')) = 0 "
      "AND NOT (((p.cx - -0.834876602419) * (p.cx - -0.834876602419) + "
      "(p.cy - -0.074510751735) * (p.cy - -0.074510751735) + "
      "(p.cz - 0.545370705676) * (p.cz - 0.545370705676)) <= "
      "8.46158902753e-06) "
      "AND NOT (((p.cx - -0.836078707377) * (p.cx - -0.836078707377) + "
      "(p.cy - -0.071677229729) * (p.cy - -0.071677229729) + "
      "(p.cz - 0.543906949587) * (p.cz - 0.543906949587)) <= "
      "5.41541835231e-06)",
      "SELECT TOP 40 * FROM PhotoPrimary "
      "WHERE ra BETWEEN 180.0 AND 185.0 AND dec BETWEEN 30.0 AND 35.0 "
      "ORDER BY r DESC",
      std::string("SELECT n.objID, n.distance, p.objID, p.r, p.flags FROM ") +
          near_first +
          " AS n JOIN PhotoPrimary AS p "
          "ON p.objID BETWEEN n.objID - 1 AND n.objID + 1",
  };
  for (const std::string& statement : statements) {
    net::HttpRequest request;
    request.path = "/sql";
    request.query_params["q"] = statement;
    ASSERT_EQ(answer(request), 200) << statement;
  }
  EXPECT_GT(lines, 10000u);
  EXPECT_EQ(fnv.value(), 0x11b4bdddb13a0ffdULL)
      << "the origin's answers drifted";
}

// The catalog derives its rows in chunks of 8192 objects on a pool, so
// these pin configurations beyond the paper's: no clusters, clustering off
// and all-clustered, and sizes below, at and across chunk boundaries. Every
// digest was taken at the parent of the chunked generator.
TEST_F(SubstrateDigestTest, CatalogVariants) {
  struct Case {
    const char* name;
    size_t objects;
    size_t clusters;
    double cluster_fraction;
    uint64_t digest;
  };
  const Case cases[] = {
      {"no clusters", 20000, 0, 0.75, 0x19b6382df33f351eULL},
      {"cluster_fraction 0", 20000, 40, 0.0, 0x7cf1512f6b8c6e2cULL},
      {"cluster_fraction 1", 20000, 40, 1.0, 0xe1cc74855a31aa60ULL},
      {"empty", 0, 40, 0.75, 0xa8c7f832281a39c5ULL},
      {"one object", 1, 40, 0.75, 0xc78e696ff139a6caULL},
      {"under one chunk", 5000, 40, 0.75, 0x583001d371a60cb8ULL},
      {"one chunk", 8192, 40, 0.75, 0x240873efa7c95698ULL},
      {"one chunk and one", 8193, 40, 0.75, 0x1667840a595f3d89ULL},
      {"ragged", 100003, 40, 0.75, 0xea463f3cd04fc738ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    catalog::SkyCatalogConfig config = SkyExperiment::Options().catalog;
    config.num_objects = c.objects;
    config.num_clusters = c.clusters;
    config.cluster_fraction = c.cluster_fraction;
    const sql::Table table = catalog::GenerateSkyCatalog(config).ToTable();
    ASSERT_EQ(table.num_rows(), c.objects);
    EXPECT_EQ(TableDigest(table), c.digest);
  }
}

// A small footprint and a long trace: most fresh queries find no disjoint
// spot and take the label path, whose first non-disjoint cone names the
// label.
TEST_F(SubstrateDigestTest, DenseSkyTrace) {
  RadialTraceConfig config;
  config.num_queries = 4000;
  config.ra_min = 180.0;
  config.ra_max = 184.0;
  config.dec_min = 30.0;
  config.dec_max = 34.0;
  config.seed = 9;
  const Trace trace = GenerateRadialTrace(config);
  ASSERT_EQ(trace.queries.size(), 4000u);
  // About 40% of the queries are fresh; nearly all of them land on cones
  // already there.
  EXPECT_LT(trace.IntendedFraction(RegionRelation::kDisjoint), 0.05);
  EXPECT_EQ(TraceDigest(trace), 0x2d9d7021c74928a5ULL)
      << "the dense-sky GenerateRadialTrace drifted";
}

TEST_F(SubstrateDigestTest, FlashCrowdTraceSecondSeed) {
  FlashCrowdTraceConfig crowd;
  crowd.base = PaperRadialConfig();
  crowd.base.seed = 1;
  crowd.seed = 1 ^ 0x5eedf1a5ULL;
  crowd.hot_ra = 180.0;
  crowd.hot_dec = 30.0;
  crowd.hot_radius_arcmin = 20.0;
  EXPECT_EQ(TraceDigest(GenerateFlashCrowdTrace(crowd)),
            0xaa5265780944ef0eULL)
      << "bench_e2e's seed-1 flash-crowd trace drifted";
}

// `trace_tool gen-paper` writes the experiment's own trace, the one
// PaperTrace pins, query for query.
TEST_F(SubstrateDigestTest, GenPaperWritesTheExperimentTrace) {
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) / "gen_paper_2004.trace";
  const std::string command = std::string(FNPROXY_TRACE_TOOL) +
                              " gen-paper '" + path.string() + "' > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  const util::StatusOr<Trace> file = Trace::Deserialize(text.str());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const Trace& trace = experiment_->trace();
  EXPECT_EQ(file->form_path, trace.form_path);
  ASSERT_EQ(file->queries.size(), trace.queries.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < trace.queries.size(); ++i) {
    if (file->queries[i].params != trace.queries[i].params ||
        file->queries[i].intended != trace.queries[i].intended) {
      ADD_FAILURE_AT(__FILE__, __LINE__) << "query " << i << " differs";
      if (++mismatches == 5) break;
    }
  }
}

// trace() is built on its first call; concurrent first calls must build it
// once and all see the same trace (run under TSan in CI).
TEST(SkyExperimentTest, ConcurrentFirstTraceCallsAgree) {
  SkyExperiment::Options options;
  options.catalog.num_objects = 2000;
  options.trace.num_queries = 300;
  const SkyExperiment experiment(options);
  constexpr int kThreads = 8;
  std::vector<const Trace*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { seen[t] = &experiment.trace(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Trace* trace : seen) EXPECT_EQ(trace, seen[0]);
  EXPECT_EQ(seen[0]->queries.size(), 300u);
  EXPECT_EQ(seen[0]->Serialize(), SkyExperiment(options).trace().Serialize());
}

}  // namespace
}  // namespace fnproxy::workload
