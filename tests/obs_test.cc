#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "workload/experiment.h"

namespace fnproxy::obs {
namespace {

using Histogram = obs::Histogram;

// ---------------------------------------------------------------------------
// Histogram bucket boundaries.
// ---------------------------------------------------------------------------

TEST(HistogramBucketsTest, BoundariesArePowersOfTwo) {
  for (size_t i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketUpperBoundMicros(i), int64_t{1} << i);
  }
  EXPECT_EQ(Histogram::BucketUpperBoundMicros(0), 1);
  EXPECT_EQ(Histogram::BucketUpperBoundMicros(24), 16'777'216);
}

TEST(HistogramBucketsTest, IndexMatchesHalfOpenIntervals) {
  // Bucket i covers (2^(i-1), 2^i]; values <= 1 land in bucket 0 and values
  // beyond the top finite bound in the overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  for (size_t i = 1; i < Histogram::kNumFiniteBuckets; ++i) {
    int64_t bound = Histogram::BucketUpperBoundMicros(i);
    EXPECT_EQ(Histogram::BucketIndex(bound), i) << "at bound " << bound;
    EXPECT_EQ(Histogram::BucketIndex(bound + 1), i + 1)
        << "just past bound " << bound;
  }
  // Far past the largest finite bound: overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 40),
            Histogram::kNumFiniteBuckets);
}

TEST(HistogramBucketsTest, EveryObservationLandsInExactlyOneBucket) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(17);
  h.Observe(-5);  // Clamped to 0.
  h.Observe(int64_t{1} << 30);
  Histogram::Snapshot snap = h.snapshot();
  uint64_t total = 0;
  for (uint64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.buckets[0], 3u);  // 0, 1 and the clamped -5.
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(17)], 1u);
  EXPECT_EQ(snap.buckets[Histogram::kNumFiniteBuckets], 1u);
}

// ---------------------------------------------------------------------------
// Quantile extraction against a sorted-vector oracle.
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of `sorted`, resolved to the bucket upper bound the
/// histogram must report: the smallest bound >= the oracle value.
int64_t OracleQuantileBound(const std::vector<int64_t>& sorted, double q) {
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  int64_t value = sorted[rank - 1];
  return Histogram::BucketUpperBoundMicros(Histogram::BucketIndex(value));
}

TEST(HistogramQuantileTest, MatchesSortedVectorOracle) {
  Histogram h;
  std::vector<int64_t> values;
  // Deterministic LCG spanning several decades of microseconds.
  uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    int64_t v = static_cast<int64_t>((state >> 33) % 2'000'000);
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  Histogram::Snapshot snap = h.snapshot();
  for (double q : {0.0, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(snap.QuantileUpperBoundMicros(q), OracleQuantileBound(values, q))
        << "at q=" << q;
  }
}

TEST(HistogramQuantileTest, ExactSmallDistribution) {
  Histogram h;
  // Ten observations: eight fast (<= 4 us), two slow (~1 ms).
  for (int i = 0; i < 8; ++i) h.Observe(3);
  h.Observe(900);
  h.Observe(1000);
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 10u);
  EXPECT_EQ(snap.QuantileUpperBoundMicros(0.50), 4);     // rank 5 -> bucket (2,4]
  EXPECT_EQ(snap.QuantileUpperBoundMicros(0.80), 4);     // rank 8
  EXPECT_EQ(snap.QuantileUpperBoundMicros(0.90), 1024);  // rank 9 -> (512,1024]
  EXPECT_EQ(snap.QuantileUpperBoundMicros(0.99), 1024);  // rank 10
}

TEST(HistogramQuantileTest, OverflowReportsOneDoubingPastScale) {
  Histogram h;
  h.Observe(int64_t{1} << 30);  // Beyond the 2^29 top finite bound.
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.QuantileUpperBoundMicros(1.0),
            Histogram::BucketUpperBoundMicros(Histogram::kNumFiniteBuckets));
}

TEST(HistogramQuantileTest, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(h.snapshot().QuantileUpperBoundMicros(0.99), 0);
}

// ---------------------------------------------------------------------------
// Concurrent recording.
// ---------------------------------------------------------------------------

TEST(MetricsConcurrencyTest, EightThreadsPreserveSumInvariants) {
  MetricsRegistry registry;
  Counter* counter = registry.AddCounter("test_ops_total", "ops");
  Histogram* histogram = registry.AddHistogram("test_latency_micros", "lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Observe((t * kPerThread + i) % 4096);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  Histogram::Snapshot snap = histogram->snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  // Every thread observed each residue of 0..4095 the same number of times,
  // so the exact sum is computable.
  int64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += (t * kPerThread + i) % 4096;
    }
  }
  EXPECT_EQ(snap.sum_micros, expected_sum);
}

// ---------------------------------------------------------------------------
// Prometheus text format (golden).
// ---------------------------------------------------------------------------

TEST(PrometheusRenderTest, GoldenOutput) {
  MetricsRegistry registry;
  Counter* hits = registry.AddCounter("test_hits_total", "Cache hits",
                                      {{"kind", "exact"}});
  hits->Increment(3);
  Gauge* depth = registry.AddGauge("test_queue_depth", "Queue depth");
  depth->Set(2.5);
  Histogram* lat = registry.AddHistogram("test_lat_micros", "Latency");
  lat->Observe(1);
  lat->Observe(3);
  lat->Observe(int64_t{1} << 30);
  registry.AddCallback("test_cb_total", "Callback counter",
                       /*is_counter=*/true, {{"src", "a\\b\"c\nd"}},
                       [] { return 7.0; });

  std::string expected =
      "# HELP test_hits_total Cache hits\n"
      "# TYPE test_hits_total counter\n"
      "test_hits_total{kind=\"exact\"} 3\n"
      "# HELP test_queue_depth Queue depth\n"
      "# TYPE test_queue_depth gauge\n"
      "test_queue_depth 2.5\n"
      "# HELP test_lat_micros Latency\n"
      "# TYPE test_lat_micros histogram\n";
  // 30 finite buckets: cumulative 1 at le=1, 2 from le=4 on, then +Inf 3.
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
    if (i == 0) cumulative = 1;
    if (i == 2) cumulative = 2;
    expected += std::string("test_lat_micros_bucket{le=\"") +
                std::to_string(Histogram::BucketUpperBoundMicros(i)) + "\"} " +
                std::to_string(cumulative) + "\n";
  }
  expected += "test_lat_micros_bucket{le=\"+Inf\"} 3\n";
  expected += std::string("test_lat_micros_sum ") +
              std::to_string(4 + (int64_t{1} << 30)) + "\n";
  expected += "test_lat_micros_count 3\n";
  expected +=
      "# HELP test_cb_total Callback counter\n"
      "# TYPE test_cb_total counter\n"
      "test_cb_total{src=\"a\\\\b\\\"c\\nd\"} 7\n";

  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(PrometheusRenderTest, FamiliesShareOneHeader) {
  MetricsRegistry registry;
  registry.AddCounter("test_family_total", "Family", {{"k", "a"}});
  registry.AddCounter("test_family_total", "Family", {{"k", "b"}});
  std::string text = registry.RenderPrometheus();
  EXPECT_EQ(text.find("# TYPE test_family_total counter"),
            text.rfind("# TYPE test_family_total counter"));
  EXPECT_NE(text.find("test_family_total{k=\"a\"} 0"), std::string::npos);
  EXPECT_NE(text.find("test_family_total{k=\"b\"} 0"), std::string::npos);
}

TEST(PhaseBreakdownTest, SummarizesLabelledFamily) {
  MetricsRegistry registry;
  Histogram* a = registry.AddHistogram("test_phase_micros", "Phases",
                                       {{"phase", "parse"}});
  Histogram* b = registry.AddHistogram("test_phase_micros", "Phases",
                                       {{"phase", "merge"}});
  a->Observe(10);
  a->Observe(20);
  b->Observe(1000);
  auto rows = PhaseBreakdownFromRegistry(registry, "test_phase_micros");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].phase, "parse");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].total_micros, 30);
  EXPECT_EQ(rows[1].phase, "merge");
  EXPECT_EQ(rows[1].p99_micros, 1024);
}

// ---------------------------------------------------------------------------
// Traces: span nesting, JSON shape, ring wraparound.
// ---------------------------------------------------------------------------

TEST(QueryTraceTest, SpansNestViaParentIndices) {
  QueryTrace trace(7, "/radial");
  size_t root = trace.BeginSpan("request", 100);
  size_t child = trace.BeginSpan("cache_lookup", 110);
  trace.EndSpan(child, 150);
  size_t sibling = trace.BeginSpan("serialize", 160);
  trace.EndSpan(sibling, 170);
  trace.EndSpan(root, 200);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].parent, -1);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_EQ(trace.spans()[2].parent, 0);
  EXPECT_EQ(trace.spans()[1].virtual_start_micros, 110);
  EXPECT_EQ(trace.spans()[1].virtual_end_micros, 150);
}

TEST(QueryTraceTest, JsonShape) {
  QueryTrace trace(42, "/radial");
  trace.AddAttr("mode", "AC-full");
  size_t root = trace.BeginSpan("request", 0);
  trace.AddSpanAttr(root, "status", "200");
  trace.EndSpan(root, 50);
  std::string json;
  trace.AppendJson(&json);
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"/radial\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"AC-full\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"virtual_start_us\":0"), std::string::npos);
  EXPECT_NE(json.find("\"virtual_end_us\":50"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"200\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ScopedSpanTest, NullTraceStillFeedsHistogram) {
  Histogram h;
  util::SimulatedClock clock;
  {
    ScopedSpan span(nullptr, "work", &clock, &h);
    clock.Advance(500);
  }
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum_micros, 500);
}

TEST(TraceRingTest, WrapsAroundKeepingNewestOldestFirst) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Push(std::make_shared<QueryTrace>(i, "/q"));
  }
  EXPECT_EQ(ring.total_pushed(), 10u);
  auto last = ring.Last(100);
  ASSERT_EQ(last.size(), 4u);
  EXPECT_EQ(last[0]->id(), 6u);
  EXPECT_EQ(last[1]->id(), 7u);
  EXPECT_EQ(last[2]->id(), 8u);
  EXPECT_EQ(last[3]->id(), 9u);
  auto last_two = ring.Last(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[0]->id(), 8u);
  EXPECT_EQ(last_two[1]->id(), 9u);
}

TEST(TraceRingTest, PartialFillAndZeroCapacity) {
  TraceRing ring(8);
  ring.Push(std::make_shared<QueryTrace>(0, "/q"));
  ring.Push(std::make_shared<QueryTrace>(1, "/q"));
  auto last = ring.Last(5);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0]->id(), 0u);
  EXPECT_EQ(last[1]->id(), 1u);

  TraceRing disabled(0);
  disabled.Push(std::make_shared<QueryTrace>(9, "/q"));
  EXPECT_EQ(disabled.total_pushed(), 0u);
  EXPECT_TRUE(disabled.Last(4).empty());
}

// ---------------------------------------------------------------------------
// Proxy endpoints: /metrics and /proxy/trace.
// ---------------------------------------------------------------------------

class ObsEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog::SkyCatalogConfig config;
    config.num_objects = 4000;
    config.num_clusters = 4;
    config.seed = 7;
    config.ra_min = 175.0;
    config.ra_max = 205.0;
    config.dec_min = 25.0;
    config.dec_max = 50.0;
    db_ = std::make_unique<server::Database>();
    db_->AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(config));
    grid_ = std::make_unique<server::SkyGrid>(db_->FindTable("PhotoPrimary"));
    db_->RegisterTableFunction(server::MakeGetNearbyObjEq(grid_.get()));
    db_->scalar_functions()->Register(
        "fPhotoFlags",
        [](const std::vector<sql::Value>& args)
            -> util::StatusOr<sql::Value> {
          FNPROXY_ASSIGN_OR_RETURN(
              int64_t bit, catalog::PhotoFlagValue(args.at(0).AsString()));
          return sql::Value::Int(bit);
        });
    templates_ = std::make_unique<core::TemplateRegistry>();
    ASSERT_TRUE(templates_
                    ->RegisterFunctionTemplateXml(
                        workload::kNearbyObjEqTemplateXml)
                    .ok());
    auto qt = core::QueryTemplate::Create("radial", "/radial",
                                          workload::kRadialTemplateSql);
    ASSERT_TRUE(qt.ok());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*qt)).ok());
    clock_ = std::make_unique<util::SimulatedClock>();
    app_ = std::make_unique<server::OriginWebApp>(db_.get(), clock_.get());
    ASSERT_TRUE(
        app_->RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    channel_ = std::make_unique<net::SimulatedChannel>(
        app_.get(), net::LinkConfig{0.0, 1e9}, clock_.get());
    core::ProxyConfig proxy_config;
    proxy_config.mode = core::CachingMode::kActiveFull;
    proxy_config.trace_ring_capacity = 8;
    proxy_ = std::make_unique<core::FunctionProxy>(
        proxy_config, templates_.get(), channel_.get(), clock_.get());
  }

  net::HttpRequest Radial(double ra, double dec, double radius) {
    net::HttpRequest request;
    request.path = "/radial";
    request.query_params["ra"] = std::to_string(ra);
    request.query_params["dec"] = std::to_string(dec);
    request.query_params["radius"] = std::to_string(radius);
    return request;
  }

  std::unique_ptr<server::Database> db_;
  std::unique_ptr<server::SkyGrid> grid_;
  std::unique_ptr<core::TemplateRegistry> templates_;
  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<server::OriginWebApp> app_;
  std::unique_ptr<net::SimulatedChannel> channel_;
  std::unique_ptr<core::FunctionProxy> proxy_;
};

TEST_F(ObsEndpointTest, MetricsEndpointRendersPrometheusText) {
  ASSERT_TRUE(proxy_->Handle(Radial(190.0, 35.0, 20.0)).ok());  // miss
  ASSERT_TRUE(proxy_->Handle(Radial(190.0, 35.0, 20.0)).ok());  // exact hit

  net::HttpRequest scrape;
  scrape.path = "/metrics";
  net::HttpResponse response = proxy_->Handle(scrape);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4");
  const std::string& text = response.body;
  EXPECT_NE(text.find("# TYPE fnproxy_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fnproxy_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find("fnproxy_cache_outcomes_total{outcome=\"exact_hit\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fnproxy_cache_outcomes_total{outcome=\"miss\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fnproxy_request_duration_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("fnproxy_request_duration_micros_count 2"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "fnproxy_phase_duration_micros_count{phase=\"cache_lookup\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("fnproxy_region_compare_micros"), std::string::npos);
  EXPECT_NE(text.find("fnproxy_cache_entries 1"), std::string::npos);
  // The scrape itself is not counted as query traffic.
  EXPECT_EQ(proxy_->stats().requests, 2u);
}

TEST_F(ObsEndpointTest, StatsAndMetricsAgree) {
  for (int i = 0; i < 3; ++i) {
    net::HttpResponse r = proxy_->Handle(Radial(190.0 + i, 35.0, 15.0));
    ASSERT_TRUE(r.ok()) << r.status_code << " " << r.body;
  }
  core::ProxyStats stats = proxy_->stats();
  net::HttpRequest scrape;
  scrape.path = "/metrics";
  std::string text = proxy_->Handle(scrape).body;
  EXPECT_NE(text.find(std::string("fnproxy_requests_total ") +
                      std::to_string(stats.requests)),
            std::string::npos);
  EXPECT_NE(
      text.find(std::string("fnproxy_cache_outcomes_total{outcome=\"miss\"} ") +
                std::to_string(stats.misses)),
      std::string::npos);
  EXPECT_NE(
      text.find(
          std::string("fnproxy_origin_requests_total{endpoint=\"form\"} ") +
          std::to_string(stats.origin_form_requests)),
      std::string::npos);
}

TEST_F(ObsEndpointTest, TraceEndpointReturnsSpanTrees) {
  ASSERT_TRUE(proxy_->Handle(Radial(190.0, 35.0, 20.0)).ok());
  ASSERT_TRUE(proxy_->Handle(Radial(190.0, 35.0, 20.0)).ok());

  net::HttpRequest get_traces;
  get_traces.path = "/proxy/trace";
  get_traces.query_params["last"] = "1";
  net::HttpResponse response = proxy_->Handle(get_traces);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.content_type, "application/json");
  const std::string& body = response.body;
  EXPECT_EQ(body.front(), '[');
  // The newest trace is the exact hit: cache_lookup but no origin trip.
  EXPECT_NE(body.find("\"trace_id\":1"), std::string::npos);
  EXPECT_EQ(body.find("\"trace_id\":0"), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"template_match\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"cache_lookup\""), std::string::npos);
  EXPECT_NE(body.find("\"relation\":\"equal\""), std::string::npos);
  EXPECT_EQ(body.find("\"name\":\"origin_roundtrip\""), std::string::npos);

  net::HttpRequest bad;
  bad.path = "/proxy/trace";
  bad.query_params["last"] = "nope";
  EXPECT_EQ(proxy_->Handle(bad).status_code, 400);
  // Past 2^64 - 1 is out of range, not a wrapped count: 2^64 used to read
  // as last=0 (200, no trace) and 2^64 + 1 as last=1 (200, one trace).
  for (const char* huge : {"18446744073709551616", "18446744073709551617"}) {
    bad.query_params["last"] = huge;
    EXPECT_EQ(proxy_->Handle(bad).status_code, 400) << huge;
  }
}

TEST_F(ObsEndpointTest, TraceSinkReceivesCompletedTraces) {
  class CountingSink : public TraceSink {
   public:
    void Consume(const QueryTrace& trace) override {
      ++consumed;
      last_spans = trace.spans().size();
    }
    int consumed = 0;
    size_t last_spans = 0;
  };
  CountingSink sink;
  core::ProxyConfig proxy_config;
  proxy_config.mode = core::CachingMode::kActiveFull;
  proxy_config.trace_sink = &sink;
  auto proxy = std::make_unique<core::FunctionProxy>(
      proxy_config, templates_.get(), channel_.get(), clock_.get());
  ASSERT_TRUE(proxy->Handle(Radial(191.0, 36.0, 18.0)).ok());
  EXPECT_EQ(sink.consumed, 1);
  EXPECT_GE(sink.last_spans, 3u);  // request, template_match, cache_lookup...
}

}  // namespace
}  // namespace fnproxy::obs
