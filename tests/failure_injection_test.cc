// Failure injection: the origin site misbehaves (intermittent 500s, SQL
// facility outages, malformed payloads) and the proxy must degrade cleanly —
// propagate errors without caching garbage, and recover on the next healthy
// response.

#include <gtest/gtest.h>

#include <memory>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/fault.h"
#include "net/network.h"
#include "proxy_test_util.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "workload/experiment.h"

namespace fnproxy {
namespace {

using net::HttpRequest;
using net::HttpResponse;

/// Wraps the origin app, failing requests on demand.
class FlakyOrigin final : public net::HttpHandler {
 public:
  explicit FlakyOrigin(net::HttpHandler* inner) : inner_(inner) {}

  HttpResponse Handle(const HttpRequest& request) override {
    ++requests_;
    switch (mode_) {
      case Mode::kHealthy:
        return inner_->Handle(request);
      case Mode::kServerError:
        return HttpResponse::MakeError(500, "injected failure");
      case Mode::kGarbageBody: {
        HttpResponse response;
        response.body = "this is not XML at all <<<";
        return response;
      }
      case Mode::kConnectionDrop:
        return net::FaultInjector::MakeDrop();
      case Mode::kTimeout:
        return net::FaultInjector::MakeTimeout();
      case Mode::kOutage:
        // A scripted hard outage: drops until the window closes.
        if (clock_ != nullptr && clock_->NowMicros() >= outage_end_micros_) {
          return inner_->Handle(request);
        }
        return net::FaultInjector::MakeDrop();
      case Mode::kSqlOnlyFails:
        if (request.path == "/sql") {
          return HttpResponse::MakeError(500, "sql facility down");
        }
        return inner_->Handle(request);
    }
    return HttpResponse::MakeError(500, "unreachable");
  }

  enum class Mode {
    kHealthy,
    kServerError,
    kGarbageBody,
    kConnectionDrop,
    kTimeout,
    kOutage,
    kSqlOnlyFails,
  };
  /// Enters kOutage mode: every request before `end_micros` on `clock` is
  /// dropped, later ones are healthy again.
  void StartOutage(util::SimulatedClock* clock, int64_t end_micros) {
    mode_ = Mode::kOutage;
    clock_ = clock;
    outage_end_micros_ = end_micros;
  }
  void set_mode(Mode mode) { mode_ = mode; }
  uint64_t requests() const { return requests_; }

 private:
  net::HttpHandler* inner_;
  Mode mode_ = Mode::kHealthy;
  util::SimulatedClock* clock_ = nullptr;
  int64_t outage_end_micros_ = 0;
  uint64_t requests_ = 0;
};

class FailureInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 10000;
    config.seed = 4711;
    config.ra_min = 178.0;
    config.ra_max = 192.0;
    config.dec_min = 28.0;
    config.dec_max = 40.0;
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
    templates_ = new core::TemplateRegistry();
    ASSERT_TRUE(templates_
                    ->RegisterFunctionTemplateXml(
                        workload::kNearbyObjEqTemplateXml)
                    .ok());
    auto qt = core::QueryTemplate::Create("radial", "/radial",
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
    ASSERT_TRUE(app_->RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    flaky_ = std::make_unique<FlakyOrigin>(app_.get());
    channel_ = std::make_unique<net::SimulatedChannel>(
        flaky_.get(), net::LinkConfig{0.0, 1e9}, clock_.get());
    proxy_ = std::make_unique<core::FunctionProxy>(
        core::ProxyConfig{}, templates_, channel_.get(), clock_.get());
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
  static core::TemplateRegistry* templates_;

  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<server::OriginWebApp> app_;
  std::unique_ptr<FlakyOrigin> flaky_;
  std::unique_ptr<net::SimulatedChannel> channel_;
  std::unique_ptr<core::FunctionProxy> proxy_;
};

server::Database* FailureInjectionTest::db_ = nullptr;
server::SkyGrid* FailureInjectionTest::grid_ = nullptr;
core::TemplateRegistry* FailureInjectionTest::templates_ = nullptr;

TEST_F(FailureInjectionTest, OriginErrorPropagatedAndNotCached) {
  flaky_->set_mode(FlakyOrigin::Mode::kServerError);
  HttpResponse response = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(proxy_->cache().num_entries(), 0u);

  // Recovery: next healthy response is served and cached.
  flaky_->set_mode(FlakyOrigin::Mode::kHealthy);
  HttpResponse healthy = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_TRUE(healthy.ok());
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
  EXPECT_TRUE(sql::TableFromXml(healthy.body).ok());
}

TEST_F(FailureInjectionTest, GarbageBodyNotCached) {
  flaky_->set_mode(FlakyOrigin::Mode::kGarbageBody);
  HttpResponse response = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_FALSE(response.ok());  // Surfaced as a gateway error.
  EXPECT_EQ(proxy_->cache().num_entries(), 0u);
}

TEST_F(FailureInjectionTest, PassiveModeDoesNotCacheErrors) {
  core::ProxyConfig config;
  config.mode = core::CachingMode::kPassive;
  core::FunctionProxy passive(config, templates_, channel_.get(), clock_.get());
  flaky_->set_mode(FlakyOrigin::Mode::kServerError);
  EXPECT_FALSE(passive.Handle(Radial(185, 33, 20)).ok());
  flaky_->set_mode(FlakyOrigin::Mode::kHealthy);
  // The error was not cached: the healthy retry reaches the origin and
  // returns real data.
  HttpResponse healthy = passive.Handle(Radial(185, 33, 20));
  EXPECT_TRUE(healthy.ok());
  EXPECT_TRUE(sql::TableFromXml(healthy.body).ok());
}

TEST_F(FailureInjectionTest, SqlOutageFallsBackToOriginalQuery) {
  proxy_->Handle(Radial(185, 33, 20));
  ASSERT_EQ(proxy_->cache().num_entries(), 1u);
  flaky_->set_mode(FlakyOrigin::Mode::kSqlOnlyFails);
  // Overlap would normally use /sql; with it failing, the proxy falls back
  // to forwarding the original form query and the answer is still correct.
  HttpRequest overlapping = Radial(185.5, 33, 20);
  HttpResponse response = proxy_->Handle(overlapping);
  EXPECT_TRUE(response.ok()) << response.body;
  EXPECT_EQ(proxy_->stats().overlaps_handled, 0u);

  util::SimulatedClock scratch;
  server::OriginWebApp reference(db_, &scratch);
  ASSERT_TRUE(
      reference.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
  HttpResponse expected = reference.Handle(overlapping);
  auto got = sql::TableFromXml(response.body);
  auto want = sql::TableFromXml(expected.body);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->num_rows(), want->num_rows());
}

TEST_F(FailureInjectionTest, ConnectionDropSurfacedAndNotCached) {
  flaky_->set_mode(FlakyOrigin::Mode::kConnectionDrop);
  HttpResponse response = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_FALSE(response.ok());
  // Degraded mode turns an unreachable origin with an empty cache into a
  // 503 with retry guidance, not a bare gateway error.
  EXPECT_EQ(response.status_code, 503);
  EXPECT_EQ(response.headers.count("Retry-After"), 1u);
  EXPECT_EQ(proxy_->cache().num_entries(), 0u);
  EXPECT_EQ(proxy_->stats().origin_failures, 1u);

  flaky_->set_mode(FlakyOrigin::Mode::kHealthy);
  HttpResponse healthy = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_TRUE(healthy.ok());
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
}

TEST_F(FailureInjectionTest, TimeoutSurfacedAndNotCached) {
  flaky_->set_mode(FlakyOrigin::Mode::kTimeout);
  HttpResponse response = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(proxy_->cache().num_entries(), 0u);
  const auto record = proxy_->stats().records.back();
  EXPECT_TRUE(record.failed);
  EXPECT_DOUBLE_EQ(record.CacheEfficiency(), 0.0);
}

TEST_F(FailureInjectionTest, PassiveModeDoesNotCacheGarbage) {
  core::ProxyConfig config;
  config.mode = core::CachingMode::kPassive;
  core::FunctionProxy passive(config, templates_, channel_.get(), clock_.get());
  flaky_->set_mode(FlakyOrigin::Mode::kGarbageBody);
  // PC runs the active proxy's origin path: a 200 whose body does not parse
  // is a failed origin trip, answered with a 503...
  HttpResponse garbage = passive.Handle(Radial(185, 33, 20));
  EXPECT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status_code, 503);
  EXPECT_EQ(passive.cache().num_entries(), 0u);

  // ...and the unparseable body is never admitted: the same URL goes back
  // to the (now healthy) origin instead of replaying the garbage.
  flaky_->set_mode(FlakyOrigin::Mode::kHealthy);
  uint64_t before = channel_->total_requests();
  HttpResponse healthy = passive.Handle(Radial(185, 33, 20));
  EXPECT_TRUE(healthy.ok());
  EXPECT_EQ(channel_->total_requests(), before + 1);
  EXPECT_TRUE(sql::TableFromXml(healthy.body).ok());
}

TEST_F(FailureInjectionTest, RetriesExhaustedSurfaceAsUnavailable) {
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_micros = 100'000;
  policy.jitter_seed = 5;
  channel_->set_retry_policy(policy);
  flaky_->set_mode(FlakyOrigin::Mode::kConnectionDrop);

  HttpResponse response = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(channel_->retry_stats().retries, 2u);
  EXPECT_EQ(proxy_->stats().origin_retries, 2u);
  EXPECT_EQ(proxy_->stats().origin_failures, 1u);
  EXPECT_EQ(proxy_->cache().num_entries(), 0u);
}

// The acceptance scenario: during a scripted outage the full semantic proxy
// keeps serving subsumed queries from the cache, answers overlapping queries
// partially with an honest coverage fraction, refuses disjoint queries with
// 503 + Retry-After — and the tunneling/passive proxies fail all of them.
TEST_F(FailureInjectionTest, DegradedModeServesFromCacheDuringOutage) {
  core::ProxyConfig config;
  config.mode = core::CachingMode::kActiveFull;
  config.breaker.enabled = true;
  config.breaker.window_size = 4;
  config.breaker.min_samples = 4;
  config.breaker.failure_threshold = 0.5;
  config.breaker.open_cooldown_micros = 60'000'000;
  config.breaker.half_open_successes = 1;
  core::FunctionProxy active(config, templates_, channel_.get(), clock_.get());

  // Warm the cache, then the origin goes dark.
  ASSERT_TRUE(active.Handle(Radial(185, 33, 20)).ok());
  ASSERT_EQ(active.cache().num_entries(), 1u);
  flaky_->StartOutage(clock_.get(), clock_->NowMicros() + 300'000'000);

  // Failing misses trip the breaker: the warm success plus three failures
  // fill the 4-wide window at 75% >= 50%, so the fourth miss is already
  // rejected without a round trip.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(active.Handle(Radial(179.0 + 0.5 * i, 29, 5)).ok());
  }
  ASSERT_EQ(active.breaker().state(), net::BreakerState::kOpen);
  EXPECT_EQ(active.stats().origin_failures, 3u);
  EXPECT_GE(active.stats().breaker_open_rejections, 1u);

  // Subsumed query: answered fully from the cache, no origin round trip.
  uint64_t wire_before = channel_->total_requests();
  HttpResponse subsumed = active.Handle(Radial(185, 33, 10));
  EXPECT_TRUE(subsumed.ok());
  EXPECT_EQ(channel_->total_requests(), wire_before);
  auto subsumed_attrs = sql::ResultAttrsFromXml(subsumed.body);
  ASSERT_TRUE(subsumed_attrs.ok());
  EXPECT_FALSE(subsumed_attrs->partial);
  EXPECT_GE(active.stats().degraded_full, 1u);

  // Overlapping query: the cached portion is served, marked partial with a
  // coverage fraction strictly between 0 and 1. The open breaker refuses
  // the remainder once, with no wire request; the refusal does not fall
  // back to the original query, which the breaker would refuse again.
  const uint64_t rejections_before = active.stats().breaker_open_rejections;
  wire_before = channel_->total_requests();
  HttpResponse overlap = active.Handle(Radial(185.4, 33, 20));
  EXPECT_TRUE(overlap.ok()) << overlap.body;
  EXPECT_EQ(active.stats().breaker_open_rejections, rejections_before + 1);
  EXPECT_EQ(channel_->total_requests(), wire_before);
  auto overlap_attrs = sql::ResultAttrsFromXml(overlap.body);
  ASSERT_TRUE(overlap_attrs.ok());
  EXPECT_TRUE(overlap_attrs->partial);
  EXPECT_GT(overlap_attrs->coverage, 0.0);
  EXPECT_LT(overlap_attrs->coverage, 1.0);
  EXPECT_EQ(overlap_attrs->degraded_reason, "origin-unreachable");
  EXPECT_EQ(active.stats().degraded_partial, 1u);
  // The partial answer counts under its relation, once.
  EXPECT_EQ(active.stats().overlaps_handled, 1u);
  EXPECT_EQ(active.stats().template_requests, OutcomeSum(active.stats()));
  const auto partial_record = active.stats().records.back();
  EXPECT_TRUE(partial_record.degraded);
  // The XML attribute is printed with 4 decimals.
  EXPECT_NEAR(partial_record.coverage, overlap_attrs->coverage, 1e-4);
  EXPECT_LE(partial_record.CacheEfficiency(), overlap_attrs->coverage);

  // Disjoint query: the cache contributes nothing — 503 with Retry-After.
  HttpResponse refused = active.Handle(Radial(190.5, 38, 10));
  EXPECT_EQ(refused.status_code, 503);
  ASSERT_EQ(refused.headers.count("Retry-After"), 1u);
  EXPECT_GT(std::stoll(refused.headers.at("Retry-After")), 0);

  // Nothing faulty was admitted: still just the warm entry.
  EXPECT_EQ(active.cache().num_entries(), 1u);

  // The tunneling and passive proxies fail the very queries the active
  // proxy still answers.
  core::ProxyConfig nc_config;
  nc_config.mode = core::CachingMode::kNoCache;
  core::FunctionProxy nc(nc_config, templates_, channel_.get(), clock_.get());
  core::ProxyConfig pc_config;
  pc_config.mode = core::CachingMode::kPassive;
  core::FunctionProxy pc(pc_config, templates_, channel_.get(), clock_.get());
  EXPECT_FALSE(nc.Handle(Radial(185, 33, 10)).ok());
  EXPECT_FALSE(pc.Handle(Radial(185, 33, 10)).ok());

  // Outage over, breaker cooldown elapsed: the next request probes
  // (half-open), succeeds, and full service resumes.
  clock_->Advance(400'000'000);
  HttpResponse recovered = active.Handle(Radial(190.5, 38, 10));
  EXPECT_TRUE(recovered.ok());
  EXPECT_EQ(active.breaker().state(), net::BreakerState::kClosed);
  EXPECT_EQ(active.cache().num_entries(), 2u);
  EXPECT_GE(active.stats().breaker_transitions, 3u);
}

TEST_F(FailureInjectionTest, CacheSurvivesFailureBurst) {
  proxy_->Handle(Radial(185, 33, 20));
  flaky_->set_mode(FlakyOrigin::Mode::kServerError);
  for (int i = 0; i < 5; ++i) {
    proxy_->Handle(Radial(186 + i, 35, 10));  // All fail.
  }
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
  // The surviving entry still serves hits during the outage.
  uint64_t before = channel_->total_requests();
  HttpResponse hit = proxy_->Handle(Radial(185, 33, 20));
  EXPECT_TRUE(hit.ok());
  EXPECT_EQ(channel_->total_requests(), before);
}

}  // namespace
}  // namespace fnproxy
