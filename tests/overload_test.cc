// Overload resilience: single-flight collapsing of concurrent identical or
// subsumed misses, admission control (hard bound + origin-backlog
// watermark), and end-to-end deadline propagation. The origin here can be
// gated (requests block in wall time until released) so tests control
// exactly which requests overlap in flight.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "core/single_flight.h"
#include "geometry/hypersphere.h"
#include "net/fault.h"
#include "net/http.h"
#include "net/network.h"
#include "proxy_test_util.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "util/thread_pool.h"
#include "workload/experiment.h"

namespace fnproxy {
namespace {

using net::HttpRequest;
using net::HttpResponse;

class OverloadTest : public ::testing::Test {
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

  /// Builds the per-test pipeline; tests that need a non-default config or
  /// link call this explicitly, the rest get the default from SetUp.
  void Build(const core::ProxyConfig& config,
             net::LinkConfig link = net::LinkConfig{0.0, 1e9}) {
    proxy_.reset();
    channel_.reset();
    gated_.reset();
    app_.reset();
    clock_ = std::make_unique<util::SimulatedClock>();
    app_ = std::make_unique<server::OriginWebApp>(db_, clock_.get());
    ASSERT_TRUE(
        app_->RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    gated_ = std::make_unique<GatedOrigin>(app_.get());
    channel_ = std::make_unique<net::SimulatedChannel>(gated_.get(), link,
                                                       clock_.get());
    proxy_ = std::make_unique<core::FunctionProxy>(config, templates_,
                                                   channel_.get(),
                                                   clock_.get());
  }

  void SetUp() override { Build(core::ProxyConfig{}); }

  static HttpRequest Radial(double ra, double dec, double radius) {
    HttpRequest request;
    request.path = "/radial";
    request.query_params["ra"] = std::to_string(ra);
    request.query_params["dec"] = std::to_string(dec);
    request.query_params["radius"] = std::to_string(radius);
    return request;
  }

  static HttpRequest WithDeadline(HttpRequest request, int64_t budget_micros) {
    request.headers[net::kDeadlineBudgetHeader] =
        std::to_string(budget_micros);
    return request;
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static core::TemplateRegistry* templates_;

  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<server::OriginWebApp> app_;
  std::unique_ptr<GatedOrigin> gated_;
  std::unique_ptr<net::SimulatedChannel> channel_;
  std::unique_ptr<core::FunctionProxy> proxy_;
};

server::Database* OverloadTest::db_ = nullptr;
server::SkyGrid* OverloadTest::grid_ = nullptr;
core::TemplateRegistry* OverloadTest::templates_ = nullptr;

// --- Single-flight collapsing -------------------------------------------

TEST_F(OverloadTest, ThunderingHerdSharesOneOriginFetch) {
  gated_->CloseGate();
  const HttpRequest hot = Radial(185, 33, 20);

  std::thread leader([&] { proxy_->Handle(hot); });
  gated_->AwaitRequests(1);  // Leader's flight is registered and in flight.

  constexpr int kFollowers = 7;
  std::vector<std::thread> followers;
  std::mutex mu;
  std::vector<HttpResponse> responses;
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&] {
      HttpResponse response = proxy_->Handle(hot);
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    });
  }
  // Give the followers time to join the flight, then release the origin.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated_->OpenGate();
  leader.join();
  for (std::thread& thread : followers) thread.join();

  // Exactly one origin fetch served the whole herd.
  EXPECT_EQ(gated_->requests(), 1u);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kFollowers));
  for (const HttpResponse& response : responses) {
    EXPECT_TRUE(response.ok());
  }
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].body, responses[0].body);
  }
  core::ProxyStats stats = proxy_->stats();
  EXPECT_EQ(stats.misses, 1u);
  // Followers that raced past the flight's completion land as exact hits;
  // either way no one paid a second origin trip.
  EXPECT_EQ(stats.collapsed + stats.exact_hits,
            static_cast<uint64_t>(kFollowers));
  EXPECT_GE(stats.collapsed, 1u);
}

TEST_F(OverloadTest, SubsumedFollowerServedFromLeadersFlight) {
  gated_->CloseGate();
  std::thread leader([&] { proxy_->Handle(Radial(185, 33, 20)); });
  gated_->AwaitRequests(1);

  // Strictly contained in the leader's cone (same center, smaller radius):
  // joins the flight and is answered by local selection over the admitted
  // entry.
  HttpResponse follower_response;
  std::thread follower([&] {
    follower_response = proxy_->Handle(Radial(185, 33, 8));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated_->OpenGate();
  leader.join();
  follower.join();

  EXPECT_EQ(gated_->requests(), 1u);
  ASSERT_TRUE(follower_response.ok());

  // The collapsed answer matches a direct origin evaluation.
  util::SimulatedClock scratch;
  server::OriginWebApp reference(db_, &scratch);
  ASSERT_TRUE(
      reference.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
  HttpResponse expected = reference.Handle(Radial(185, 33, 8));
  auto got = sql::TableFromXml(follower_response.body);
  auto want = sql::TableFromXml(expected.body);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->num_rows(), want->num_rows());
}

TEST_F(OverloadTest, PassiveFlightCollapsesIdenticalUrlsOnly) {
  core::ProxyConfig config;
  config.mode = core::CachingMode::kPassive;
  Build(config);
  gated_->CloseGate();
  std::thread leader([&] { proxy_->Handle(Radial(185, 33, 20)); });
  gated_->AwaitRequests(1);

  // Three repeats of the leader's URL share its fetch. The contained cone is
  // another URL, which a URL cache cannot answer from the leader's entry,
  // so it makes its own fetch.
  constexpr int kRepeats = 3;
  std::vector<std::thread> followers;
  std::mutex mu;
  std::vector<HttpResponse> repeats;
  for (int i = 0; i < kRepeats; ++i) {
    followers.emplace_back([&] {
      HttpResponse response = proxy_->Handle(Radial(185, 33, 20));
      std::lock_guard<std::mutex> lock(mu);
      repeats.push_back(std::move(response));
    });
  }
  HttpResponse contained;
  followers.emplace_back(
      [&] { contained = proxy_->Handle(Radial(185, 33, 8)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated_->OpenGate();
  leader.join();
  for (std::thread& thread : followers) thread.join();

  EXPECT_EQ(gated_->requests(), 2u);
  core::ProxyStats stats = proxy_->stats();
  EXPECT_EQ(stats.collapsed + stats.exact_hits,
            static_cast<uint64_t>(kRepeats));
  EXPECT_EQ(stats.misses, 2u);
  ASSERT_EQ(repeats.size(), static_cast<size_t>(kRepeats));
  for (const HttpResponse& response : repeats) {
    EXPECT_TRUE(response.ok()) << response.status_code;
  }

  ASSERT_TRUE(contained.ok()) << contained.body;
  util::SimulatedClock scratch;
  server::OriginWebApp reference(db_, &scratch);
  ASSERT_TRUE(
      reference.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
  auto got = sql::TableFromXml(contained.body);
  auto want = sql::TableFromXml(reference.Handle(Radial(185, 33, 8)).body);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->rows(), want->rows());
}

TEST_F(OverloadTest, LeaderFailureWakesFollowersWithoutFanout) {
  gated_->CloseGate();
  gated_->FailFirst();
  const HttpRequest hot = Radial(185, 33, 20);

  HttpResponse leader_response;
  std::thread leader([&] { leader_response = proxy_->Handle(hot); });
  gated_->AwaitRequests(1);

  constexpr int kFollowers = 4;
  std::vector<std::thread> followers;
  std::mutex mu;
  std::vector<HttpResponse> responses;
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&] {
      HttpResponse response = proxy_->Handle(hot);
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated_->OpenGate();  // Leader's request fails; followers must not hang.
  leader.join();
  for (std::thread& thread : followers) thread.join();

  EXPECT_FALSE(leader_response.ok());
  ASSERT_EQ(responses.size(), static_cast<size_t>(kFollowers));
  for (const HttpResponse& response : responses) {
    EXPECT_TRUE(response.ok()) << response.status_code;
  }
  // The failed flight wakes the herd one new leader at a time: far fewer
  // origin trips than one per follower.
  EXPECT_GE(gated_->requests(), 2u);
  EXPECT_LE(gated_->requests(), 1u + static_cast<uint64_t>(kFollowers));
}

// --- Admission control ---------------------------------------------------

TEST_F(OverloadTest, HardShedPastQueueBound) {
  core::ProxyConfig config;
  config.max_queue_depth = 1;
  // Soft origin-backlog lane off (watermark == bound): this test isolates
  // the hard bound.
  config.origin_shed_watermark = 1.0;
  Build(config);
  gated_->CloseGate();

  std::thread occupant([&] { proxy_->Handle(Radial(185, 33, 20)); });
  gated_->AwaitRequests(1);  // One request holds the only admission slot.

  HttpResponse shed = proxy_->Handle(Radial(186, 34, 10));
  EXPECT_EQ(shed.status_code, 503);
  EXPECT_EQ(shed.headers["X-Shed-Reason"], "overload");
  EXPECT_EQ(shed.headers.count("Retry-After"), 1u);
  EXPECT_NE(shed.body.find("overload"), std::string::npos);

  gated_->OpenGate();
  occupant.join();

  EXPECT_EQ(proxy_->stats().shed, 1u);
  // The shed is visible in the metrics endpoint with its reason label.
  HttpRequest metrics;
  metrics.path = "/metrics";
  HttpResponse scrape = proxy_->Handle(metrics);
  ASSERT_TRUE(scrape.ok());
  EXPECT_NE(
      scrape.body.find("fnproxy_shed_total{reason=\"overload\"} 1"),
      std::string::npos);
}

TEST_F(OverloadTest, OriginBacklogShedsMissesButServesHits) {
  core::ProxyConfig config;
  config.max_queue_depth = 4;
  config.origin_shed_watermark = 0.5;  // Backlog threshold: 2 in flight.
  Build(config);

  // Prime the cache while healthy.
  HttpResponse primed = proxy_->Handle(Radial(185, 33, 15));
  ASSERT_TRUE(primed.ok());

  gated_->CloseGate();
  std::thread miss1([&] { proxy_->Handle(Radial(181, 30, 10)); });
  std::thread miss2([&] { proxy_->Handle(Radial(189, 36, 10)); });
  gated_->AwaitRequests(3);  // Prime + the two blocked misses.

  // A third origin-bound request sees the backlog and is softly shed...
  HttpResponse shed = proxy_->Handle(Radial(183, 38, 10));
  EXPECT_EQ(shed.status_code, 503);
  EXPECT_EQ(shed.headers["X-Shed-Reason"], "origin-backlog");

  // ...while the cheap cache-hit lane keeps serving under the same load.
  HttpResponse hit = proxy_->Handle(Radial(185, 33, 15));
  EXPECT_TRUE(hit.ok());
  EXPECT_EQ(hit.body, primed.body);

  gated_->OpenGate();
  miss1.join();
  miss2.join();
  EXPECT_GE(proxy_->stats().shed, 1u);
}

// --- Deadline propagation ------------------------------------------------

TEST_F(OverloadTest, DeadlineTooTightForWanIsShedBeforeTheWire) {
  core::ProxyConfig config;
  Build(config, net::WanLink());  // 150 ms one-way: a trip costs >= 300 ms.

  HttpResponse shed =
      proxy_->Handle(WithDeadline(Radial(185, 33, 20), /*budget=*/50'000));
  EXPECT_EQ(shed.status_code, 503);
  EXPECT_EQ(shed.headers["X-Shed-Reason"], "deadline-exceeded");
  EXPECT_EQ(shed.headers.count("Retry-After"), 1u);
  EXPECT_EQ(gated_->requests(), 0u);  // Never touched the wire.
  EXPECT_EQ(proxy_->stats().deadline_exceeded, 1u);

  // A budget spent before the miss reaches the origin: refused and counted
  // as shed only, never also as a miss — by the active and passive proxy.
  HttpResponse spent =
      proxy_->Handle(WithDeadline(Radial(181, 30, 10), /*budget=*/100));
  EXPECT_EQ(spent.headers["X-Shed-Reason"], "deadline-exceeded");
  EXPECT_EQ(proxy_->stats().misses, 0u);
  EXPECT_EQ(proxy_->stats().shed, 2u);
  EXPECT_EQ(proxy_->stats().template_requests, OutcomeSum(proxy_->stats()));
  core::ProxyConfig passive_config;
  passive_config.mode = core::CachingMode::kPassive;
  core::FunctionProxy passive(passive_config, templates_, channel_.get(),
                              clock_.get());
  passive.Handle(WithDeadline(Radial(181, 30, 10), /*budget=*/100));
  EXPECT_EQ(passive.stats().shed, 1u);
  EXPECT_EQ(passive.stats().template_requests, OutcomeSum(passive.stats()));
  EXPECT_EQ(gated_->requests(), 0u);

  // Without a deadline the same query succeeds and is cached; an exact
  // repeat under the tight budget is then served locally just fine.
  ASSERT_TRUE(proxy_->Handle(Radial(185, 33, 20)).ok());
  HttpResponse hit =
      proxy_->Handle(WithDeadline(Radial(185, 33, 20), /*budget=*/50'000));
  EXPECT_TRUE(hit.ok());
}

TEST_F(OverloadTest, DeadlineBlockedRemainderServesDegradedPartial) {
  core::ProxyConfig config;
  Build(config, net::WanLink());

  // Cache a cone, then zoom out (region containment): the remainder fetch
  // cannot fit the tight budget, so the cached part is served as a partial.
  ASSERT_TRUE(proxy_->Handle(Radial(185, 33, 12)).ok());
  HttpResponse partial =
      proxy_->Handle(WithDeadline(Radial(185, 33, 20), /*budget=*/50'000));
  ASSERT_TRUE(partial.ok());
  EXPECT_NE(partial.body.find("partial=\"true\""), std::string::npos);
  EXPECT_NE(partial.body.find("degraded=\"deadline-exceeded\""),
            std::string::npos);
  EXPECT_EQ(proxy_->stats().deadline_exceeded, 1u);
  // Only the priming query reached the origin.
  EXPECT_EQ(gated_->requests(), 1u);
}

TEST_F(OverloadTest, ChannelDeadlineCapsRetriesAndBackoff) {
  util::SimulatedClock clock;
  class DroppingHandler final : public net::HttpHandler {
   public:
    HttpResponse Handle(const HttpRequest&) override {
      ++requests;
      return net::FaultInjector::MakeDrop();
    }
    int requests = 0;
  } handler;
  net::SimulatedChannel channel(&handler, net::LinkConfig{0.0, 1e9}, &clock);
  net::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_micros = 1'000'000;
  channel.set_retry_policy(policy);

  // Budget fits one attempt but not the first backoff: exactly one attempt.
  HttpResponse response = channel.RoundTrip(
      net::HttpRequest{}, clock.NowMicros() + 100'000);
  EXPECT_TRUE(response.transport_error());
  EXPECT_EQ(handler.requests, 1);
  EXPECT_GE(channel.retry_stats().deadline_exhausted, 1u);

  // Budget already exhausted on arrival: fails without touching the wire.
  // (Advance first so the absolute deadline is nonzero — 0 means "none".)
  clock.Advance(1'000'000);
  handler.requests = 0;
  response = channel.RoundTrip(net::HttpRequest{}, clock.NowMicros());
  EXPECT_TRUE(response.transport_error());
  EXPECT_EQ(handler.requests, 0);
}

TEST_F(OverloadTest, MalformedDeadlineHeaderIgnored) {
  HttpRequest request = Radial(185, 33, 20);
  // Twenty nines overflowed int64_t while being read (UBSan), before the
  // bound could reject them.
  for (const char* bad : {"not-a-number", "1152921504606846977",
                          "99999999999999999999"}) {
    request.headers[net::kDeadlineBudgetHeader] = bad;
    EXPECT_EQ(net::DeadlineBudgetMicros(request), 0) << bad;
  }
  request.headers[net::kDeadlineBudgetHeader] = "1152921504606846976";
  EXPECT_EQ(net::DeadlineBudgetMicros(request), int64_t{1} << 60);
  request.headers[net::kDeadlineBudgetHeader] = "not-a-number";
  HttpResponse response = proxy_->Handle(request);
  EXPECT_TRUE(response.ok());
}

// --- SingleFlightTable unit behavior ------------------------------------

TEST(SingleFlightTableTest, GuardFailsFlightOnEarlyExit) {
  core::SingleFlightTable table;
  geometry::Hypersphere region({0.0, 0.0, 1.0}, 0.1);
  auto leader = table.JoinOrLead("t", "fp", region);
  ASSERT_TRUE(leader.leader);
  auto follower = table.JoinOrLead("t", "fp", region);
  ASSERT_FALSE(follower.leader);
  {
    core::FlightGuard guard(&table, leader.token);
    // Dropped without Fulfill: the flight completes as failed.
  }
  ASSERT_EQ(follower.result.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(follower.result.get().entry, nullptr);
  EXPECT_EQ(table.inflight(), 0u);
}

TEST(SingleFlightTableTest, DistinctKeysDoNotCollapse) {
  core::SingleFlightTable table;
  geometry::Hypersphere a({0.0, 0.0, 1.0}, 0.1);
  geometry::Hypersphere b({0.5, 0.5, 0.5}, 0.1);
  EXPECT_TRUE(table.JoinOrLead("t", "fp", a).leader);
  EXPECT_TRUE(table.JoinOrLead("t", "fp", b).leader);       // Disjoint region.
  EXPECT_TRUE(table.JoinOrLead("t", "other", a).leader);    // Other predicate.
  EXPECT_TRUE(table.JoinOrLead("u", "fp", a).leader);       // Other template.
  // A region contained in flight `a` joins it.
  geometry::Hypersphere inner({0.0, 0.0, 1.0}, 0.05);
  EXPECT_FALSE(table.JoinOrLead("t", "fp", inner).leader);
  EXPECT_EQ(table.flights_total(), 4u);
  EXPECT_EQ(table.joins_total(), 1u);
}

// --- ThreadPool admission + priority ------------------------------------

TEST(ThreadPoolTest, BoundedQueueRejectsWhenFull) {
  util::ThreadPool::Options options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  util::ThreadPool pool(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  // Occupy the single worker so subsequent submissions queue.
  ASSERT_TRUE(pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  while (pool.queue_depth() > 0) std::this_thread::yield();

  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  ASSERT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  // Third queued task exceeds the bound.
  EXPECT_FALSE(pool.Submit([&] { ran.fetch_add(1); }));
  EXPECT_EQ(pool.rejected_total(), 1u);
  EXPECT_EQ(pool.queue_depth(), 2u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, HighPriorityLaneDrainsFirst) {
  util::ThreadPool::Options options;
  options.num_threads = 1;
  util::ThreadPool pool(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));

  std::mutex order_mu;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&, id] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(id);
    };
  };
  ASSERT_TRUE(pool.Submit(record(1), util::TaskPriority::kNormal));
  ASSERT_TRUE(pool.Submit(record(2), util::TaskPriority::kNormal));
  ASSERT_TRUE(pool.Submit(record(3), util::TaskPriority::kHigh));
  ASSERT_TRUE(pool.Submit(record(4), util::TaskPriority::kHigh));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  ASSERT_EQ(order.size(), 4u);
  // Both high-priority tasks ran before either normal one; FIFO per lane.
  EXPECT_EQ(order[0], 3);
  EXPECT_EQ(order[1], 4);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 2);
}

TEST(ThreadPoolTest, RejectsAfterShutdownWithoutCountingAsLoadShed) {
  util::ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_EQ(pool.rejected_total(), 0u);
}

}  // namespace
}  // namespace fnproxy
