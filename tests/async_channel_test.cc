#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/http.h"
#include "net/network.h"
#include "net/origin_channel.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "workload/experiment.h"

namespace fnproxy::core {
namespace {

using net::HttpRequest;
using net::HttpResponse;

// ---------------------------------------------------------------------------
// Batch framing round trip.
// ---------------------------------------------------------------------------

TEST(SqlBatchFramingTest, RequestRoundTrips) {
  std::vector<std::string> statements = {
      "SELECT * FROM t WHERE a = 1", "", "multi\nline\nsql"};
  std::string body = net::EncodeSqlBatchRequest(statements);
  std::vector<std::string> decoded;
  ASSERT_TRUE(net::DecodeSqlBatchRequest(body, &decoded));
  EXPECT_EQ(decoded, statements);
}

TEST(SqlBatchFramingTest, ResponseRoundTrips) {
  std::vector<HttpResponse> subs(3);
  subs[0].status_code = 200;
  subs[0].body = "<result rows=\"2\"/>";
  subs[1].status_code = 400;
  subs[1].body = "parse error: line 1\nnear WHERE";
  subs[2].status_code = 200;
  subs[2].body = "";
  std::string body = net::EncodeSqlBatchResponse(subs);
  std::vector<HttpResponse> decoded;
  ASSERT_TRUE(net::DecodeSqlBatchResponse(body, &decoded));
  ASSERT_EQ(decoded.size(), subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    EXPECT_EQ(decoded[i].status_code, subs[i].status_code);
    EXPECT_EQ(decoded[i].body, subs[i].body);
  }
}

TEST(SqlBatchFramingTest, MalformedBodiesRejected) {
  std::vector<std::string> statements;
  EXPECT_FALSE(net::DecodeSqlBatchRequest("", &statements));
  EXPECT_FALSE(net::DecodeSqlBatchRequest("nonsense", &statements));
  EXPECT_FALSE(net::DecodeSqlBatchRequest("99\nshort", &statements));
  std::vector<HttpResponse> responses;
  EXPECT_FALSE(net::DecodeSqlBatchResponse("200\nmissing-len", &responses));
  EXPECT_FALSE(net::DecodeSqlBatchResponse("200 99\nshort", &responses));
}

// ---------------------------------------------------------------------------
// Origin environment shared by the pipeline tests.
// ---------------------------------------------------------------------------

HttpRequest RadialRequest(double ra, double dec, double radius) {
  HttpRequest request;
  request.path = "/radial";
  request.query_params["ra"] = std::to_string(ra);
  request.query_params["dec"] = std::to_string(dec);
  request.query_params["radius"] = std::to_string(radius);
  return request;
}

class AsyncChannelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 12000;
    config.num_clusters = 5;
    config.seed = 42;
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
        [](const std::vector<sql::Value>& args) -> util::StatusOr<sql::Value> {
          FNPROXY_ASSIGN_OR_RETURN(
              int64_t bit, catalog::PhotoFlagValue(args.at(0).AsString()));
          return sql::Value::Int(bit);
        });
    templates_ = new TemplateRegistry();
    ASSERT_TRUE(templates_
                    ->RegisterFunctionTemplateXml(
                        workload::kNearbyObjEqTemplateXml)
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

  /// A complete proxy stack (own clock, origin app, channel) so async and
  /// serialized runs cannot perturb each other's accounting.
  struct Stack {
    std::unique_ptr<util::SimulatedClock> clock;
    std::unique_ptr<server::OriginWebApp> app;
    std::unique_ptr<net::SimulatedChannel> channel;
    std::unique_ptr<FunctionProxy> proxy;
  };

  Stack MakeStack(bool async_origin) {
    Stack s;
    s.clock = std::make_unique<util::SimulatedClock>();
    s.app = std::make_unique<server::OriginWebApp>(db_, s.clock.get());
    EXPECT_TRUE(
        s.app->RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    s.channel = std::make_unique<net::SimulatedChannel>(
        s.app.get(), net::WanLink(), s.clock.get());
    ProxyConfig config;
    config.mode = CachingMode::kActiveFull;
    config.async_origin = async_origin;
    s.proxy = std::make_unique<FunctionProxy>(config, templates_,
                                              s.channel.get(), s.clock.get());
    return s;
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static TemplateRegistry* templates_;
};

server::Database* AsyncChannelTest::db_ = nullptr;
server::SkyGrid* AsyncChannelTest::grid_ = nullptr;
TemplateRegistry* AsyncChannelTest::templates_ = nullptr;

// Remainders sent through the async origin channel must produce
// byte-identical XML to remainders sent from the requesting thread, for
// every request in a sequence covering miss, exact hit, containment,
// overlap (the async remainder path), and region containment.
TEST_F(AsyncChannelTest, PipelinedMatchesSerializedByteForByte) {
  Stack async_stack = MakeStack(/*async_origin=*/true);
  Stack sync_stack = MakeStack(/*async_origin=*/false);

  const std::vector<HttpRequest> sequence = {
      RadialRequest(195.0, 31.0, 25.0),  // Miss: fetched, cached.
      RadialRequest(195.0, 31.0, 25.0),  // Exact hit.
      RadialRequest(195.0, 31.0, 10.0),  // Contained in the first.
      RadialRequest(195.2, 31.1, 22.0),  // Overlap: probe, then remainder.
      RadialRequest(195.0, 31.0, 40.0),  // Region containment: contains both.
      RadialRequest(195.2, 31.1, 24.0),  // Contained again (merged entry).
  };
  for (size_t i = 0; i < sequence.size(); ++i) {
    HttpResponse async_response = async_stack.proxy->Handle(sequence[i]);
    HttpResponse sync_response = sync_stack.proxy->Handle(sequence[i]);
    EXPECT_EQ(async_response.status_code, sync_response.status_code)
        << "request " << i;
    EXPECT_EQ(async_response.body, sync_response.body) << "request " << i;
  }
  // The overlap and region-containment requests really sent remainders
  // through the async channel.
  ProxyStats stats = async_stack.proxy->stats();
  EXPECT_GE(stats.overlaps_handled + stats.region_containments, 2u);
  EXPECT_GE(stats.origin_sql_requests, 2u);
  // And the virtual-clock totals agree: the dispatcher thread charges
  // every modeled microsecond the requesting thread would have.
  EXPECT_EQ(async_stack.clock->NowMicros(), sync_stack.clock->NowMicros());
}

// ---------------------------------------------------------------------------
// Coalescing on the raw channel.
// ---------------------------------------------------------------------------

/// Wraps a handler, adding a real-time delay per request so the dispatcher
/// stays busy long enough for queued requests to coalesce deterministically.
class SlowHandler : public net::HttpHandler {
 public:
  SlowHandler(net::HttpHandler* inner, int delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}
  HttpResponse Handle(const HttpRequest& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->Handle(request);
  }

 private:
  net::HttpHandler* inner_;
  int delay_ms_;
};

/// Refuses /sql/batch with 404 (an origin without the facility), forwarding
/// everything else.
class NoBatchHandler : public net::HttpHandler {
 public:
  explicit NoBatchHandler(net::HttpHandler* inner) : inner_(inner) {}
  HttpResponse Handle(const HttpRequest& request) override {
    if (request.path == "/sql/batch") {
      return HttpResponse::MakeError(404, "no such endpoint");
    }
    return inner_->Handle(request);
  }

 private:
  net::HttpHandler* inner_;
};

HttpRequest SqlRequest(const std::string& sql) {
  HttpRequest request;
  request.path = "/sql";
  request.query_params["q"] = sql;
  return request;
}

TEST_F(AsyncChannelTest, AdjacentRemaindersCoalesceIntoOneBatch) {
  util::SimulatedClock clock;
  server::OriginWebApp app(db_, &clock);
  SlowHandler slow(&app, /*delay_ms=*/100);
  net::SimulatedChannel channel(&slow, net::LanLink(), &clock);
  // One dispatcher: the first request occupies it while the rest queue, so
  // the second pop drains them as one batch.
  net::OriginChannelOptions options;
  options.num_dispatchers = 1;
  net::OriginChannel async_channel(&channel, options);

  const std::string sql =
      "SELECT objID, ra, dec FROM PhotoPrimary WHERE ra > 190 AND ra < 190.2";
  // Solo reference response for the same statement.
  util::SimulatedClock ref_clock;
  server::OriginWebApp ref_app(db_, &ref_clock);
  net::SimulatedChannel ref_channel(&ref_app, net::LanLink(), &ref_clock);
  HttpResponse reference = ref_channel.RoundTrip(SqlRequest(sql));
  ASSERT_TRUE(reference.ok());

  std::vector<std::future<HttpResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(async_channel.RoundTripAsync(SqlRequest(sql)));
  }
  for (auto& f : futures) {
    HttpResponse response = f.get();
    ASSERT_TRUE(response.ok()) << response.body;
    EXPECT_EQ(response.body, reference.body);
  }
  // The first request went solo (nothing else was queued yet); the rest
  // coalesced. Exact split can vary with scheduling, but at least one batch
  // must have formed and carried at least two requests.
  EXPECT_EQ(async_channel.async_requests(), 5u);
  EXPECT_GE(async_channel.batches_sent(), 1u);
  EXPECT_GE(async_channel.requests_batched(), 2u);
}

TEST_F(AsyncChannelTest, BatchUnsupportedOriginFallsBackSolo) {
  util::SimulatedClock clock;
  server::OriginWebApp app(db_, &clock);
  NoBatchHandler no_batch(&app);
  SlowHandler slow(&no_batch, /*delay_ms=*/50);
  net::SimulatedChannel channel(&slow, net::LanLink(), &clock);
  net::OriginChannelOptions options;
  options.num_dispatchers = 1;
  net::OriginChannel async_channel(&channel, options);

  const std::string sql =
      "SELECT objID FROM PhotoPrimary WHERE ra > 195 AND ra < 195.1";
  std::vector<std::future<HttpResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(async_channel.RoundTripAsync(SqlRequest(sql)));
  }
  for (auto& f : futures) {
    HttpResponse response = f.get();
    EXPECT_TRUE(response.ok()) << response.body;
  }
  // The 404 disabled batching; every request still succeeded solo.
  EXPECT_EQ(async_channel.batches_sent(), 0u);
  EXPECT_EQ(async_channel.requests_batched(), 0u);
}

// Deadline-bearing requests bypass coalescing and carry their budget to the
// wire exactly as a synchronous RoundTrip would.
TEST_F(AsyncChannelTest, DeadlineRequestsAreNeverBatched) {
  util::SimulatedClock clock;
  server::OriginWebApp app(db_, &clock);
  SlowHandler slow(&app, /*delay_ms=*/50);
  net::SimulatedChannel channel(&slow, net::LanLink(), &clock);
  net::OriginChannelOptions options;
  options.num_dispatchers = 1;
  net::OriginChannel async_channel(&channel, options);

  const std::string sql =
      "SELECT objID FROM PhotoPrimary WHERE ra > 195 AND ra < 195.05";
  std::vector<std::future<HttpResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(async_channel.RoundTripAsync(
        SqlRequest(sql), /*deadline_micros=*/clock.NowMicros() + 60'000'000));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(async_channel.batches_sent(), 0u);
}

}  // namespace
}  // namespace fnproxy::core
