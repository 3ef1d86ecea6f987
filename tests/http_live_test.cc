// Wire-format and live-socket tests: the proxy deployed over real loopback
// HTTP, end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/http_server.h"
#include "net/http_wire.h"
#include "net/network.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "workload/experiment.h"

namespace fnproxy::net {
namespace {

TEST(HttpWireTest, RequestRoundTrip) {
  auto request = HttpRequest::Get("/radial?ra=195.1&dec=2.5&radius=1.0");
  ASSERT_TRUE(request.ok());
  std::string wire = SerializeRequest(*request, "example.org");
  EXPECT_NE(wire.find("GET /radial?"), std::string::npos);
  EXPECT_NE(wire.find("Host: example.org\r\n"), std::string::npos);
  auto parsed = ParseWireRequest(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->path, "/radial");
  EXPECT_EQ(parsed->query_params.at("ra"), "195.1");
  EXPECT_EQ(parsed->method, "GET");
}

TEST(HttpWireTest, ResponseRoundTrip) {
  HttpResponse response;
  response.status_code = 200;
  response.content_type = "text/xml";
  response.body = "<Result rows=\"0\"><Schema/></Result>";
  std::string wire = SerializeResponse(response);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 35\r\n"), std::string::npos);
  auto parsed = ParseWireResponse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->status_code, 200);
  EXPECT_EQ(parsed->body, response.body);
  EXPECT_EQ(parsed->content_type, "text/xml");
}

TEST(HttpWireTest, ErrorResponseRoundTrip) {
  HttpResponse error = HttpResponse::MakeError(404, "no such endpoint");
  auto parsed = ParseWireResponse(SerializeResponse(error));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status_code, 404);
  EXPECT_FALSE(parsed->ok());
}

TEST(HttpWireTest, BodyWithBinaryishContentPreserved) {
  HttpResponse response;
  response.body = std::string("line1\r\n\r\nline2\0tail", 19);
  auto parsed = ParseWireResponse(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->body, response.body);
}

TEST(HttpWireTest, IncompleteAndMalformedRejected) {
  EXPECT_FALSE(ParseWireRequest("GET / HTTP/1.1\r\n").ok());  // No blank line.
  EXPECT_FALSE(ParseWireRequest("BROKEN\r\n\r\n").ok());
  EXPECT_FALSE(ParseWireResponse("HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseWireRequest("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").ok());
}

TEST(HttpWireTest, IsCompleteMessage) {
  std::string wire =
      "GET / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  EXPECT_TRUE(IsCompleteMessage(wire));
  EXPECT_FALSE(IsCompleteMessage(wire.substr(0, wire.size() - 1)));
  EXPECT_FALSE(IsCompleteMessage("GET / HTTP/1.1\r\n"));
  // A header block that ended but does not parse is complete: no later byte
  // mends it, so a socket reader stops and the server answers 400 instead
  // of waiting for the client to close.
  EXPECT_TRUE(IsCompleteMessage("GET / HTTP/1.1\r\nNoColon\r\n\r\n"));
  EXPECT_TRUE(
      IsCompleteMessage("GET / HTTP/1.1\r\nContent-Length: 4x\r\n\r\nbody"));
}

class EchoHandler : public HttpHandler {
 public:
  HttpResponse Handle(const HttpRequest& request) override {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = "echo:" + request.ToUrl();
    return response;
  }
};

TEST(HttpServerTest, LoopbackRoundTrip) {
  EchoHandler handler;
  HttpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);
  auto response = HttpGet(server.port(), "/x?a=1&b=two");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "echo:/x?a=1&b=two");
  server.Stop();
}

TEST(HttpServerTest, SequentialRequests) {
  EchoHandler handler;
  HttpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  for (int i = 0; i < 20; ++i) {
    auto response =
        HttpGet(server.port(), std::string("/n?i=") + std::to_string(i));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->body, std::string("echo:/n?i=") + std::to_string(i));
  }
  server.Stop();
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  EchoHandler handler;
  {
    HttpServer server(&handler);
    ASSERT_TRUE(server.Start(0).ok());
    server.Stop();
    server.Stop();
    ASSERT_TRUE(server.Start(0).ok());
    auto response = HttpGet(server.port(), "/again");
    ASSERT_TRUE(response.ok());
  }  // Destructor stops.
}

TEST(HttpServerTest, ConnectToClosedPortFails) {
  EchoHandler handler;
  HttpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();
  server.Stop();
  EXPECT_FALSE(HttpGet(port, "/gone").ok());
}

/// Saturating a bounded worker pool must never silently drop connections:
/// every client gets either its answer or an explicit 503 with shed headers.
TEST(HttpServerTest, SaturationShedsWith503) {
  class SlowHandler : public HttpHandler {
   public:
    HttpResponse Handle(const HttpRequest& request) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      HttpResponse response;
      response.body = "slow:" + request.path;
      return response;
    }
  } handler;
  HttpServer server(&handler, /*worker_threads=*/1, /*max_queue_depth=*/1);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::mutex mu;
  std::vector<util::StatusOr<HttpResponse>> results;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto result =
          HttpGet(server.port(), std::string("/q") + std::to_string(i));
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(result));
    });
  }
  for (std::thread& client : clients) client.join();
  server.Stop();

  int served = 0;
  int shed = 0;
  for (const auto& result : results) {
    // No transport-level failures: the server answered every connection.
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->ok()) {
      ++served;
    } else {
      ASSERT_EQ(result->status_code, 503);
      // Wire headers come back lowercased from the parser.
      EXPECT_EQ(result->headers.at("x-shed-reason"), "queue-full");
      EXPECT_EQ(result->headers.count("retry-after"), 1u);
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, kClients);
  EXPECT_GT(served, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(server.shed_total(), static_cast<uint64_t>(shed));
}

/// Full live deployment: synthetic SkyServer behind one real socket server,
/// the function proxy behind another, queries issued as real HTTP GETs.
TEST(LiveProxyTest, EndToEndOverRealSockets) {
  catalog::SkyCatalogConfig config;
  config.num_objects = 10000;
  config.seed = 555;
  config.ra_min = 178.0;
  config.ra_max = 192.0;
  config.dec_min = 28.0;
  config.dec_max = 40.0;
  server::Database db;
  db.AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(config));
  server::SkyGrid grid(db.FindTable("PhotoPrimary"));
  db.RegisterTableFunction(server::MakeGetNearbyObjEq(&grid));
  db.scalar_functions()->Register(
      "fPhotoFlags",
      [](const std::vector<sql::Value>& args)
          -> util::StatusOr<sql::Value> {
        FNPROXY_ASSIGN_OR_RETURN(int64_t bit,
                                 catalog::PhotoFlagValue(args.at(0).AsString()));
        return sql::Value::Int(bit);
      });

  util::SimulatedClock clock;
  server::OriginWebApp origin(&db, &clock);
  ASSERT_TRUE(origin.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
  HttpServer origin_server(&origin);
  ASSERT_TRUE(origin_server.Start(0).ok());

  core::TemplateRegistry templates;
  ASSERT_TRUE(templates
                  .RegisterFunctionTemplateXml(workload::kNearbyObjEqTemplateXml)
                  .ok());
  auto qt = core::QueryTemplate::Create("radial", "/radial",
                                        workload::kRadialTemplateSql);
  ASSERT_TRUE(qt.ok());
  ASSERT_TRUE(templates.RegisterQueryTemplate(std::move(*qt)).ok());

  // The proxy reaches its origin through a real socket.
  RemoteHostHandler origin_remote(origin_server.port());
  SimulatedChannel origin_channel(&origin_remote, LinkConfig{0.0, 1e9}, &clock);
  core::FunctionProxy proxy(core::ProxyConfig{}, &templates, &origin_channel,
                            &clock);
  HttpServer proxy_server(&proxy);
  ASSERT_TRUE(proxy_server.Start(0).ok());

  const std::string url = "/radial?ra=185.0&dec=33.0&radius=25.0";
  auto first = HttpGet(proxy_server.port(), url);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok()) << first->body;
  auto table1 = sql::TableFromXml(first->body);
  ASSERT_TRUE(table1.ok());

  auto second = HttpGet(proxy_server.port(), url);  // Exact hit.
  ASSERT_TRUE(second.ok());
  auto table2 = sql::TableFromXml(second->body);
  ASSERT_TRUE(table2.ok());
  EXPECT_EQ(table1->num_rows(), table2->num_rows());
  EXPECT_EQ(proxy.stats().exact_hits, 1u);

  auto contained =
      HttpGet(proxy_server.port(), "/radial?ra=185.0&dec=33.0&radius=10.0");
  ASSERT_TRUE(contained.ok());
  EXPECT_EQ(proxy.stats().containment_hits, 1u);

  // The admin endpoint reports live statistics without touching the origin.
  auto stats = HttpGet(proxy_server.port(), "/proxy/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("<ProxyStats"), std::string::npos);
  EXPECT_NE(stats->body.find("exact=\"1\""), std::string::npos);
  EXPECT_NE(stats->body.find("mode=\"AC-full\""), std::string::npos);

  proxy_server.Stop();
  origin_server.Stop();
}

}  // namespace
}  // namespace fnproxy::net
