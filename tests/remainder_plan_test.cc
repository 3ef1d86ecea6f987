// Remainder planning on the overlap / region-containment path (paper §3.2):
// the proxy evaluates the probe first, then sends one origin request. The
// remainder query excludes only the cached regions that contributed a
// tuple; when none did, the remainder would return exactly the original
// answer, so the proxy sends the client's original form query instead —
// unless the template has a TOP clause, whose form answer would be TOP-cut.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/trace.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "workload/experiment.h"

namespace fnproxy::core {
namespace {

using net::HttpRequest;
using net::HttpResponse;

// Same projection and order as the paper's Radial form, cut to TOP 10 and
// ordered by magnitude: no function-computed values, so cached tuples may
// serve other regions when an entry is complete.
constexpr char kTopRadialSql[] =
    "SELECT TOP 10 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.r "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID "
    "ORDER BY p.r";

/// Records every request that reaches the origin; when down, drops them all.
class RecordingOrigin final : public net::HttpHandler {
 public:
  explicit RecordingOrigin(net::HttpHandler* inner) : inner_(inner) {}
  HttpResponse Handle(const HttpRequest& request) override {
    if (down_) return net::FaultInjector::MakeDrop();
    requests_.push_back(request);
    return inner_->Handle(request);
  }
  void set_down(bool down) { down_ = down; }
  void Clear() { requests_.clear(); }
  size_t Count(const std::string& path) const {
    size_t n = 0;
    for (const HttpRequest& request : requests_) n += request.path == path;
    return n;
  }
  const std::vector<HttpRequest>& requests() const { return requests_; }

 private:
  net::HttpHandler* inner_;
  bool down_ = false;
  std::vector<HttpRequest> requests_;
};

HttpRequest Cone(const char* path, double ra, double dec, double radius) {
  HttpRequest request;
  request.path = path;
  request.query_params["ra"] = std::to_string(ra);
  request.query_params["dec"] = std::to_string(dec);
  request.query_params["radius"] = std::to_string(radius);
  return request;
}

HttpRequest Radial(double ra, double dec, double radius) {
  return Cone("/radial", ra, dec, radius);
}

std::multiset<int64_t> Ids(const sql::Table& table) {
  std::multiset<int64_t> ids;
  for (const auto& row : table.rows()) ids.insert(row[0].AsInt());
  return ids;
}

size_t CountOccurrences(const std::string& text, const std::string& word) {
  size_t n = 0;
  for (size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + word.size())) {
    ++n;
  }
  return n;
}

// The catalog fills ra 178..184, dec 28..32 (objects are clamped into the
// box), so cones west of ra 178 hold no tuple at all. At dec 30 one degree
// of ra spans 52 arcmin of sky:
//   kEmpty      (177.5, 30, 15') — east edge ra 177.79, empty;
//   kEmptySmall (177.7, 30,  5') — east edge ra 177.80, empty;
//   kQuery      (178.0, 30, 20') — 26' from kEmpty: they overlap;
//   kZoomOut    (178.0, 30, 30') — contains kEmptySmall (15.6' + 5' < 30');
//   kFull       (178.5, 30, 20') — populated, overlaps kQuery by a lens.
class RemainderPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 6000;
    config.num_clusters = 3;
    config.seed = 1313;
    config.ra_min = 178.0;
    config.ra_max = 184.0;
    config.dec_min = 28.0;
    config.dec_max = 32.0;
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
    auto radial = QueryTemplate::Create("radial", "/radial",
                                        workload::kRadialTemplateSql);
    ASSERT_TRUE(radial.ok());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*radial)).ok());
    auto top = QueryTemplate::Create("top_radial", "/top_radial", kTopRadialSql);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    ASSERT_TRUE(top->has_top());
    ASSERT_FALSE(top->function_dependent_projection());
    ASSERT_TRUE(templates_->RegisterQueryTemplate(std::move(*top)).ok());
  }
  static void TearDownTestSuite() {
    delete templates_;
    delete grid_;
    delete db_;
    templates_ = nullptr;
    grid_ = nullptr;
    db_ = nullptr;
  }

  void Build(net::LinkConfig link = net::LinkConfig{0.0, 1e9}) {
    clock_ = std::make_unique<util::SimulatedClock>();
    app_ = std::make_unique<server::OriginWebApp>(db_, clock_.get());
    ASSERT_TRUE(
        app_->RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    ASSERT_TRUE(app_->RegisterForm("/top_radial", kTopRadialSql).ok());
    origin_ = std::make_unique<RecordingOrigin>(app_.get());
    channel_ = std::make_unique<net::SimulatedChannel>(origin_.get(), link,
                                                       clock_.get());
    proxy_ = std::make_unique<FunctionProxy>(ProxyConfig{}, templates_,
                                             channel_.get(), clock_.get());
  }

  void SetUp() override { Build(); }

  /// The origin's direct answer, from an app on its own clock.
  HttpResponse Direct(const HttpRequest& request) {
    util::SimulatedClock scratch;
    server::OriginWebApp app(db_, &scratch);
    EXPECT_TRUE(app.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    EXPECT_TRUE(app.RegisterForm("/top_radial", kTopRadialSql).ok());
    HttpResponse response = app.Handle(request);
    EXPECT_TRUE(response.ok()) << response.body;
    return response;
  }
  std::multiset<int64_t> DirectIds(const HttpRequest& request) {
    auto table = sql::TableFromXml(Direct(request).body);
    EXPECT_TRUE(table.ok());
    return Ids(*table);
  }

  /// Caches `request`'s answer through the proxy and checks it holds no
  /// tuple, so the entry can only ever contribute an empty probe.
  void CacheEmpty(const HttpRequest& request) {
    HttpResponse response = proxy_->Handle(request);
    ASSERT_TRUE(response.ok()) << response.body;
    auto table = sql::TableFromXml(response.body);
    ASSERT_TRUE(table.ok());
    ASSERT_EQ(table->num_rows(), 0u) << request.ToUrl();
  }

  /// Row-id multisets of every cached entry (cache order is irrelevant).
  std::multiset<std::multiset<int64_t>> CachedIds() {
    std::multiset<std::multiset<int64_t>> entries;
    for (uint64_t id : proxy_->cache().AllIds()) {
      auto entry = proxy_->cache().Find(id);
      EXPECT_NE(entry, nullptr);
      if (entry == nullptr) continue;
      EXPECT_FALSE(entry->truncated);
      entries.insert(Ids(entry->result.ToTable()));
    }
    return entries;
  }

  /// The named span of the proxy's most recent trace.
  obs::TraceSpan LastSpan(const std::string& name) {
    auto traces = proxy_->trace_ring().Last(1);
    EXPECT_EQ(traces.size(), 1u);
    if (traces.empty()) return {};
    for (const obs::TraceSpan& span : traces[0]->spans()) {
      if (span.name == name) return span;
    }
    ADD_FAILURE() << "no " << name << " span";
    return {};
  }
  static std::string Attr(const obs::TraceSpan& span, const std::string& key) {
    for (const auto& [k, v] : span.attrs) {
      if (k == key) return v;
    }
    return "";
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static TemplateRegistry* templates_;

  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<server::OriginWebApp> app_;
  std::unique_ptr<RecordingOrigin> origin_;
  std::unique_ptr<net::SimulatedChannel> channel_;
  std::unique_ptr<FunctionProxy> proxy_;
};

server::Database* RemainderPlanTest::db_ = nullptr;
server::SkyGrid* RemainderPlanTest::grid_ = nullptr;
TemplateRegistry* RemainderPlanTest::templates_ = nullptr;

const HttpRequest kEmpty = Radial(177.5, 30.0, 15.0);
const HttpRequest kEmptySmall = Radial(177.7, 30.0, 5.0);
const HttpRequest kQuery = Radial(178.0, 30.0, 20.0);
const HttpRequest kZoomOut = Radial(178.0, 30.0, 30.0);
const HttpRequest kFull = Radial(178.5, 30.0, 20.0);

TEST_F(RemainderPlanTest, EmptyOverlapProbeSendsOriginalQuery) {
  CacheEmpty(kEmpty);
  origin_->Clear();

  HttpResponse response = proxy_->Handle(kQuery);
  ASSERT_TRUE(response.ok()) << response.body;
  // One form request, no remainder: the answer is the origin's own.
  EXPECT_EQ(origin_->Count("/radial"), 1u);
  EXPECT_EQ(origin_->Count("/sql"), 0u);
  EXPECT_EQ(response.body, Direct(kQuery).body);
  ASSERT_FALSE(DirectIds(kQuery).empty());

  // Counted by relation, and as an elided remainder.
  ProxyStats stats = proxy_->stats();
  EXPECT_EQ(stats.records.back().status, geometry::RegionRelation::kOverlap);
  EXPECT_EQ(stats.overlaps_handled, 1u);
  EXPECT_EQ(stats.misses, 1u);  // Only the priming query.
  EXPECT_EQ(stats.remainders_elided, 1u);
  EXPECT_EQ(stats.origin_sql_requests, 0u);
  EXPECT_EQ(stats.records.back().tuples_from_cache, 0u);
  obs::TraceSpan build = LastSpan("remainder_build");
  EXPECT_EQ(Attr(build, "plan"), "original");
  EXPECT_EQ(Attr(build, "excluded_regions"), "0");
  EXPECT_EQ(Attr(LastSpan("origin_roundtrip"), "endpoint"), "form");

  // The cache ends as the remainder path leaves it: the overlapped entry
  // stays, and Q's complete answer is admitted beside it.
  EXPECT_EQ(CachedIds(), (std::multiset<std::multiset<int64_t>>{
                             {}, DirectIds(kQuery)}));
  origin_->Clear();
  EXPECT_EQ(proxy_->Handle(kQuery).body, response.body);
  EXPECT_TRUE(origin_->requests().empty());
}

TEST_F(RemainderPlanTest, EmptyRegionContainmentProbeSendsOriginalQuery) {
  CacheEmpty(kEmptySmall);
  origin_->Clear();

  HttpResponse response = proxy_->Handle(kZoomOut);
  ASSERT_TRUE(response.ok()) << response.body;
  EXPECT_EQ(origin_->Count("/radial"), 1u);
  EXPECT_EQ(origin_->Count("/sql"), 0u);
  EXPECT_EQ(response.body, Direct(kZoomOut).body);

  ProxyStats stats = proxy_->stats();
  EXPECT_EQ(stats.records.back().status, geometry::RegionRelation::kContains);
  EXPECT_EQ(stats.region_containments, 1u);
  EXPECT_EQ(stats.remainders_elided, 1u);
  // The subsumed entry is dropped; the larger region's answer replaces it.
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
  EXPECT_EQ(CachedIds(),
            (std::multiset<std::multiset<int64_t>>{DirectIds(kZoomOut)}));
}

TEST_F(RemainderPlanTest, RemainderExcludesOnlyContributingRegions) {
  CacheEmpty(kEmpty);
  ASSERT_TRUE(proxy_->Handle(kFull).ok());
  origin_->Clear();

  HttpResponse response = proxy_->Handle(kQuery);
  ASSERT_TRUE(response.ok()) << response.body;
  EXPECT_EQ(proxy_->stats().records.back().status,
            geometry::RegionRelation::kOverlap);
  EXPECT_GT(proxy_->stats().records.back().tuples_from_cache, 0u);
  ASSERT_EQ(origin_->Count("/radial"), 0u);
  ASSERT_EQ(origin_->Count("/sql"), 1u);
  // Only kFull contributed a tuple, so only kFull's region is excluded.
  const std::string& sql = origin_->requests().front().query_params.at("q");
  EXPECT_EQ(CountOccurrences(sql, "NOT "), 1u) << sql;
  EXPECT_EQ(proxy_->stats().remainders_elided, 0u);
  obs::TraceSpan build = LastSpan("remainder_build");
  EXPECT_EQ(Attr(build, "plan"), "remainder");
  EXPECT_EQ(Attr(build, "excluded_regions"), "1");
  // The probe is scanned before the remainder is sent: local_eval is a
  // sibling of origin_roundtrip under the request, and ends first.
  obs::TraceSpan eval = LastSpan("local_eval");
  obs::TraceSpan trip = LastSpan("origin_roundtrip");
  EXPECT_EQ(eval.parent, 0);
  EXPECT_EQ(trip.parent, 0);
  EXPECT_LE(eval.virtual_end_micros, trip.virtual_start_micros);

  auto table = sql::TableFromXml(response.body);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(Ids(*table), DirectIds(kQuery));
}

TEST_F(RemainderPlanTest, TopTemplateKeepsRemainderPlan) {
  const HttpRequest empty = Cone("/top_radial", 177.5, 30.0, 15.0);
  const HttpRequest query = Cone("/top_radial", 178.0, 30.0, 20.0);
  CacheEmpty(empty);
  origin_->Clear();

  HttpResponse response = proxy_->Handle(query);
  ASSERT_TRUE(response.ok()) << response.body;
  // A form answer would be cut to TOP 10 and cached as truncated; the
  // remainder carries every in-region tuple instead.
  EXPECT_EQ(origin_->Count("/top_radial"), 0u);
  ASSERT_EQ(origin_->Count("/sql"), 1u);
  const std::string& sql = origin_->requests().front().query_params.at("q");
  EXPECT_EQ(CountOccurrences(sql, "NOT "), 0u) << sql;
  EXPECT_EQ(proxy_->stats().overlaps_handled, 1u);
  EXPECT_EQ(proxy_->stats().remainders_elided, 0u);

  auto table = sql::TableFromXml(response.body);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(Ids(*table), DirectIds(query));
  EXPECT_EQ(table->num_rows(), 10u);
  // Q's entry is complete: it holds every tuple of the cone, not ten.
  size_t largest = 0;
  for (const auto& ids : CachedIds()) largest = std::max(largest, ids.size());
  EXPECT_GT(largest, 10u);
}

TEST_F(RemainderPlanTest, EmptyProbeWithOriginDownStillDegrades) {
  CacheEmpty(kEmpty);
  origin_->set_down(true);

  HttpResponse response = proxy_->Handle(kQuery);
  ASSERT_TRUE(response.ok()) << response.body;
  auto attrs = sql::ResultAttrsFromXml(response.body);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->partial);
  // Coverage counts the empty entry's region: it is known to hold nothing.
  EXPECT_GT(attrs->coverage, 0.0);
  EXPECT_LT(attrs->coverage, 1.0);
  EXPECT_EQ(attrs->degraded_reason, "origin-unreachable");
  auto table = sql::TableFromXml(response.body);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(proxy_->stats().degraded_partial, 1u);
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);  // Nothing admitted.
}

// The deadline check applies to the form request as it did to the
// remainder: a budget that cannot fit the trip never touches the wire, and
// the answer is the probe labelled deadline-exceeded — here a partial with
// no tuple, whose covered fraction is known to hold none.
TEST_F(RemainderPlanTest, DeadlineTooTightForOriginalQueryAnswersWithinBudget) {
  Build(net::WanLink());  // 150 ms one-way: a trip costs >= 300 ms.
  CacheEmpty(kEmpty);
  origin_->Clear();

  HttpRequest request = kQuery;
  request.headers[net::kDeadlineBudgetHeader] = "50000";
  HttpResponse response = proxy_->Handle(request);
  ASSERT_TRUE(response.ok()) << response.body;
  EXPECT_TRUE(origin_->requests().empty());
  auto attrs = sql::ResultAttrsFromXml(response.body);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->partial);
  EXPECT_EQ(attrs->degraded_reason, "deadline-exceeded");
  auto table = sql::TableFromXml(response.body);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(proxy_->stats().deadline_exceeded, 1u);
  EXPECT_EQ(proxy_->stats().remainders_elided, 0u);
  EXPECT_EQ(proxy_->cache().num_entries(), 1u);
}

}  // namespace
}  // namespace fnproxy::core
