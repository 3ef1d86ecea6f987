// Tier-wide oracle and invariant suite for the cooperative proxy tier:
// a 4-proxy tier answers byte-for-byte what a single proxy answers, for a
// TOP template too, the aggregated statistics respect the stats-sum
// invariant, a cross-proxy thundering herd fetches the origin exactly once,
// a herd at a proxy that does not own its region is served the owner's
// answer without keeping a copy (and never selects from one the TOP cut),
// an owner answers a prober's overlap with its own remainder plan, and a
// scripted peer outage trips the prober's per-peer breaker, falls back to
// the origin (never serving garbage), and recovers through half-open.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/proxy.h"
#include "core/query_template.h"
#include "core/template_registry.h"
#include "net/circuit_breaker.h"
#include "net/fault.h"
#include "net/http.h"
#include "proxy_test_util.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "util/clock.h"
#include "workload/experiment.h"
#include "workload/multi_proxy.h"
#include "workload/rbe.h"
#include "workload/trace.h"

namespace fnproxy {
namespace {

using workload::ProxyTier;
using workload::ProxyTierOptions;

std::string Fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

workload::TraceQuery MakeQuery(double ra, double dec, double radius_arcmin) {
  workload::TraceQuery query;
  query.params["ra"] = Fixed(ra, 4);
  query.params["dec"] = Fixed(dec, 4);
  query.params["radius"] = Fixed(radius_arcmin, 2);
  return query;
}

/// A search form the origin serves: its path and query template.
struct Form {
  const char* path;
  const char* sql;
};

/// One self-contained pipeline: origin web app + tier, on a private clock.
/// By default the experiment's templates and its Radial form. The tier
/// reaches the origin through a gate, open unless a test closes it.
struct TierStack {
  util::SimulatedClock clock;
  std::unique_ptr<server::OriginWebApp> app;
  std::unique_ptr<GatedOrigin> gate;
  std::unique_ptr<ProxyTier> tier;

  TierStack(workload::SkyExperiment& sky, const ProxyTierOptions& options,
            const core::TemplateRegistry* templates = nullptr,
            Form form = {"/radial", workload::kRadialTemplateSql}) {
    if (templates == nullptr) templates = &sky.templates();
    app = std::make_unique<server::OriginWebApp>(sky.database(), &clock,
                                                 sky.options().server_costs);
    EXPECT_TRUE(app->RegisterForm(form.path, form.sql).ok());
    gate = std::make_unique<GatedOrigin>(app.get());
    tier = std::make_unique<ProxyTier>(options, templates, gate.get(),
                                       sky.options().wan, &clock);
  }
};

/// Bases are mutually disjoint cones inside the synthetic catalog footprint
/// (ra 120..250, dec -5..65); each base is followed by an exact repeat and a
/// concentric smaller-radius (contained) variant, the relations the tier
/// serves from peers.
workload::Trace OracleTrace() {
  workload::Trace trace;
  trace.form_path = "/radial";
  constexpr int kBases = 6;
  std::vector<workload::TraceQuery> variants;
  for (int i = 0; i < kBases; ++i) {
    const double ra = 130.0 + 18.0 * i;
    const double dec = 10.0 + 6.0 * i;
    trace.queries.push_back(MakeQuery(ra, dec, 24.0));
    variants.push_back(MakeQuery(ra, dec, 24.0));        // Exact repeat.
    variants.push_back(MakeQuery(ra, dec, 9.0));         // Concentric subset.
  }
  for (auto& v : variants) trace.queries.push_back(std::move(v));
  return trace;
}

ProxyTierOptions TierOptions(size_t num_proxies) {
  ProxyTierOptions options;
  options.num_proxies = num_proxies;
  options.proxy.mode = core::CachingMode::kActiveFull;
  return options;
}

/// A TOP template over the experiment's function: a cone's ten brightest
/// objects, so a cone holding more than ten is cached truncated.
constexpr Form kTopForm = {
    "/top_magnitude",
    "SELECT TOP 10 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.r "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID "
    "ORDER BY p.r"};

void RegisterTopTemplate(core::TemplateRegistry* templates) {
  ASSERT_TRUE(
      templates->RegisterFunctionTemplateXml(workload::kNearbyObjEqTemplateXml)
          .ok());
  auto qt = core::QueryTemplate::Create("top_magnitude", kTopForm.path,
                                        kTopForm.sql);
  ASSERT_TRUE(qt.ok());
  ASSERT_TRUE(templates->RegisterQueryTemplate(std::move(*qt)).ok());
}

// The oracle: replaying the same trace sequentially through a 4-proxy tier
// and through a single proxy yields byte-identical XML answers per query,
// with the same number of origin executions.
TEST(MultiProxyTier, FourProxyTierMatchesSingleProxyByteForByte) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  const workload::Trace trace = OracleTrace();

  TierStack quad(sky, TierOptions(4));
  TierStack solo(sky, TierOptions(1));
  for (size_t i = 0; i < trace.queries.size(); ++i) {
    net::HttpRequest request = workload::MakeRequest(trace, trace.queries[i]);
    net::HttpResponse from_quad = quad.tier->Handle(request);
    net::HttpResponse from_solo = solo.tier->Handle(request);
    ASSERT_EQ(from_quad.status_code, 200) << "query " << i;
    ASSERT_EQ(from_solo.status_code, 200) << "query " << i;
    // Headers legitimately differ (X-Peer-Served); the answer must not.
    ASSERT_EQ(from_quad.body, from_solo.body) << "query " << i;
  }

  const core::ProxyStats quad_stats = quad.tier->AggregateStats();
  const core::ProxyStats solo_stats = solo.tier->AggregateStats();
  // Same origin workload: cooperation must not cost extra origin fetches.
  EXPECT_EQ(quad.app->form_queries_served(), solo.app->form_queries_served());
  EXPECT_EQ(quad.app->form_queries_served(), 6u);
  // The tier actually cooperated (repeat/variant queries landing on a proxy
  // other than their base's were served by the owning sibling).
  EXPECT_GT(quad_stats.peer_hits, 0u);
  EXPECT_EQ(solo_stats.peer_hits, 0u);
  // A base an owner fetched for its prober is that prober's miss, with no
  // cached tuple, as the base is on one proxy.
  EXPECT_EQ(quad_stats.misses, solo_stats.misses);
  EXPECT_DOUBLE_EQ(quad_stats.AverageCacheEfficiency(),
                   solo_stats.AverageCacheEfficiency());
  // Stats-sum invariant on the aggregate.
  EXPECT_EQ(OutcomeSum(quad_stats), quad_stats.template_requests);
  EXPECT_EQ(quad_stats.template_requests, trace.queries.size());
  EXPECT_EQ(OutcomeSum(solo_stats), solo_stats.template_requests);
}

// A TOP template through the tier: an entry whose answer the TOP cut is
// cached truncated, wherever it is admitted, so it serves exact repeats
// only, and a concentric subset misses instead of selecting from it. The
// owner fetches for a prober and answers with its cut answer; the tier
// answers byte for byte what one proxy answers, with the same origin trips.
TEST(MultiProxyTier, TopTemplateMatchesSingleProxyByteForByte) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  core::TemplateRegistry templates;
  ASSERT_NO_FATAL_FAILURE(RegisterTopTemplate(&templates));

  workload::Trace trace = OracleTrace();
  trace.form_path = kTopForm.path;
  TierStack quad(sky, TierOptions(4), &templates, kTopForm);
  TierStack solo(sky, TierOptions(1), &templates, kTopForm);
  for (size_t i = 0; i < trace.queries.size(); ++i) {
    net::HttpRequest request = workload::MakeRequest(trace, trace.queries[i]);
    net::HttpResponse from_quad = quad.tier->Handle(request);
    net::HttpResponse from_solo = solo.tier->Handle(request);
    ASSERT_EQ(from_quad.status_code, 200) << "query " << i;
    ASSERT_EQ(from_solo.status_code, 200) << "query " << i;
    ASSERT_EQ(from_quad.body, from_solo.body) << "query " << i;
  }

  // The cut bit: some base held more than ten objects.
  const core::CacheStore& solo_cache = solo.tier->proxy(0).cache();
  size_t truncated = 0;
  for (uint64_t id : solo_cache.AllIds()) {
    truncated += solo_cache.Find(id)->truncated ? 1 : 0;
  }
  EXPECT_GT(truncated, 0u);
  const core::ProxyStats quad_stats = quad.tier->AggregateStats();
  EXPECT_EQ(quad.app->form_queries_served(), solo.app->form_queries_served());
  EXPECT_EQ(quad_stats.misses, solo.tier->AggregateStats().misses);
  EXPECT_GT(quad_stats.peer_hits, 0u);
  EXPECT_EQ(OutcomeSum(quad_stats), quad_stats.template_requests);
}

// The invariant holds under a concurrent replay of a generated trace with
// the full relationship mix, and the replay is error-free.
TEST(MultiProxyTier, StatsSumInvariantUnderConcurrentReplay) {
  workload::SkyExperiment::Options sky_options;
  sky_options.trace.num_queries = 200;
  workload::SkyExperiment sky(sky_options);

  workload::ReplayOptions replay;
  replay.tier = TierOptions(4);
  replay.rbe.clients = 4;
  workload::ReplayResult output = sky.Replay(sky.trace(), replay);

  EXPECT_EQ(output.rbe.failed, 0u);
  const core::ProxyStats& stats = output.proxy_stats;
  EXPECT_EQ(stats.template_requests, 200u);
  EXPECT_EQ(OutcomeSum(stats), stats.template_requests);
  // Peer accounting consistency: every peer hit came from some probe, and
  // per-proxy stats sum to the aggregate.
  EXPECT_GE(stats.peer_lookups, stats.peer_hits);
  uint64_t per_proxy_requests = 0;
  for (const core::ProxyStats& p : output.per_proxy) {
    per_proxy_requests += p.template_requests;
    EXPECT_EQ(OutcomeSum(p), p.template_requests);
  }
  EXPECT_EQ(per_proxy_requests, stats.template_requests);
}

// Cross-proxy thundering herd: eight concurrent clients ask four proxies
// for the same cold region; the owning proxy makes the one origin fetch and
// everyone else rides it (local single-flight followers, or lookups that
// join the owner's flight).
TEST(MultiProxyTier, CrossProxyThunderingHerdFetchesOriginOnce) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};

  workload::Trace herd;
  herd.form_path = "/radial";
  for (int i = 0; i < 8; ++i) {
    herd.queries.push_back(MakeQuery(187.0, 31.0, 12.0));
  }
  workload::ReplayOptions replay;
  replay.tier = TierOptions(4);
  replay.rbe.clients = 8;
  workload::ReplayResult output = sky.Replay(herd, replay);

  EXPECT_EQ(output.rbe.failed, 0u);
  EXPECT_EQ(output.origin_form_queries, 1u)
      << "the herd must collapse onto one origin fetch";
  const core::ProxyStats& stats = output.proxy_stats;
  EXPECT_EQ(stats.template_requests, 8u);
  EXPECT_EQ(OutcomeSum(stats), 8u);
  EXPECT_EQ(stats.misses, 1u) << "only the request the owner fetched for misses";
}

// --- Peer-fault suite -------------------------------------------------------

/// Sends `query` through proxy `prober` and returns the index of the sibling
/// it probed (or `prober` itself when it owned the key locally), by diffing
/// the per-peer wire counters around the call.
size_t ProbeTarget(ProxyTier& tier, size_t prober,
                   const workload::Trace& trace,
                   const workload::TraceQuery& query) {
  const size_t n = tier.num_proxies();
  std::vector<uint64_t> before(n, 0);
  for (size_t to = 0; to < n; ++to) {
    if (to != prober) before[to] = tier.peer_channel(prober, to).requests();
  }
  net::HttpResponse response =
      tier.proxy(prober).Handle(workload::MakeRequest(trace, query));
  EXPECT_EQ(response.status_code, 200);
  for (size_t to = 0; to < n; ++to) {
    if (to != prober &&
        tier.peer_channel(prober, to).requests() > before[to]) {
      return to;
    }
  }
  return prober;
}

/// Finds >= `want` fresh disjoint queries all owned by the same sibling of
/// proxy 0, using a throwaway discovery tier (ring placement is a pure
/// function of the node ids, so the result transfers to any equal-size
/// tier). Returns {owner, queries}.
std::pair<size_t, std::vector<workload::TraceQuery>> QueriesOwnedBySibling(
    workload::SkyExperiment& sky, const workload::Trace& trace, size_t want) {
  TierStack discovery(sky, TierOptions(4));
  std::map<size_t, std::vector<workload::TraceQuery>> by_owner;
  for (int i = 0; i < 40; ++i) {
    workload::TraceQuery query =
        MakeQuery(125.0 + 3.0 * i, -2.0 + 1.5 * i, 8.0);
    size_t owner = ProbeTarget(*discovery.tier, 0, trace, query);
    if (owner == 0) continue;  // Proxy 0 owns it: no peer involved.
    by_owner[owner].push_back(query);
    if (by_owner[owner].size() >= want) return {owner, by_owner[owner]};
  }
  ADD_FAILURE() << "discovery did not find enough sibling-owned queries";
  return {1, {}};
}

// A herd at a prober: concurrent requests for one region at a proxy that
// does not own it. The first leads the proxy's flight and asks the owner,
// the rest join that flight. One origin fetch answers them all with the
// owner's entry, and the prober keeps no copy of it: the region stays
// cached with its owner only.
TEST(MultiProxyTier, ProberHerdIsServedTheOwnersEntryWithoutCachingIt) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  workload::Trace shape;
  shape.form_path = "/radial";
  auto [owner, owned] = QueriesOwnedBySibling(sky, shape, 1);
  ASSERT_FALSE(owned.empty());

  TierStack stack(sky, TierOptions(4));
  ProxyTier& tier = *stack.tier;
  GatedOrigin& gate = *stack.gate;
  const net::HttpRequest request = workload::MakeRequest(shape, owned[0]);

  constexpr size_t kHerd = 6;
  std::vector<net::HttpResponse> responses(kHerd);
  std::vector<std::thread> clients;
  gate.CloseGate();
  clients.emplace_back([&] { responses[0] = tier.proxy(0).Handle(request); });
  gate.AwaitRequests(1);  // The owner fetches inside proxy 0's lookup.
  for (size_t i = 1; i < kHerd; ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = tier.proxy(0).Handle(request); });
  }
  // Give the followers time to join proxy 0's flight, then release the
  // owner's fetch.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.OpenGate();
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(gate.requests(), 1u) << "the herd must make one origin fetch";
  const core::ProxyStats stats = tier.proxy(0).stats();
  EXPECT_EQ(stats.misses, 1u) << "the owner's fetch is the leader's miss";
  // A follower that raced past the flight's completion finds no copy at
  // proxy 0 and asks the owner again, which answers from its cache; either
  // way it is served the owner's entry without a second origin trip.
  EXPECT_EQ(stats.collapsed + stats.peer_hits, kHerd - 1);
  EXPECT_EQ(stats.peer_lookups, 1 + stats.peer_hits);
  EXPECT_EQ(tier.peer_channel(0, owner).requests(), stats.peer_lookups);
  // The owner keeps the region and answers it from its cache, with the
  // bytes every member of the herd got.
  const uint64_t owner_hits = tier.proxy(owner).stats().exact_hits;
  const net::HttpResponse from_owner = tier.proxy(owner).Handle(request);
  ASSERT_EQ(from_owner.status_code, 200);
  EXPECT_EQ(tier.proxy(owner).stats().exact_hits, owner_hits + 1);
  for (const net::HttpResponse& response : responses) {
    ASSERT_EQ(response.status_code, 200);
    EXPECT_EQ(response.body, from_owner.body);
  }
  EXPECT_EQ(tier.proxy(0).cache().num_entries(), 0u)
      << "the prober kept a copy of the owner's entry";
}

/// The objID column of a result document, in document order.
std::vector<int64_t> ObjIds(const std::string& body) {
  std::vector<int64_t> ids;
  auto table = sql::TableFromXml(body);
  EXPECT_TRUE(table.ok());
  if (!table.ok()) return ids;
  for (const sql::Row& row : table->rows()) ids.push_back(row[0].AsInt());
  return ids;
}

// A TOP template's herd at a prober. The owner fetches a cone whose answer
// the TOP cuts, and the prober hands that answer to its followers marked
// truncated, as it holds the template's N rows: a follower asking a
// concentric subset that holds an object the cut dropped fetches on its
// own instead of selecting from the cut entry, and both answers equal one
// proxy's.
TEST(MultiProxyTier, TopTemplateProberHerdKeepsTheCut) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  core::TemplateRegistry templates;
  ASSERT_NO_FATAL_FAILURE(RegisterTopTemplate(&templates));
  workload::Trace shape;
  shape.form_path = kTopForm.path;

  // A cone on a catalog cluster that a sibling of proxy 0 owns, and its
  // concentric subset, whose own ten brightest include an object outside
  // the cone's ten brightest.
  TierStack discovery(sky, TierOptions(4), &templates, kTopForm);
  TierStack solo(sky, TierOptions(1), &templates, kTopForm);
  workload::TraceQuery cone, subset;
  std::string cone_answer, subset_answer;
  bool found = false;
  for (const auto& [ra, dec] : sky.trace_config().hotspot_centers) {
    cone = MakeQuery(ra, dec, 24.0);
    subset = MakeQuery(ra, dec, 9.0);
    if (ProbeTarget(*discovery.tier, 0, shape, cone) == 0) continue;
    cone_answer = solo.tier->Handle(workload::MakeRequest(shape, cone)).body;
    subset_answer =
        solo.tier->Handle(workload::MakeRequest(shape, subset)).body;
    const std::vector<int64_t> top = ObjIds(cone_answer);
    const std::vector<int64_t> sub = ObjIds(subset_answer);
    found = top.size() == 10 &&
            std::any_of(sub.begin(), sub.end(), [&](int64_t id) {
              return std::find(top.begin(), top.end(), id) == top.end();
            });
    if (found) break;
  }
  ASSERT_TRUE(found) << "no sibling-owned cluster cone fits the case";

  TierStack stack(sky, TierOptions(4), &templates, kTopForm);
  ProxyTier& tier = *stack.tier;
  GatedOrigin& gate = *stack.gate;
  net::HttpResponse from_leader, from_follower;
  gate.CloseGate();
  std::thread leader([&] {
    from_leader = tier.proxy(0).Handle(workload::MakeRequest(shape, cone));
  });
  gate.AwaitRequests(1);  // The owner fetches the cone for proxy 0.
  std::thread follower([&] {
    from_follower =
        tier.proxy(0).Handle(workload::MakeRequest(shape, subset));
  });
  // Give the follower time to join proxy 0's flight, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.OpenGate();
  leader.join();
  follower.join();

  EXPECT_EQ(from_leader.body, cone_answer);
  EXPECT_EQ(from_follower.body, subset_answer)
      << "a follower selected from the cut entry";
  EXPECT_EQ(gate.requests(), 2u) << "the follower fetches its own answer";
  EXPECT_EQ(tier.proxy(0).stats().collapsed, 0u);
  EXPECT_EQ(tier.proxy(0).cache().num_entries(), 0u);
}

// A query at a proxy that does not own its region, overlapping a cone its
// owner holds: a cluster cone and one shifted 0.1 degrees along ra, whose
// centres share an ownership cell and so an owner. The owner answers the
// lookup with its own First plan, the cached cone's tuples and one /sql
// remainder, instead of the original form query, and the prober serves
// that answer, byte for byte one proxy's, with one proxy's cache
// efficiency.
TEST(MultiProxyTier, OwnerAnswersAProbersOverlapWithItsRemainder) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  workload::Trace shape;
  shape.form_path = "/radial";
  TierStack discovery(sky, TierOptions(4));
  workload::TraceQuery cone, shifted;
  size_t owner = 0;
  for (const auto& [ra, dec] : sky.trace_config().hotspot_centers) {
    cone = MakeQuery(ra, dec, 12.0);
    shifted = MakeQuery(ra + 0.1, dec, 12.0);
    owner = ProbeTarget(*discovery.tier, 0, shape, cone);
    if (owner != 0 && ProbeTarget(*discovery.tier, 0, shape, shifted) == owner) {
      break;
    }
    owner = 0;
  }
  ASSERT_NE(owner, 0u) << "no sibling-owned cluster cone fits the case";
  const size_t prober = (owner + 1) % 4;

  TierStack quad(sky, TierOptions(4));
  TierStack solo(sky, TierOptions(1));
  const net::HttpRequest first = workload::MakeRequest(shape, cone);
  const net::HttpRequest second = workload::MakeRequest(shape, shifted);
  ASSERT_EQ(quad.tier->proxy(owner).Handle(first).status_code, 200);
  ASSERT_EQ(solo.tier->Handle(first).status_code, 200);
  const uint64_t forms = quad.app->form_queries_served();
  const uint64_t sqls = quad.app->sql_queries_served();
  const net::HttpResponse from_quad = quad.tier->proxy(prober).Handle(second);
  const net::HttpResponse from_solo = solo.tier->Handle(second);
  ASSERT_EQ(from_quad.status_code, 200);
  EXPECT_EQ(from_quad.body, from_solo.body);
  EXPECT_EQ(quad.app->form_queries_served(), forms)
      << "the owner sent the original query";
  EXPECT_EQ(quad.app->sql_queries_served(), sqls + 1);
  EXPECT_EQ(solo.app->sql_queries_served(), 1u);
  EXPECT_EQ(quad.tier->proxy(prober).stats().peer_lookups, 1u);
  const core::ProxyStats quad_stats = quad.tier->AggregateStats();
  const core::ProxyStats solo_stats = solo.tier->AggregateStats();
  EXPECT_GT(solo_stats.AverageCacheEfficiency(), 0.0);
  EXPECT_DOUBLE_EQ(quad_stats.AverageCacheEfficiency(),
                   solo_stats.AverageCacheEfficiency());
  EXPECT_EQ(quad.tier->proxy(prober).cache().num_entries(), 0u);
}

TEST(MultiProxyTier, PeerOutageTripsBreakerFallsBackAndRecovers) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  workload::Trace shape;  // Only provides the form path for MakeRequest.
  shape.form_path = "/radial";

  auto [owner, owned] = QueriesOwnedBySibling(sky, shape, 4);
  ASSERT_GE(owned.size(), 4u);

  ProxyTierOptions options = TierOptions(4);
  options.peer_breaker.enabled = true;
  options.peer_breaker.window_size = 8;
  options.peer_breaker.min_samples = 2;
  options.peer_breaker.failure_threshold = 0.5;
  options.peer_breaker.open_cooldown_micros = 5'000'000;
  options.peer_breaker.half_open_successes = 1;
  const int64_t outage_end = 120'000'000;  // Virtual two minutes.
  options.peer_faults[owner] = net::OutageProfile(0, outage_end);
  TierStack stack(sky, options);
  ProxyTier& tier = *stack.tier;
  const net::CircuitBreaker& breaker = tier.peer_channel(0, owner).breaker();

  // During the outage every probe to the owner fails; the request falls
  // back to the origin with the degraded marker, and the per-peer breaker
  // accumulates failures until it opens.
  uint64_t origin_before = stack.app->form_queries_served();
  for (size_t i = 0; i < 2; ++i) {
    net::HttpResponse response =
        tier.proxy(0).Handle(workload::MakeRequest(shape, owned[i]));
    ASSERT_EQ(response.status_code, 200) << "fallback must still answer";
    EXPECT_NE(response.body.find("<Result"), std::string::npos);
    EXPECT_EQ(response.headers.at("X-Peer-Degraded"), "1");
    EXPECT_EQ(response.headers.count("X-Peer-Served"), 0u);
  }
  EXPECT_EQ(breaker.state(), net::BreakerState::kOpen);
  EXPECT_GE(tier.proxy(0).stats().peer_failures, 2u);
  EXPECT_EQ(stack.app->form_queries_served(), origin_before + 2)
      << "every degraded request was answered by the origin";

  // Open breaker: the next owned query is refused locally — no wire traffic
  // to the sick peer — and still answered from the origin.
  const uint64_t wire_before = tier.peer_channel(0, owner).requests();
  net::HttpResponse shortcut =
      tier.proxy(0).Handle(workload::MakeRequest(shape, owned[2]));
  ASSERT_EQ(shortcut.status_code, 200);
  EXPECT_EQ(shortcut.headers.at("X-Peer-Degraded"), "1");
  EXPECT_EQ(tier.peer_channel(0, owner).requests(), wire_before);

  // Past the outage and the cooldown, the half-open trial probe goes
  // through, succeeds (a clean miss is a healthy answer), closes the
  // breaker, and the tier cooperates again.
  stack.clock.Advance(outage_end + options.peer_breaker.open_cooldown_micros);
  net::HttpResponse trial =
      tier.proxy(0).Handle(workload::MakeRequest(shape, owned[3]));
  ASSERT_EQ(trial.status_code, 200);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);
  EXPECT_GT(tier.peer_channel(0, owner).requests(), wire_before);

  // The recovered path serves peer hits again: the owner fetched owned[3]
  // for proxy 0's trial lookup and kept the entry, so a different prober
  // now gets it from the owner without an origin trip.
  const size_t other = owner == 1 ? 2 : 1;
  const uint64_t origin_mid = stack.app->form_queries_served();
  net::HttpResponse peer_served =
      tier.proxy(other).Handle(workload::MakeRequest(shape, owned[3]));
  ASSERT_EQ(peer_served.status_code, 200);
  EXPECT_EQ(peer_served.headers.at("X-Peer-Served"), "1");
  EXPECT_EQ(stack.app->form_queries_served(), origin_mid);
  EXPECT_GT(tier.proxy(other).stats().peer_hits, 0u);
}

// A client budget the owner's origin fetch overruns is the origin's fault:
// the owner answers a clean miss, the prober refuses the request for its
// deadline, and no peer is charged a failure.
TEST(MultiProxyTier, BudgetOverrunByOwnerFetchChargesNoPeer) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  workload::Trace shape;
  shape.form_path = "/radial";
  auto [owner, owned] = QueriesOwnedBySibling(sky, shape, 3);
  ASSERT_GE(owned.size(), 3u);

  TierStack stack(sky, TierOptions(4));
  ProxyTier& tier = *stack.tier;
  for (const workload::TraceQuery& query : owned) {
    net::HttpRequest request = workload::MakeRequest(shape, query);
    // Past the cheapest WAN trip, short of a whole answer's.
    request.headers[net::kDeadlineBudgetHeader] = "600000";
    EXPECT_EQ(tier.proxy(0).Handle(request).status_code, 503);
  }
  const core::ProxyStats stats = tier.proxy(0).stats();
  EXPECT_EQ(stats.peer_lookups, owned.size());
  EXPECT_EQ(stats.peer_failures, 0u);
  EXPECT_EQ(tier.peer_channel(0, owner).failures(), 0u);
  EXPECT_EQ(stats.deadline_exceeded, owned.size());
}

// A sibling that answers 200s full of garbage must never poison the
// requester: the probe is counted as a peer failure, the request falls back
// to the origin, and the answer matches a tier that never spoke to a peer.
TEST(MultiProxyTier, GarbagePeerResponsesAreNeverServed) {
  workload::SkyExperiment sky{workload::SkyExperiment::Options()};
  workload::Trace shape;
  shape.form_path = "/radial";

  auto [owner, owned] = QueriesOwnedBySibling(sky, shape, 2);
  ASSERT_GE(owned.size(), 2u);

  ProxyTierOptions options = TierOptions(4);
  net::FaultProfile garbage;
  garbage.garbage_rate = 1.0;
  options.peer_faults[owner] = garbage;
  TierStack faulty(sky, options);
  TierStack clean(sky, TierOptions(1));

  // Seed the owner so probes are answered with a 200 entry — the response
  // the injector then corrupts. A direct client request to the owning proxy
  // bypasses the inbound-peer fault layer, like router traffic does.
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(faulty.tier->proxy(owner)
                  .Handle(workload::MakeRequest(shape, owned[i]))
                  .status_code,
              200);
  }

  for (size_t i = 0; i < 2; ++i) {
    net::HttpRequest request = workload::MakeRequest(shape, owned[i]);
    net::HttpResponse from_faulty = faulty.tier->proxy(0).Handle(request);
    net::HttpResponse reference = clean.tier->Handle(request);
    ASSERT_EQ(from_faulty.status_code, 200);
    EXPECT_EQ(from_faulty.body, reference.body)
        << "garbage from the peer must not reach the client";
    std::string header_dump;
    for (const auto& [k, v] : from_faulty.headers) {
      header_dump += k + "=" + v + " ";
    }
    ASSERT_EQ(from_faulty.headers.count("X-Peer-Degraded"), 1u)
        << "headers: " << header_dump;
    EXPECT_EQ(from_faulty.headers.at("X-Peer-Degraded"), "1");
  }
  EXPECT_GE(faulty.tier->proxy(0).stats().peer_failures, 1u);
  EXPECT_EQ(faulty.tier->AggregateStats().peer_hits, 0u);
  // Repeats are served from the requester's own (clean) cache.
  net::HttpResponse repeat =
      faulty.tier->proxy(0).Handle(workload::MakeRequest(shape, owned[0]));
  EXPECT_EQ(repeat.status_code, 200);
  EXPECT_EQ(repeat.body, clean.tier->Handle(
                             workload::MakeRequest(shape, owned[0])).body);
}

}  // namespace
}  // namespace fnproxy
