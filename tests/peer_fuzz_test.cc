// Seeded mutation fuzzing of the cooperative tier's one peer message,
// /peer/lookup (docs/FORMATS.md §11).
//
// Answers: a real owner's `fetched` and `hit` answers (the result document
// its own client would get) get mutated status codes, X-Peer-Outcome values
// and tuple-count headers, and mutated bodies: truncations, markup bit
// flips, duplicated tags, lying rows= attributes, failure attributes on the
// root and foreign documents. A fake sibling serves each to a prober. The
// prober's answer must hold the tuples a peerless proxy's holds; an answer
// it cannot use (an unknown outcome, a count header that is missing, not
// digits, past 2^64 - 1 or caching more than the total, a body that does not
// parse or is partial="true") counts one fnproxy_peer_failures_total; an
// answer it serves leaves its cache empty and its record holding the owner's
// counts, and otherwise it admits only the peerless proxy's entries, as
// regions stay cached with their owners. Mutations change framing and markup,
// never a value's digits: the wire carries no checksum, so a sibling that
// sends well-formed wrong values is trusted, as the origin is.
//
// Lookups: the lookup a real prober sends gets mutated query strings,
// X-Peer-Form paths and budgets, and goes to an owner. The owner answers
// every one with 200, 400 or 404; it refuses with 400, and fetches nothing,
// for each request it cannot instantiate; and what it fetches is the
// origin's answer.
//
// One well-formed answer the prober's plan cannot order (a TOP template's
// answer without its ORDER BY column) sends the query to the origin, and
// the prober's record keeps none of the owner's counts.
//
// The inputs in peer_fuzz_fixtures/ (serialized answers and lookups) are
// minimal cases of each rule; they are replayed first. The seed and the
// mutation budget are fixed, so a run is reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/hash_ring.h"
#include "core/proxy.h"
#include "core/template_registry.h"
#include "net/http_wire.h"
#include "net/network.h"
#include "net/peer_channel.h"
#include "server/database.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "storage/wire.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/experiment.h"

namespace fnproxy {
namespace {

using net::HttpRequest;
using net::HttpResponse;

constexpr uint64_t kSeed = 2004;
constexpr int kMutationsPerKind = 30;

/// A TOP template over the same function: a cone's three brightest objects.
constexpr char kBrightestSql[] =
    "SELECT TOP 3 p.objID, p.r "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
    "JOIN PhotoPrimary AS p ON n.objID = p.objID "
    "ORDER BY p.r";

HttpRequest Radial(double ra, double dec, double radius) {
  HttpRequest request;
  request.path = "/radial";
  request.query_params["ra"] = std::to_string(ra);
  request.query_params["dec"] = std::to_string(dec);
  request.query_params["radius"] = std::to_string(radius);
  return request;
}

/// Header value under its canonical or its wire-lowercased name.
const std::string* Header(const std::map<std::string, std::string>& headers,
                          const std::string& name) {
  for (const std::string& key : {name, util::ToLower(name)}) {
    auto it = headers.find(key);
    if (it != headers.end()) return &it->second;
  }
  return nullptr;
}

/// A tuple-count header's value: digits only, at most 2^64 - 1.
std::optional<uint64_t> Count(const HttpResponse& answer,
                              const std::string& name) {
  const std::string* text = Header(answer.headers, name);
  if (text == nullptr || text->empty() ||
      text->find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (const char c : *text) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

/// Sets a header, dropping any wire-lowercased twin.
void SetHeader(std::map<std::string, std::string>* headers,
               const std::string& name, const std::string& value) {
  headers->erase(util::ToLower(name));
  (*headers)[name] = value;
}

/// A cache entry as text: its region (round-trip decimals) and result.
struct EntryText {
  std::string region;
  std::string result;
  bool operator==(const EntryText&) const = default;
};

/// A sibling that answers every request with one scripted response and
/// records what it is sent.
class ScriptedSibling final : public net::HttpHandler {
 public:
  explicit ScriptedSibling(HttpResponse answer) : answer_(std::move(answer)) {}
  HttpResponse Handle(const HttpRequest& request) override {
    requests.push_back(request);
    return answer_;
  }
  std::vector<HttpRequest> requests;

 private:
  HttpResponse answer_;
};

/// What the contract makes of an answer to a lookup.
enum class Expect {
  kFailure,  // 5xx, a transport error, or a 2xx answer the prober cannot use.
  kMiss,     // Any other status.
  kServed,   // A clean, complete answer with its outcome and counts.
};

class PeerFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyCatalogConfig config;
    config.num_objects = 3000;
    config.num_clusters = 3;
    config.seed = 19;
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
    auto top =
        core::QueryTemplate::Create("brightest", "/brightest", kBrightestSql);
    ASSERT_TRUE(top.ok());
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

  /// One proxy over a fresh origin on a private clock, alone or with one
  /// sibling that owns every region key.
  struct Stack {
    util::SimulatedClock clock;
    server::OriginWebApp app{db_, &clock};
    net::SimulatedChannel origin{&app, net::LinkConfig{0.0, 1e9}, &clock};
    std::unique_ptr<ScriptedSibling> sibling;
    std::unique_ptr<net::SimulatedChannel> wire;
    std::unique_ptr<net::PeerChannel> peer;
    core::HashRing ring;
    std::unique_ptr<core::FunctionProxy> proxy;

    explicit Stack(const HttpResponse* sibling_answer) {
      EXPECT_TRUE(
          app.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
      EXPECT_TRUE(app.RegisterForm("/brightest", kBrightestSql).ok());
      proxy = std::make_unique<core::FunctionProxy>(
          core::ProxyConfig{}, templates_, &origin, &clock);
      if (sibling_answer == nullptr) return;
      sibling = std::make_unique<ScriptedSibling>(*sibling_answer);
      wire = std::make_unique<net::SimulatedChannel>(
          sibling.get(), net::LinkConfig{0.0, 1e9}, &clock);
      peer = std::make_unique<net::PeerChannel>(
          "sibling", wire.get(), net::CircuitBreakerConfig{}, &clock);
      ring.AddNode("sibling");
      proxy->set_peer_group({"self", &ring, {{"sibling", peer.get()}}});
    }

    std::vector<EntryText> Entries() const {
      std::vector<EntryText> entries;
      for (uint64_t id : proxy->cache().AllIds()) {
        auto entry = proxy->cache().Find(id);
        entries.push_back(
            {entry->region->ToString(), sql::TableToXml(entry->result)});
      }
      return entries;
    }
  };

  /// The region of a request for `form` with `query`, as a proxy
  /// instantiates it: an error when no template serves the form, or a
  /// parameter is missing or malformed.
  static util::StatusOr<std::unique_ptr<geometry::Region>> RegionOf(
      const std::string& form,
      const std::map<std::string, std::string>& query) {
    const core::QueryTemplate* qt = templates_->FindByPath(form);
    const core::FunctionTemplate* ft =
        qt != nullptr ? templates_->FindFunctionTemplate(qt->function_name())
                      : nullptr;
    if (ft == nullptr) return util::Status::NotFound("no template");
    std::map<std::string, sql::Value> params;
    for (const auto& [key, text] : query) {
      params[key] = sql::ParseValueFromText(text);
    }
    FNPROXY_ASSIGN_OR_RETURN(auto args, qt->FunctionArgs(params));
    FNPROXY_RETURN_NOT_OK(qt->NonSpatialFingerprint(params).status());
    return ft->BuildRegion(args);
  }

  /// Whether a lookup names a template request the owner can instantiate.
  static bool Instantiable(const HttpRequest& lookup) {
    const std::string* form = Header(lookup.headers, "X-Peer-Form");
    return form != nullptr && RegionOf(*form, lookup.query_params).ok();
  }

  static Expect Classify(const HttpResponse& answer) {
    if (answer.transport_error() || answer.status_code >= 500) {
      return Expect::kFailure;
    }
    if (!answer.ok()) return Expect::kMiss;
    const std::string* outcome = Header(answer.headers, "X-Peer-Outcome");
    if (outcome == nullptr ||
        (*outcome != "hit" && *outcome != "flight" && *outcome != "fetched")) {
      return Expect::kFailure;
    }
    const auto total = Count(answer, "X-Peer-Tuples-Total");
    const auto cached = Count(answer, "X-Peer-Tuples-From-Cache");
    if (!total || !cached || *cached > *total) return Expect::kFailure;
    sql::ResultXmlAttrs attrs;
    if (!sql::TableFromXml(answer.body, &attrs).ok() || attrs.partial) {
      return Expect::kFailure;
    }
    return Expect::kServed;
  }

  /// A result document with its rows sorted: a query without ORDER BY may
  /// list its tuples in any order.
  static std::string SortedRows(const std::string& body) {
    const size_t first = body.find("<Row>");
    if (first == std::string::npos) return body;
    const size_t end = body.rfind("</Row>") + 6;
    std::vector<std::string> rows;
    for (size_t at = first; at < end;) {
      const size_t next = body.find("</Row>", at) + 6;
      rows.push_back(body.substr(at, next - at));
      at = next;
    }
    std::sort(rows.begin(), rows.end());
    std::string sorted = body.substr(0, first);
    for (const std::string& row : rows) sorted += row;
    return sorted + body.substr(end);
  }

  /// Serves `answer` to a prober asking `query` and checks the contract in
  /// the file comment. Returns what the contract expected.
  static Expect CheckAnswer(const HttpResponse& answer,
                            const HttpRequest& query,
                            const std::string& what) {
    SCOPED_TRACE(what);
    Stack peerless(nullptr);
    const HttpResponse reference = peerless.proxy->Handle(query);
    EXPECT_EQ(reference.status_code, 200);

    Stack prober(&answer);
    const HttpResponse served = prober.proxy->Handle(query);
    const Expect expect = Classify(answer);
    EXPECT_EQ(served.status_code, 200);
    EXPECT_EQ(SortedRows(served.body), SortedRows(reference.body));
    // One lookup, counted once, and nothing else sent to the sibling.
    EXPECT_EQ(prober.sibling->requests.size(), 1u);
    for (const HttpRequest& sent : prober.sibling->requests) {
      EXPECT_EQ(sent.path, "/peer/lookup");
    }
    const core::ProxyStats stats = prober.proxy->stats();
    EXPECT_EQ(stats.peer_lookups, 1u);
    EXPECT_EQ(stats.peer_failures, expect == Expect::kFailure ? 1u : 0u);

    const std::vector<EntryText> peerless_entries = peerless.Entries();
    for (const EntryText& entry : prober.Entries()) {
      const bool known =
          std::find(peerless_entries.begin(), peerless_entries.end(),
                    entry) != peerless_entries.end();
      EXPECT_TRUE(known) << "admitted an entry no correct proxy holds:\n"
                         << entry.region << entry.result;
    }
    if (expect == Expect::kServed) {
      EXPECT_EQ(prober.proxy->cache().num_entries(), 0u)
          << "a served sibling answer left an entry in the prober's cache";
      // A sibling's fetch is this request's miss; a hit or flight is the
      // sibling's answer.
      const bool fetched =
          *Header(answer.headers, "X-Peer-Outcome") == "fetched";
      EXPECT_EQ(served.headers.count("X-Peer-Served"), fetched ? 0u : 1u);
      EXPECT_EQ(stats.misses, fetched ? 1u : 0u);
      EXPECT_EQ(stats.origin_form_requests, 0u);
      // The owner's plan made the origin trip, if any, and counted the
      // answer's tuples.
      const core::QueryRecord& record = stats.records.back();
      EXPECT_EQ(record.contacted_origin, fetched);
      EXPECT_EQ(record.tuples_total,
                *Count(answer, "X-Peer-Tuples-Total"));
      EXPECT_EQ(record.tuples_from_cache,
                *Count(answer, "X-Peer-Tuples-From-Cache"));
    } else {
      EXPECT_EQ(served.headers.count("X-Peer-Served"), 0u);
      EXPECT_EQ(stats.origin_form_requests, 1u);
    }
    return expect;
  }

  /// Sends `lookup` to a fresh owner and checks the owner's side of the
  /// contract. Returns whether the lookup was instantiable.
  static bool CheckLookup(const HttpRequest& lookup, const std::string& what) {
    SCOPED_TRACE(what);
    Stack owner(nullptr);
    const HttpResponse answer = owner.proxy->Handle(lookup);
    const bool instantiable = Instantiable(lookup);
    if (!instantiable) {
      EXPECT_EQ(answer.status_code, 400);
      EXPECT_EQ(owner.app.form_queries_served(), 0u)
          << "fetched for a request that does not instantiate";
      EXPECT_EQ(owner.proxy->cache().num_entries(), 0u);
      return false;
    }
    EXPECT_LE(owner.app.form_queries_served(), 1u);
    if (answer.status_code == 404) return true;
    EXPECT_EQ(answer.status_code, 200) << answer.body;
    const std::string* outcome = Header(answer.headers, "X-Peer-Outcome");
    EXPECT_TRUE(outcome != nullptr && *outcome == "fetched");
    // What the owner answers is the origin's answer to the form request,
    // none of it from its empty cache.
    HttpRequest form;
    form.path = *Header(lookup.headers, "X-Peer-Form");
    form.query_params = lookup.query_params;
    util::SimulatedClock clock;
    server::OriginWebApp direct(db_, &clock);
    EXPECT_TRUE(
        direct.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    const HttpResponse origin = direct.Handle(form);
    EXPECT_EQ(answer.body, origin.body);
    EXPECT_EQ(Count(answer, "X-Peer-Tuples-From-Cache"), 0u);
    return true;
  }

  /// The lookup a real prober sends for `query`, captured by a sibling.
  static HttpRequest LookupFor(const HttpRequest& query) {
    HttpResponse miss;
    miss.status_code = 404;
    Stack prober(&miss);
    prober.proxy->Handle(query);
    EXPECT_EQ(prober.sibling->requests.size(), 1u);
    return prober.sibling->requests.at(0);
  }

  /// A real owner's answers, each with the prober query it answers: its
  /// fetch of a cone, its hit on the same cone, its hit on a concentric
  /// subset, selected from the cone's entry, and its answer to an
  /// overlapping cone, merged from the cone's entry and a remainder.
  struct Source {
    HttpRequest query;
    HttpResponse answer;
  };
  static std::vector<Source> Sources() {
    const HttpRequest cone = Radial(185, 33, 20);  // Six objects.
    const HttpRequest subset = Radial(185, 33, 9);  // One of them.
    const HttpRequest overlap = Radial(185.2, 33, 20);
    Stack owner(nullptr);
    std::vector<Source> sources;
    for (const HttpRequest& query : {cone, cone, subset, overlap}) {
      HttpResponse answer = owner.proxy->Handle(LookupFor(query));
      EXPECT_EQ(answer.status_code, 200);
      EXPECT_EQ(Classify(answer), Expect::kServed) << answer.body;
      sources.push_back({query, answer});
    }
    const char* const outcomes[] = {"fetched", "hit", "hit", "fetched"};
    for (size_t i = 0; i < sources.size(); ++i) {
      const std::string* outcome =
          Header(sources[i].answer.headers, "X-Peer-Outcome");
      EXPECT_TRUE(outcome != nullptr && *outcome == outcomes[i]) << i;
    }
    // The overlap's answer is partly the cone's: one remainder trip.
    EXPECT_GT(Count(sources.back().answer, "X-Peer-Tuples-From-Cache"), 0u);
    EXPECT_EQ(owner.app.form_queries_served(), 1u);
    EXPECT_EQ(owner.app.sql_queries_served(), 1u);
    return sources;
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static core::TemplateRegistry* templates_;
};

server::Database* PeerFuzzTest::db_ = nullptr;
server::SkyGrid* PeerFuzzTest::grid_ = nullptr;
core::TemplateRegistry* PeerFuzzTest::templates_ = nullptr;

// --- Answer mutations --------------------------------------------------------

template <size_t N>
std::string Pick(const char* const (&choices)[N], util::Random& rng) {
  return choices[rng.NextUint64(N)];
}

HttpResponse MutateStatus(HttpResponse answer, util::Random& rng) {
  const int kCodes[] = {0, 200, 204, 301, 400, 404, 500, 503};
  answer.status_code = kCodes[rng.NextUint64(std::size(kCodes))];
  return answer;
}

/// Rewrites or drops X-Peer-Outcome.
HttpResponse MutateOutcome(HttpResponse answer, util::Random& rng) {
  const char* const kValues[] = {"hit", "flight", "fetched", "miss", "lead",
                                 "",    "HIT",    "fetched ", "0",   "1"};
  if (rng.NextUint64(5) == 0) {
    answer.headers.erase("X-Peer-Outcome");
  } else {
    SetHeader(&answer.headers, "X-Peer-Outcome", Pick(kValues, rng));
  }
  return answer;
}

/// Rewrites or drops one tuple-count header: other digits, a signed,
/// spaced or empty value, a value past 2^64 - 1, or 2^64 - 1 itself.
HttpResponse MutateCount(HttpResponse answer, util::Random& rng) {
  const char* const kNames[] = {"X-Peer-Tuples-Total",
                                "X-Peer-Tuples-From-Cache"};
  const char* const kValues[] = {"0",   "1",    "7",   "01",   "",
                                 "-1",  "+1",   " 1",  "1 ",   "1.0",
                                 "0x1", "abc",  "18446744073709551615",
                                 "18446744073709551616",
                                 "99999999999999999999"};
  const std::string name = Pick(kNames, rng);
  if (rng.NextUint64(5) == 0) {
    answer.headers.erase(name);
  } else {
    SetHeader(&answer.headers, name, Pick(kValues, rng));
  }
  return answer;
}

/// Offsets of markup bytes: inside a tag, outside its quoted values.
std::vector<size_t> MarkupBytes(const std::string& body) {
  std::vector<size_t> offsets;
  bool in_tag = false, in_quote = false;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (!in_tag) {
      if (c == '<') in_tag = true;
    } else if (c == '"') {
      in_quote = !in_quote;
    }
    if (in_tag && !in_quote && c != '"') offsets.push_back(i);
    if (in_tag && !in_quote && c == '>') in_tag = false;
  }
  return offsets;
}

HttpResponse FlipMarkupBits(HttpResponse answer, util::Random& rng) {
  const std::vector<size_t> markup = MarkupBytes(answer.body);
  const uint64_t flips = 1 + rng.NextUint64(3);
  for (uint64_t k = 0; k < flips; ++k) {
    answer.body[markup[rng.NextUint64(markup.size())]] ^=
        static_cast<char>(1u << rng.NextUint64(8));
  }
  return answer;
}

HttpResponse Truncate(HttpResponse answer, util::Random& rng) {
  answer.body.resize(rng.NextUint64(answer.body.size()));
  return answer;
}

/// Repeats one start tag in place, so the element gains an unclosed twin.
HttpResponse DuplicateTag(HttpResponse answer, util::Random& rng) {
  std::vector<size_t> tags;
  for (size_t i = 0; i + 1 < answer.body.size(); ++i) {
    if (answer.body[i] == '<' && answer.body[i + 1] != '/') tags.push_back(i);
  }
  const size_t start = tags[rng.NextUint64(tags.size())];
  const size_t end = answer.body.find('>', start);
  answer.body.insert(start, answer.body.substr(start, end + 1 - start));
  return answer;
}

/// Rewrites the result's rows= with a count that does not describe it.
HttpResponse LyingRows(HttpResponse answer, util::Random& rng) {
  const char* const kLies[] = {"-1", "0", "999999999", "18446744073709551616",
                               "abc", ""};
  const size_t value = answer.body.find("rows=\"") + 6;
  answer.body.replace(value, answer.body.find('"', value) - value,
                      Pick(kLies, rng));
  return answer;
}

/// Adds failure attributes to the result's root element: a partial answer
/// as a degraded owner would serve it, or attributes that read otherwise.
HttpResponse FailureAttrs(HttpResponse answer, util::Random& rng) {
  const char* const kAttrs[] = {
      " partial=\"true\" coverage=\"0.5000\" degraded=\"origin-unreachable\"",
      " partial=\"true\"", " partial=\"1\"", " partial=\"false\"",
      " partial=\"yes\"", " coverage=\"abc\"",
      " degraded=\"deadline-exceeded\""};
  answer.body.insert(answer.body.find('>'), Pick(kAttrs, rng));
  return answer;
}

/// Adds a document the answer does not hold: a region document before the
/// result (the shape a peer answer once had), a second result after it, or
/// a miss in its place.
HttpResponse ForeignDocument(HttpResponse answer, util::Random& rng) {
  switch (rng.NextUint64(3)) {
    case 0:
      answer.body =
          "<Region shape=\"hypersphere\" dims=\"3\"><Center>-0.7 0.06 0.54"
          "</Center><Radius>0.0003</Radius></Region>" +
          answer.body;
      break;
    case 1:
      answer.body += answer.body;
      break;
    default:
      answer.body = "<PeerMiss/>\n";
  }
  return answer;
}

// --- Lookup mutations --------------------------------------------------------

/// Rewrites one query parameter's value, drops or renames one, or adds an
/// unknown one.
HttpRequest MutateQuery(HttpRequest lookup, util::Random& rng) {
  const char* const kValues[] = {"",    "abc",   "nan",    "inf",
                                 "-1",  "1e999", "185.0.1", "0x10",
                                 "1e-999", "99999999999999999999999"};
  auto it = lookup.query_params.begin();
  std::advance(it, rng.NextUint64(lookup.query_params.size()));
  switch (rng.NextUint64(4)) {
    case 0:
      it->second = Pick(kValues, rng);
      break;
    case 1:
      lookup.query_params.erase(it);
      break;
    case 2: {
      std::string renamed = it->first;
      renamed[rng.NextUint64(renamed.size())] ^=
          static_cast<char>(1u << rng.NextUint64(7));
      const std::string value = it->second;
      lookup.query_params.erase(it);
      lookup.query_params[renamed] = value;
      break;
    }
    default:
      lookup.query_params["extra"] = Pick(kValues, rng);
  }
  return lookup;
}

/// Rewrites or drops X-Peer-Form, or the budget in X-Deadline-Micros.
HttpRequest MutateLookupHeader(HttpRequest lookup, util::Random& rng) {
  const char* const kForms[] = {"/radial", "/radia",       "/sql",
                                "",        "/peer/lookup", "/proxy/stats",
                                "radial",  "/RADIAL",      "/radial?ra=1"};
  const char* const kBudgets[] = {"", "0", "1", "-5", "abc", "2500000",
                                  "99999999999999999999"};
  if (rng.NextBool(0.7)) {
    if (rng.NextUint64(5) == 0) {
      lookup.headers.erase("X-Peer-Form");
    } else {
      SetHeader(&lookup.headers, "X-Peer-Form", Pick(kForms, rng));
    }
  } else {
    SetHeader(&lookup.headers, net::kDeadlineBudgetHeader,
              Pick(kBudgets, rng));
  }
  return lookup;
}

// --- Tests -------------------------------------------------------------------

TEST_F(PeerFuzzTest, UnmutatedAnswersAndLookupsKeepTheContract) {
  for (const Source& source : Sources()) {
    EXPECT_EQ(CheckAnswer(source.answer, source.query, "unmutated"),
              Expect::kServed);
    EXPECT_TRUE(CheckLookup(LookupFor(source.query), "unmutated lookup"));
  }
}

// Each fixture's name says what the contract makes of it: an answer the
// prober must count as a peer failure or take as a miss, or a lookup the
// owner must refuse or may serve.
TEST_F(PeerFuzzTest, CommittedFixturesKeepTheContract) {
  // The answers are answers to this query.
  const HttpRequest query = Radial(185, 33, 9);
  size_t fixtures = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(FNPROXY_PEER_FUZZ_FIXTURE_DIR)) {
    const std::string name = file.path().filename().string();
    if (file.path().extension() != ".http") continue;
    auto bytes = storage::ReadFileToString(file.path().string());
    ASSERT_TRUE(bytes.ok()) << name;
    if (name.rfind("answer-", 0) == 0) {
      auto answer = net::ParseWireResponse(*bytes);
      ASSERT_TRUE(answer.ok()) << name;
      const Expect expect = name.rfind("answer-failure-", 0) == 0
                                ? Expect::kFailure
                                : Expect::kMiss;
      EXPECT_EQ(CheckAnswer(*answer, query, name), expect) << name;
    } else {
      auto lookup = net::ParseWireRequest(*bytes);
      ASSERT_TRUE(lookup.ok()) << name;
      EXPECT_EQ(CheckLookup(*lookup, name),
                name.rfind("lookup-refused-", 0) != 0)
          << name;
    }
    ++fixtures;
  }
  EXPECT_GT(fixtures, 0u);
}

TEST_F(PeerFuzzTest, MutatedAnswersNeverServeOrAdmitWrongData) {
  using Mutation = HttpResponse (*)(HttpResponse, util::Random&);
  const std::pair<const char*, Mutation> kinds[] = {
      {"status", MutateStatus},
      {"outcome", MutateOutcome},
      {"count", MutateCount},
      {"markup-bit-flip", FlipMarkupBits},
      {"truncation", Truncate},
      {"duplicated-tag", DuplicateTag},
      {"lying-rows", LyingRows},
      {"failure-attrs", FailureAttrs},
      {"foreign-document", ForeignDocument},
  };
  util::Random rng(kSeed);
  std::map<Expect, size_t> seen;
  const std::vector<Source> sources = Sources();
  for (size_t s = 0; s < sources.size(); ++s) {
    for (const auto& [name, mutate] : kinds) {
      for (int k = 0; k < kMutationsPerKind; ++k) {
        const Expect expect = CheckAnswer(
            mutate(sources[s].answer, rng), sources[s].query,
            std::string(name) + " #" + std::to_string(k) + " of source " +
                std::to_string(s));
        ++seen[expect];
        if (HasFatalFailure()) return;
      }
    }
  }
  // Every side of the contract ran.
  EXPECT_GT(seen[Expect::kFailure], 0u);
  EXPECT_GT(seen[Expect::kMiss], 0u);
  EXPECT_GT(seen[Expect::kServed], 0u);
}

// A well-formed answer the prober's plan still cannot use: a TOP template's
// answer that lacks its ORDER BY column. The prober sends the original query
// to the origin instead, and its record keeps none of the owner's counts, so
// the origin's answer is not credited with cached tuples.
TEST_F(PeerFuzzTest, AnswerThePlanCannotOrderLeavesNoOwnerCounts) {
  HttpRequest query = Radial(185, 33, 20);
  query.path = "/brightest";
  sql::Schema schema;
  schema.AddColumn({"objID", sql::ValueType::kInt});
  sql::Table unordered(schema);
  unordered.AddRow({sql::Value::Int(7)});
  HttpResponse answer;
  answer.status_code = 200;
  answer.headers["X-Peer-Outcome"] = "hit";
  answer.headers["X-Peer-Tuples-Total"] = "1";
  answer.headers["X-Peer-Tuples-From-Cache"] = "1";
  answer.body = sql::TableToXml(unordered);
  ASSERT_EQ(Classify(answer), Expect::kServed);

  Stack peerless(nullptr);
  const HttpResponse reference = peerless.proxy->Handle(query);
  ASSERT_EQ(reference.status_code, 200);
  Stack prober(&answer);
  const HttpResponse served = prober.proxy->Handle(query);
  EXPECT_EQ(served.status_code, 200);
  EXPECT_EQ(served.body, reference.body);
  EXPECT_EQ(served.headers.count("X-Peer-Served"), 0u);
  EXPECT_EQ(prober.sibling->requests.size(), 1u);
  const core::ProxyStats stats = prober.proxy->stats();
  EXPECT_EQ(stats.peer_lookups, 1u);
  EXPECT_EQ(stats.peer_hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.origin_form_requests, 1u);
  const core::QueryRecord& record = stats.records.back();
  EXPECT_TRUE(record.contacted_origin);
  EXPECT_FALSE(record.peer_hit);
  EXPECT_EQ(record.tuples_from_cache, 0u);
  EXPECT_EQ(record.CacheEfficiency(), 0.0);
}

TEST_F(PeerFuzzTest, MutatedLookupsNeverFetchWhatDoesNotInstantiate) {
  using Mutation = HttpRequest (*)(HttpRequest, util::Random&);
  const std::pair<const char*, Mutation> kinds[] = {
      {"query-string", MutateQuery},
      {"header", MutateLookupHeader},
  };
  util::Random rng(kSeed);
  size_t instantiable = 0, refused = 0;
  for (const HttpRequest& query :
       {Radial(185, 33, 9), Radial(184, 34, 4), Radial(150, 10, 3)}) {
    const HttpRequest lookup = LookupFor(query);
    for (const auto& [name, mutate] : kinds) {
      for (int k = 0; k < 3 * kMutationsPerKind; ++k) {
        const bool ok = CheckLookup(
            mutate(lookup, rng),
            std::string(name) + " #" + std::to_string(k) + " of " +
                query.ToUrl());
        ++(ok ? instantiable : refused);
      }
    }
  }
  EXPECT_GT(instantiable, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace fnproxy
