// Seeded mutation fuzzing of the cooperative tier's one peer message,
// /peer/lookup (docs/FORMATS.md §11).
//
// Answers: a real owner's `hit` and `fetched` answers get mutated status
// codes, X-Peer-Outcome and X-Peer-Truncated values, and mutated bodies:
// truncations, markup bit flips, duplicated tags, lying rows= attributes,
// swapped documents and regions that do not cover the query. A fake sibling
// serves each to a prober. The prober's answer must hold the tuples a
// peerless proxy's holds; a body it cannot use counts one
// fnproxy_peer_failures_total; a sibling answer it serves leaves its cache
// empty, and otherwise it admits only the peerless proxy's entries, as
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
// The inputs in peer_fuzz_fixtures/ (serialized answers and lookups) are
// minimal cases of each rule; they are replayed first. The seed and the
// mutation budget are fixed, so a run is reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/cache_snapshot.h"
#include "core/hash_ring.h"
#include "core/proxy.h"
#include "core/template_registry.h"
#include "geometry/celestial.h"
#include "geometry/hyperrectangle.h"
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

/// Sets a header, dropping any wire-lowercased twin.
void SetHeader(std::map<std::string, std::string>* headers,
               const std::string& name, const std::string& value) {
  headers->erase(util::ToLower(name));
  (*headers)[name] = value;
}

/// A cache entry, as the cache would serialize it.
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

/// What the contract makes of an answer to a lookup for `query`.
enum class Expect {
  kFailure,  // 5xx, a transport error, or a 2xx body the prober cannot use.
  kMiss,     // Any other status, or a clean entry that does not cover.
  kServed,   // A clean entry covering the query.
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
        entries.push_back({core::RegionToXml(*entry->region),
                           sql::TableToXml(entry->result)});
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

  static Expect Classify(const HttpResponse& answer,
                         const geometry::Region& query) {
    if (answer.transport_error() || answer.status_code >= 500) {
      return Expect::kFailure;
    }
    if (!answer.ok()) return Expect::kMiss;
    const std::string* outcome = Header(answer.headers, "X-Peer-Outcome");
    const std::string* flag = Header(answer.headers, "X-Peer-Truncated");
    if (outcome == nullptr ||
        (*outcome != "hit" && *outcome != "flight" && *outcome != "fetched") ||
        flag == nullptr || (*flag != "0" && *flag != "1")) {
      return Expect::kFailure;
    }
    const size_t split = answer.body.find("<Result ");
    if (split == std::string::npos) return Expect::kFailure;
    auto region = core::RegionFromXml(answer.body.substr(0, split));
    if (!region.ok() || !sql::TableFromXml(answer.body.substr(split)).ok()) {
      return Expect::kFailure;
    }
    if (geometry::Equals(**region, query)) return Expect::kServed;
    return *flag == "0" && geometry::Contains(**region, query)
               ? Expect::kServed
               : Expect::kMiss;
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
    const Expect expect =
        Classify(answer, *RegionOf(query.path, query.query_params).value());
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
      const core::QueryRecord& record = stats.records.back();
      EXPECT_EQ(record.contacted_origin, fetched);
      EXPECT_EQ(record.tuples_from_cache, fetched ? 0u : record.tuples_total);
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
    // What the owner fetched is the origin's answer to the form request.
    HttpRequest form;
    form.path = *Header(lookup.headers, "X-Peer-Form");
    form.query_params = lookup.query_params;
    util::SimulatedClock clock;
    server::OriginWebApp direct(db_, &clock);
    EXPECT_TRUE(
        direct.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    const HttpResponse origin = direct.Handle(form);
    const size_t split = answer.body.find("<Result ");
    if (split == std::string::npos) {
      ADD_FAILURE() << "an answer without a result document";
      return true;
    }
    EXPECT_EQ(answer.body.substr(split), origin.body);
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
  /// fetch of a cone, its hit on the same cone, and its hit on a
  /// concentric subset, served with the larger cone's entry.
  struct Source {
    HttpRequest query;
    HttpResponse answer;
  };
  static std::vector<Source> Sources() {
    const HttpRequest cone = Radial(185, 33, 20);  // Six objects.
    const HttpRequest subset = Radial(185, 33, 9);  // One of them.
    Stack owner(nullptr);
    std::vector<Source> sources;
    for (const HttpRequest& query : {cone, cone, subset}) {
      HttpResponse answer = owner.proxy->Handle(LookupFor(query));
      EXPECT_EQ(answer.status_code, 200);
      if (answer.body.find("<Result ") == std::string::npos) {
        ADD_FAILURE() << "an answer without a result document";
        return {};
      }
      sources.push_back({query, answer});
    }
    const char* const outcomes[] = {"fetched", "hit", "hit"};
    for (size_t i = 0; i < sources.size(); ++i) {
      const std::string* outcome =
          Header(sources[i].answer.headers, "X-Peer-Outcome");
      EXPECT_TRUE(outcome != nullptr && *outcome == outcomes[i]) << i;
    }
    EXPECT_EQ(owner.app.form_queries_served(), 1u);
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

/// Rewrites or drops a metadata header.
HttpResponse MutateHeader(HttpResponse answer, const std::string& name,
                          util::Random& rng) {
  const char* const kValues[] = {"hit", "flight",  "fetched", "miss", "lead",
                                 "",    "HIT",     "fetched ", "0",   "1",
                                 "2",   "yes",     "true",    " 1",  "01"};
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

/// Puts the result document first, or drops one of the two documents.
HttpResponse SwapDocuments(HttpResponse answer, util::Random& rng) {
  const size_t split = answer.body.find("<Result ");
  const std::string region = answer.body.substr(0, split);
  const std::string result = answer.body.substr(split);
  switch (rng.NextUint64(3)) {
    case 0:
      answer.body = result + region;
      break;
    case 1:
      answer.body = region;
      break;
    default:
      answer.body = result;
  }
  return answer;
}

/// Replaces the region with one that does not cover the query: a far cone,
/// a concentric cone inside it, or a rectangle of the wrong dimension.
HttpResponse ForeignRegion(HttpResponse answer, util::Random& rng) {
  std::string region;
  switch (rng.NextUint64(3)) {
    case 0:
      region = core::RegionToXml(geometry::ConeToHypersphere(150, 10, 3));
      break;
    case 1:
      region = core::RegionToXml(geometry::ConeToHypersphere(185, 33, 1));
      break;
    default:
      region = core::RegionToXml(geometry::Hyperrectangle({0, 0}, {1, 1}));
  }
  answer.body.replace(0, answer.body.find("<Result "), region);
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
  using Mutation = std::function<HttpResponse(HttpResponse, util::Random&)>;
  const std::pair<const char*, Mutation> kinds[] = {
      {"status", MutateStatus},
      {"outcome",
       [](HttpResponse a, util::Random& rng) {
         return MutateHeader(std::move(a), "X-Peer-Outcome", rng);
       }},
      {"truncated-flag",
       [](HttpResponse a, util::Random& rng) {
         return MutateHeader(std::move(a), "X-Peer-Truncated", rng);
       }},
      {"markup-bit-flip", FlipMarkupBits},
      {"truncation", Truncate},
      {"duplicated-tag", DuplicateTag},
      {"lying-rows", LyingRows},
      {"swapped-documents", SwapDocuments},
      {"foreign-region", ForeignRegion},
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
