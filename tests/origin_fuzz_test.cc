// Seeded mutation fuzzing of origin result XML (docs/FORMATS.md §3), the
// bytes every proxy parses from its origin. Real answers of an OriginWebApp
// on a small catalog get bit flips, truncations, duplicated and
// extra-nested tags, lying rows= and coverage= attributes, oversized
// numbers and bad entities. Each body goes to sql::TableFromXml, to
// sql::ResultAttrsFromXml, to the one-parse TableFromXml that reads both
// (it must agree with the two) and, served with status 200, through a
// proxy's origin path. Every input must be rejected with a status or parse
// to a table whose rows all match the schema width, and a proxy must never
// cache a body that failed to parse. The inputs in origin_fuzz_fixtures/ once
// crashed a parser; they are replayed first. The seed and the mutation
// budget are fixed, so a run is reproducible and stays within a few seconds
// under the sanitizers.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "core/template_registry.h"
#include "net/network.h"
#include "server/database.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/experiment.h"
#include "xml/xml.h"

namespace fnproxy {
namespace {

using net::HttpRequest;
using net::HttpResponse;

constexpr uint64_t kSeed = 2004;
constexpr int kMutationsPerKind = 40;

/// An origin that answers every request with one scripted 200 body.
class ScriptedOrigin final : public net::HttpHandler {
 public:
  explicit ScriptedOrigin(std::string body) : body_(std::move(body)) {}
  HttpResponse Handle(const HttpRequest&) override {
    HttpResponse response;
    response.body = body_;
    return response;
  }

 private:
  std::string body_;
};

HttpRequest Radial(double ra, double dec, double radius) {
  HttpRequest request;
  request.path = "/radial";
  request.query_params["ra"] = std::to_string(ra);
  request.query_params["dec"] = std::to_string(dec);
  request.query_params["radius"] = std::to_string(radius);
  return request;
}

/// `<Result rows="0">` followed by 50,000 unclosed `<a>` tags: a 150 KB body
/// whose recursive parse overflowed a default thread stack.
std::string DeeplyNestedBody() {
  std::string body = "<Result rows=\"0\">";
  for (int i = 0; i < 50000; ++i) body += "<a>";
  return body;
}

class OriginFuzzTest : public ::testing::Test {
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

  /// The origin's real answers to a few radial queries, from empty to a
  /// few dozen rows.
  static std::vector<std::string> SourceBodies() {
    util::SimulatedClock clock;
    server::OriginWebApp app(db_, &clock);
    EXPECT_TRUE(app.RegisterForm("/radial", workload::kRadialTemplateSql).ok());
    std::vector<std::string> bodies;
    for (const HttpRequest& request :
         {Radial(185, 33, 4), Radial(184, 34, 9), Radial(180, 30, 2.5),
          Radial(150, 10, 3)}) {
      HttpResponse response = app.Handle(request);
      EXPECT_EQ(response.status_code, 200);
      EXPECT_TRUE(sql::TableFromXml(response.body).ok());
      bodies.push_back(response.body);
    }
    return bodies;
  }

  /// Feeds `body` to both parsers and to a fresh proxy's origin path, and
  /// checks the contract in the file comment. `what` names the input.
  /// Returns whether the body parsed as a table.
  static bool CheckBody(const std::string& body, const std::string& what) {
    SCOPED_TRACE(what);
    util::StatusOr<sql::Table> table = sql::TableFromXml(body);
    if (table.ok()) {
      for (const sql::Row& row : table->rows()) {
        EXPECT_EQ(row.size(), table->schema().num_columns());
      }
    } else {
      EXPECT_FALSE(table.status().message().empty());
    }
    // The one-parse form reads exactly what the two parsers read.
    const util::StatusOr<sql::ResultXmlAttrs> attrs =
        sql::ResultAttrsFromXml(body);
    sql::ResultXmlAttrs joined;
    const bool joined_ok = sql::TableFromXml(body, &joined).ok();
    EXPECT_EQ(joined_ok, table.ok() && attrs.ok());
    if (joined_ok) {
      EXPECT_EQ(joined.partial, attrs->partial);
      EXPECT_EQ(util::FormatDouble(joined.coverage),
                util::FormatDouble(attrs->coverage));
      EXPECT_EQ(joined.degraded_reason, attrs->degraded_reason);
    }

    util::SimulatedClock clock;
    ScriptedOrigin origin(body);
    net::SimulatedChannel channel(&origin, net::LinkConfig{0.0, 1e9}, &clock);
    core::FunctionProxy proxy(core::ProxyConfig{}, templates_, &channel,
                              &clock);
    HttpResponse response = proxy.Handle(Radial(185, 33, 4));
    if (!table.ok()) {
      EXPECT_EQ(response.status_code, 503);
      EXPECT_EQ(proxy.cache().num_entries(), 0u)
          << "a body that failed to parse was cached";
      EXPECT_EQ(proxy.stats().origin_failures, 1u);
    } else if (response.ok()) {
      util::StatusOr<sql::Table> served = sql::TableFromXml(response.body);
      EXPECT_TRUE(served.ok()) << served.status().ToString();
    }
    return table.ok();
  }

  static server::Database* db_;
  static server::SkyGrid* grid_;
  static core::TemplateRegistry* templates_;
};

server::Database* OriginFuzzTest::db_ = nullptr;
server::SkyGrid* OriginFuzzTest::grid_ = nullptr;
core::TemplateRegistry* OriginFuzzTest::templates_ = nullptr;

// --- Mutations ---------------------------------------------------------------

/// Offsets of every '<' that opens a start tag (not "</").
std::vector<size_t> StartTags(const std::string& body) {
  std::vector<size_t> offsets;
  for (size_t i = 0; i + 1 < body.size(); ++i) {
    if (body[i] == '<' && body[i + 1] != '/') offsets.push_back(i);
  }
  return offsets;
}

std::string FlipBits(std::string body, util::Random& rng) {
  const uint64_t flips = 1 + rng.NextUint64(3);
  for (uint64_t k = 0; k < flips; ++k) {
    body[rng.NextUint64(body.size())] ^=
        static_cast<char>(1u << rng.NextUint64(8));
  }
  return body;
}

std::string Truncate(std::string body, util::Random& rng) {
  body.resize(rng.NextUint64(body.size()));
  return body;
}

/// Repeats one start tag in place, so the element gains an unclosed twin.
std::string DuplicateTag(std::string body, util::Random& rng) {
  const std::vector<size_t> tags = StartTags(body);
  const size_t start = tags[rng.NextUint64(tags.size())];
  const size_t end = body.find('>', start);
  body.insert(start, body.substr(start, end + 1 - start));
  return body;
}

/// Wraps the content of one element in `levels` extra elements — a few, or
/// past kMaxXmlDepth.
std::string ExtraNesting(std::string body, util::Random& rng) {
  const std::vector<size_t> tags = StartTags(body);
  const size_t start = tags[rng.NextUint64(tags.size())];
  const size_t open_end = body.find('>', start) + 1;
  const uint64_t levels = rng.NextBool(0.5) ? 1 + rng.NextUint64(3)
                                            : xml::kMaxXmlDepth +
                                                  rng.NextUint64(200);
  std::string open, close;
  for (uint64_t i = 0; i < levels; ++i) {
    open += "<V>";
    close += "</V>";
  }
  // Closed right after the next end tag, or never.
  const size_t next_close = body.find("</", open_end);
  if (next_close != std::string::npos && rng.NextBool(0.7)) {
    body.insert(body.find('>', next_close) + 1, close);
  }
  body.insert(open_end, open);
  return body;
}

std::string Pick(const std::vector<std::string>& choices, util::Random& rng) {
  return choices[rng.NextUint64(choices.size())];
}

/// Rewrites the root's rows= and adds partial/coverage attributes with
/// values that do not describe the body.
std::string LyingAttributes(std::string body, util::Random& rng) {
  const size_t rows = body.find("rows=\"");
  const size_t value = rows + 6;
  body.replace(value, body.find('"', value) - value,
               Pick({"-1", "0", "999999999", "18446744073709551616", "1e308",
                     "abc", ""},
                    rng));
  if (rng.NextBool(0.7)) {
    body.insert(body.find('>'),
                " partial=\"true\" coverage=\"" +
                    Pick({"-5", "2.5", "1e400", "nan", "inf", "abc", ""},
                         rng) +
                    "\"");
  }
  return body;
}

/// Replaces one cell's text with an oversized or out-of-range number.
std::string OversizedNumber(std::string body, util::Random& rng) {
  std::vector<size_t> cells;
  for (size_t at = body.find("<V>"); at != std::string::npos;
       at = body.find("<V>", at + 1)) {
    cells.push_back(at + 3);
  }
  const std::string huge = Pick(
      {"99999999999999999999999", "-9223372036854775809", "1e999",
       "-1e-999", "0x10", std::string(400, '9'), "1" + std::string(320, '0')},
      rng);
  if (cells.empty()) return body + huge;
  const size_t at = cells[rng.NextUint64(cells.size())];
  body.replace(at, body.find('<', at) - at, huge);
  return body;
}

/// Inserts a malformed or out-of-range entity into text or an attribute.
std::string BadEntity(std::string body, util::Random& rng) {
  const std::string entity =
      Pick({"&bogus;", "&#0;", "&#x110000;", "&#99999999999999999999;", "&",
            "&#;", "&#x;", "&#-65;", "&#xD800;", "&amp"},
           rng);
  std::vector<size_t> spots;  // Just after a '>' or inside a quoted value.
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i] == '>' || body[i] == '"') spots.push_back(i + 1);
  }
  body.insert(spots[rng.NextUint64(spots.size())], entity);
  return body;
}

// --- Tests -------------------------------------------------------------------

// Regression: a 50,000-level body overflowed the stack of the thread
// parsing it. It is now a ParseError, on a default-stack thread too.
TEST_F(OriginFuzzTest, DeeplyNestedBodyIsAParseError) {
  const std::string body = DeeplyNestedBody();
  util::Status table_status, attrs_status;
  std::thread parser([&] {
    table_status = sql::TableFromXml(body).status();
    attrs_status = sql::ResultAttrsFromXml(body).status();
  });
  parser.join();
  EXPECT_EQ(table_status.code(), util::StatusCode::kParseError);
  EXPECT_EQ(attrs_status.code(), util::StatusCode::kParseError);

  // Served with status 200, it is a 503 that caches nothing and counts one
  // origin failure.
  util::SimulatedClock clock;
  ScriptedOrigin origin(body);
  net::SimulatedChannel channel(&origin, net::LinkConfig{0.0, 1e9}, &clock);
  core::FunctionProxy proxy(core::ProxyConfig{}, templates_, &channel, &clock);
  HttpResponse response;
  std::thread client([&] { response = proxy.Handle(Radial(185, 33, 4)); });
  client.join();
  EXPECT_EQ(response.status_code, 503);
  EXPECT_EQ(proxy.cache().num_entries(), 0u);
  EXPECT_EQ(proxy.stats().origin_failures, 1u);
}

// The nesting bound admits everything up to kMaxXmlDepth levels.
TEST_F(OriginFuzzTest, NestingUpToTheBoundParses) {
  auto nested = [](int levels) {
    std::string doc;
    for (int i = 0; i < levels; ++i) doc += "<a>";
    for (int i = 0; i < levels; ++i) doc += "</a>";
    return doc;
  };
  EXPECT_TRUE(xml::ParseXml(nested(xml::kMaxXmlDepth)).ok());
  EXPECT_EQ(xml::ParseXml(nested(xml::kMaxXmlDepth + 1)).status().code(),
            util::StatusCode::kParseError);
}

TEST_F(OriginFuzzTest, CommittedFixturesAreRejectedCleanly) {
  size_t fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           FNPROXY_ORIGIN_FUZZ_FIXTURE_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string body((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    CheckBody(body, entry.path().filename().string());
    ++fixtures;
  }
  EXPECT_GT(fixtures, 0u);
}

TEST_F(OriginFuzzTest, MutatedOriginBodiesNeverCrashOrGetCached) {
  using Mutation = std::string (*)(std::string, util::Random&);
  const std::pair<const char*, Mutation> kinds[] = {
      {"bit-flip", FlipBits},
      {"truncation", Truncate},
      {"duplicated-tag", DuplicateTag},
      {"extra-nesting", ExtraNesting},
      {"lying-attributes", LyingAttributes},
      {"oversized-number", OversizedNumber},
      {"bad-entity", BadEntity},
  };
  util::Random rng(kSeed);
  const std::vector<std::string> sources = SourceBodies();
  size_t parsed = 0, rejected = 0;
  for (size_t s = 0; s < sources.size(); ++s) {
    EXPECT_TRUE(
        CheckBody(sources[s], std::string("source ") + std::to_string(s)));
    for (const auto& [name, mutate] : kinds) {
      for (int k = 0; k < kMutationsPerKind; ++k) {
        const bool ok =
            CheckBody(mutate(sources[s], rng),
                      std::string(name) + " #" + std::to_string(k) +
                          " of source " + std::to_string(s));
        ++(ok ? parsed : rejected);
      }
    }
  }
  EXPECT_EQ(parsed + rejected,
            sources.size() * std::size(kinds) * kMutationsPerKind);
  // Both sides of the contract ran.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fnproxy
