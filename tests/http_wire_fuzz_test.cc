// Seeded mutation fuzzing of the live server's HTTP/1.1 wire parser
// (src/net/http_wire.cc), which reads every byte a socket peer sends.
// Serialized requests and responses get bit flips, truncations, split
// CRLFs, header lines without a colon, and duplicated or oversized
// Content-Length headers. Each input goes to ParseWireRequest,
// ParseWireResponse and IsCompleteMessage. A parser must reject it with a
// status or parse a message whose body is the slice of the input that its
// one Content-Length header declares. IsCompleteMessage must hold for every
// input a parser accepts, and may fail only while more bytes could complete
// the message, since a socket reader waits on it. Unmutated messages
// round-trip, and none of their proper prefixes parses. The inputs in
// http_wire_fuzz_fixtures/ once got past a parser or kept a reader
// waiting; they are replayed first. The seed and the mutation budget are
// fixed, so a run is reproducible.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/http.h"
#include "net/http_wire.h"
#include "storage/wire.h"
#include "util/random.h"
#include "util/string_util.h"

namespace fnproxy::net {
namespace {

constexpr uint64_t kSeed = 2004;
constexpr int kMutationsPerMessage = 300;

// --- Source messages ---------------------------------------------------------

std::vector<HttpRequest> Requests() {
  std::vector<HttpRequest> requests;
  auto radial = HttpRequest::Get("/radial?ra=185.0&dec=33.0&radius=25.0");
  EXPECT_TRUE(radial.ok());
  radial->headers["X-Deadline-Micros"] = "2500000";
  requests.push_back(*radial);

  HttpRequest lookup = *radial;
  lookup.path = "/peer/lookup";
  lookup.headers["X-Peer-Form"] = "/radial";
  requests.push_back(lookup);

  HttpRequest sql;
  sql.method = "POST";
  sql.path = "/sql";
  sql.body = "SELECT objID FROM PhotoPrimary WHERE ra > 180";
  requests.push_back(sql);
  return requests;
}

std::vector<HttpResponse> Responses() {
  std::vector<HttpResponse> responses;
  HttpResponse result;
  result.content_type = "text/xml";
  result.body = "<Result rows=\"0\"><Schema/></Result>";
  responses.push_back(result);

  HttpResponse busy = HttpResponse::MakeError(503, "origin unavailable");
  busy.headers["Retry-After"] = "30";
  responses.push_back(busy);

  HttpResponse fetched;
  fetched.headers["X-Peer-Outcome"] = "fetched";
  fetched.headers["X-Peer-Tuples-Total"] = "1";
  fetched.headers["X-Peer-Tuples-From-Cache"] = "0";
  fetched.body = "<Result rows=\"1\"><Schema/><Row>\r\n\r\n</Row></Result>";
  responses.push_back(fetched);
  return responses;
}

/// Header names as the parser hands them back: lowercased.
std::map<std::string, std::string> Lowered(
    const std::map<std::string, std::string>& headers) {
  std::map<std::string, std::string> lowered;
  for (const auto& [key, value] : headers) lowered[util::ToLower(key)] = value;
  return lowered;
}

// --- Mutations ---------------------------------------------------------------

/// Offsets just past each CRLF of the header block: where each header
/// line starts, then where the blank line starts, then where the body does.
std::vector<size_t> LineStarts(std::string_view wire) {
  std::vector<size_t> starts;
  const size_t body = wire.find("\r\n\r\n") + 4;
  for (size_t pos = wire.find("\r\n"); pos < body;
       pos = wire.find("\r\n", pos + 2)) {
    starts.push_back(pos + 2);
  }
  return starts;
}

/// Start and length of the Content-Length value in a serialized message.
std::pair<size_t, size_t> ContentLengthValue(std::string_view wire) {
  constexpr std::string_view kName = "Content-Length: ";
  const size_t start = wire.find(kName) + kName.size();
  return {start, wire.find("\r\n", start) - start};
}

template <size_t N>
const char* Pick(const char* const (&choices)[N], util::Random* rng) {
  return choices[rng->NextUint64(N)];
}

/// One of six mutations of a serialized message.
std::string Mutate(const std::string& wire, util::Random* rng) {
  std::string out = wire;
  switch (rng->NextUint64(6)) {
    case 0: {  // 1-4 bit flips.
      const uint64_t flips = 1 + rng->NextUint64(4);
      for (uint64_t i = 0; i < flips; ++i) {
        const uint64_t bit = rng->NextUint64(out.size() * 8);
        out[bit / 8] = static_cast<char>(out[bit / 8] ^ (1 << (bit % 8)));
      }
      return out;
    }
    case 1:  // Truncation.
      return out.substr(0, rng->NextUint64(out.size()));
    case 2: {  // A CRLF of the header block split apart.
      const std::vector<size_t> starts = LineStarts(out);
      const size_t crlf = starts[rng->NextUint64(starts.size())] - 2;
      const char* const kSplits[] = {"\r", "\n", "\n\r", "\r \n", "\r\r\n"};
      return out.replace(crlf, 2, Pick(kSplits, rng));
    }
    case 3: {  // A header line without a colon: inserted, or one's dropped.
      const std::vector<size_t> starts = LineStarts(out);
      // A header line, or the blank line, which has no colon to drop.
      const size_t line = rng->NextUint64(starts.size() - 1);
      if (rng->NextUint64(2) == 0 || line + 2 == starts.size()) {
        return out.insert(starts[line], "X-No-Colon-Here\r\n");
      }
      return out.erase(out.find(':', starts[line]), 1);
    }
    case 4: {  // A second Content-Length header.
      const auto [start, length] = ContentLengthValue(out);
      const uint64_t declared = std::stoull(out.substr(start, length));
      const uint64_t kValues[] = {declared, declared + 1,
                                  declared > 0 ? declared - 1 : 1, 0,
                                  declared + 1000};
      const std::vector<size_t> starts = LineStarts(out);
      const size_t at = starts[rng->NextUint64(starts.size() - 1)];
      const uint64_t value = kValues[rng->NextUint64(std::size(kValues))];
      return out.insert(at,
                        std::string("Content-Length: ") +
                            std::to_string(value) + "\r\n");
    }
    default: {  // An oversized or malformed Content-Length value.
      const char* const kLies[] = {
          "18446744073709551615",   "18446744073709551616",
          "18446744073709551617",   "99999999999999999999999",
          "9223372036854775807",    "9223372036854775808",
          "4294967296",             "-1",
          "-0",                     "+3",
          "0x10",                   "1e3",
          "3 3",                    ""};
      const auto [start, length] = ContentLengthValue(out);
      return out.replace(start, length, Pick(kLies, rng));
    }
  }
}

// --- Oracles -----------------------------------------------------------------

/// The body framing an input declares, read without the parser: the body
/// starts after the first blank line and runs for the value of the one
/// Content-Length header (0 without one). nullopt when there is no blank
/// line, or the framing is ambiguous: two Content-Length headers, or a value
/// that is not a decimal number of at most 2^64 - 1.
struct Framing {
  size_t body_offset = 0;
  uint64_t length = 0;
};

std::optional<Framing> DeclaredFraming(std::string_view in) {
  const size_t end = in.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::nullopt;
  Framing framing;
  framing.body_offset = end + 4;
  int lengths = 0;
  const std::string_view head = in.substr(0, end);
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos) {
    pos += 2;
    const size_t next = head.find("\r\n", pos);
    const std::string_view line =
        head.substr(pos, next == std::string_view::npos ? head.size() - pos
                                                        : next - pos);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        util::ToLower(util::Trim(line.substr(0, colon))) == "content-length") {
      auto value = util::ParseUint64(util::Trim(line.substr(colon + 1)));
      if (!value.ok() || ++lengths > 1) return std::nullopt;
      framing.length = *value;
    }
    pos = next;
  }
  return framing;
}

/// A parse of `in` is a rejection, or a message whose body is the declared
/// slice of `in`; and an input a parser accepts is a complete message.
template <typename Message>
void ExpectRejectedOrFramed(std::string_view in,
                            const util::StatusOr<Message>& parsed) {
  if (!parsed.ok()) return;
  EXPECT_TRUE(IsCompleteMessage(in));
  const std::optional<Framing> framing = DeclaredFraming(in);
  ASSERT_TRUE(framing.has_value())
      << "accepted an input without one well-formed Content-Length";
  ASSERT_LE(framing->length, in.size() - framing->body_offset)
      << "accepted a body shorter than its Content-Length";
  EXPECT_EQ(parsed->body, in.substr(framing->body_offset, framing->length));
}

/// A reader waits only for a message that more bytes can complete: one
/// whose header block has not ended, or whose declared body has not all
/// arrived.
void ExpectCompleteUnlessShort(std::string_view in) {
  if (IsCompleteMessage(in) ||
      in.find("\r\n\r\n") == std::string_view::npos) {
    return;
  }
  const std::optional<Framing> framing = DeclaredFraming(in);
  ASSERT_TRUE(framing.has_value())
      << "a reader would wait on an ambiguous Content-Length";
  EXPECT_GT(framing->length, in.size() - framing->body_offset)
      << "a reader would wait on a message that holds all its bytes";
}

/// Feeds one input to both parsers and IsCompleteMessage; returns whether
/// either parser accepted it.
bool Feed(std::string_view in) {
  const auto request = ParseWireRequest(in);
  const auto response = ParseWireResponse(in);
  ExpectRejectedOrFramed(in, request);
  ExpectRejectedOrFramed(in, response);
  ExpectCompleteUnlessShort(in);
  return request.ok() || response.ok();
}

TEST(HttpWireFuzzTest, UnmutatedMessagesRoundTripAndNoPrefixParses) {
  for (const HttpRequest& request : Requests()) {
    const std::string wire = SerializeRequest(request);
    SCOPED_TRACE(wire);
    auto parsed = ParseWireRequest(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->method, request.method);
    EXPECT_EQ(parsed->path, request.path);
    EXPECT_EQ(parsed->query_params, request.query_params);
    EXPECT_EQ(parsed->headers, Lowered(request.headers));
    EXPECT_EQ(parsed->body, request.body);
    EXPECT_TRUE(Feed(wire));
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_FALSE(IsCompleteMessage(wire.substr(0, cut))) << cut;
      EXPECT_FALSE(ParseWireRequest(wire.substr(0, cut)).ok()) << cut;
    }
  }
  for (const HttpResponse& response : Responses()) {
    const std::string wire = SerializeResponse(response);
    SCOPED_TRACE(wire);
    auto parsed = ParseWireResponse(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->status_code, response.status_code);
    EXPECT_EQ(parsed->content_type, response.content_type);
    EXPECT_EQ(parsed->headers, Lowered(response.headers));
    EXPECT_EQ(parsed->body, response.body);
    EXPECT_TRUE(Feed(wire));
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_FALSE(IsCompleteMessage(wire.substr(0, cut))) << cut;
      EXPECT_FALSE(ParseWireResponse(wire.substr(0, cut)).ok()) << cut;
    }
  }
}

TEST(HttpWireFuzzTest, CommittedFixturesAreRejectedOrFramed) {
  size_t fixtures = 0;
  for (const auto& file : std::filesystem::directory_iterator(
           FNPROXY_HTTP_FUZZ_FIXTURE_DIR)) {
    if (file.path().extension() != ".http") continue;
    SCOPED_TRACE(file.path().filename().string());
    auto bytes = storage::ReadFileToString(file.path().string());
    ASSERT_TRUE(bytes.ok());
    Feed(*bytes);
    ++fixtures;
  }
  EXPECT_GT(fixtures, 0u);
}

TEST(HttpWireFuzzTest, MutatedMessagesAreRejectedOrFramed) {
  std::vector<std::string> wires;
  for (const HttpRequest& request : Requests()) {
    wires.push_back(SerializeRequest(request));
  }
  for (const HttpResponse& response : Responses()) {
    wires.push_back(SerializeResponse(response));
  }
  util::Random rng(kSeed);
  int accepted = 0;
  int total = 0;
  for (size_t index = 0; index < wires.size(); ++index) {
    for (int i = 0; i < kMutationsPerMessage; ++i, ++total) {
      const std::string in = Mutate(wires[index], &rng);
      SCOPED_TRACE(std::string("message ") + std::to_string(index) +
                   " mutation " + std::to_string(i) + ": " + in);
      accepted += Feed(in);
      if (HasFatalFailure()) return;
    }
  }
  // The budget reaches both outcomes, so the framing oracle runs too.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, total);
}

}  // namespace
}  // namespace fnproxy::net
