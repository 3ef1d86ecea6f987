#include "net/http_wire.h"

#include <cctype>

#include "util/string_util.h"

namespace fnproxy::net {

using util::Status;
using util::StatusOr;

namespace {

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 500:
      return "Internal Server Error";
    case 502:
      return "Bad Gateway";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

struct HeaderBlock {
  std::string start_line;
  std::map<std::string, std::string> headers;  // Keys lowercased.
  size_t body_offset = 0;
  /// The value of the one Content-Length header; 0 without one.
  uint64_t body_length = 0;
};

StatusOr<HeaderBlock> ParseHeaders(std::string_view text) {
  size_t end = text.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    return Status::ParseError("incomplete HTTP header block");
  }
  HeaderBlock block;
  block.body_offset = end + 4;
  std::string_view head = text.substr(0, end);
  size_t line_end = head.find("\r\n");
  block.start_line = std::string(
      head.substr(0, line_end == std::string_view::npos ? head.size() : line_end));
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    std::string_view line = head.substr(pos, next - pos);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("malformed HTTP header line");
    }
    std::string key = util::ToLower(util::Trim(line.substr(0, colon)));
    std::string value(util::Trim(line.substr(colon + 1)));
    if (key == "content-length") {
      // The body's framing must be unambiguous: one header, one number.
      auto length = util::ParseUint64(value);
      if (!length.ok() || block.headers.count(key) != 0) {
        return Status::ParseError("invalid or repeated Content-Length: " +
                                  value);
      }
      block.body_length = *length;
    }
    block.headers[std::move(key)] = std::move(value);
    pos = next + 2;
  }
  return block;
}

/// True when `text` holds the whole body `block` declares.
bool HasBody(std::string_view text, const HeaderBlock& block) {
  return block.body_length <= text.size() - block.body_offset;
}

}  // namespace

std::string SerializeRequest(const HttpRequest& request,
                             std::string_view host) {
  std::string method = request.method.empty() ? "GET" : request.method;
  std::string out = method + " " + request.ToUrl() + " HTTP/1.1\r\n";
  out += "Host: " + std::string(host) + "\r\n";
  out += "Connection: close\r\n";
  out += "Content-Length: ";
  out += std::to_string(request.body.size()) + "\r\n";
  for (const auto& [key, value] : request.headers) {
    out += key + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

StatusOr<HttpRequest> ParseWireRequest(std::string_view text) {
  FNPROXY_ASSIGN_OR_RETURN(HeaderBlock block, ParseHeaders(text));
  std::vector<std::string> parts = util::Split(block.start_line, ' ');
  if (parts.size() != 3 || !util::StartsWith(parts[2], "HTTP/")) {
    return Status::ParseError("malformed HTTP request line: " +
                              block.start_line);
  }
  FNPROXY_ASSIGN_OR_RETURN(HttpRequest request, HttpRequest::Get(parts[1]));
  request.method = parts[0];
  for (const auto& [key, value] : block.headers) {
    if (key == "host" || key == "content-length" || key == "connection") {
      continue;
    }
    request.headers[key] = value;  // Keys arrive lowercased from the parser.
  }
  if (!HasBody(text, block)) {
    return Status::ParseError("truncated HTTP request body");
  }
  request.body =
      std::string(text.substr(block.body_offset, block.body_length));
  return request;
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = std::string("HTTP/1.1 ") +
                    std::to_string(response.status_code) + " " +
                    ReasonPhrase(response.status_code) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: ";
  out += std::to_string(response.body.size()) + "\r\n";
  for (const auto& [key, value] : response.headers) {
    out += key + ": " + value + "\r\n";
  }
  out += "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

StatusOr<HttpResponse> ParseWireResponse(std::string_view text) {
  FNPROXY_ASSIGN_OR_RETURN(HeaderBlock block, ParseHeaders(text));
  std::vector<std::string> parts = util::Split(block.start_line, ' ');
  if (parts.size() < 2 || !util::StartsWith(parts[0], "HTTP/")) {
    return Status::ParseError("malformed HTTP status line: " +
                              block.start_line);
  }
  FNPROXY_ASSIGN_OR_RETURN(int64_t code, util::ParseInt64(parts[1]));
  HttpResponse response;
  response.status_code = static_cast<int>(code);
  auto content_type = block.headers.find("content-type");
  if (content_type != block.headers.end()) {
    response.content_type = content_type->second;
  }
  for (const auto& [key, value] : block.headers) {
    if (key == "content-type" || key == "content-length" ||
        key == "connection") {
      continue;
    }
    response.headers[key] = value;
  }
  if (!HasBody(text, block)) {
    return Status::ParseError("truncated HTTP response body");
  }
  response.body =
      std::string(text.substr(block.body_offset, block.body_length));
  return response;
}

bool IsCompleteMessage(std::string_view text) {
  auto block = ParseHeaders(text);
  if (block.ok()) return HasBody(text, *block);
  // A header block that ended but does not parse stays malformed whatever
  // follows: the reader stops, and the parser rejects the message.
  return text.find("\r\n\r\n") != std::string_view::npos;
}

}  // namespace fnproxy::net
