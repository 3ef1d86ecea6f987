#include "net/http.h"

#include <cctype>

namespace fnproxy::net {

using util::Status;
using util::StatusOr;

namespace {

bool IsUnreserved(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
         c == '.' || c == '~';
}

char HexDigit(int v) { return v < 10 ? static_cast<char>('0' + v)
                                     : static_cast<char>('A' + v - 10); }

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string UrlEncode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (IsUnreserved(c)) {
      out += c;
    } else if (c == ' ') {
      out += '+';
    } else {
      out += '%';
      out += HexDigit(static_cast<unsigned char>(c) >> 4);
      out += HexDigit(static_cast<unsigned char>(c) & 0xF);
    }
  }
  return out;
}

StatusOr<std::string> UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%') {
      if (i + 2 >= text.size()) {
        return Status::ParseError("truncated percent-escape in URL");
      }
      int hi = HexValue(text[i + 1]);
      int lo = HexValue(text[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::ParseError("invalid percent-escape in URL");
      }
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

StatusOr<std::map<std::string, std::string>> ParseQueryString(
    std::string_view query) {
  std::map<std::string, std::string> params;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      std::string_view raw_key =
          eq == std::string_view::npos ? pair : pair.substr(0, eq);
      std::string_view raw_value =
          eq == std::string_view::npos ? std::string_view() : pair.substr(eq + 1);
      FNPROXY_ASSIGN_OR_RETURN(std::string key, UrlDecode(raw_key));
      FNPROXY_ASSIGN_OR_RETURN(std::string value, UrlDecode(raw_value));
      params[std::move(key)] = std::move(value);
    }
    if (end == query.size()) break;
    start = end + 1;
  }
  return params;
}

std::string BuildQueryString(const std::map<std::string, std::string>& params) {
  std::string out;
  for (const auto& [key, value] : params) {
    if (!out.empty()) out += '&';
    out += UrlEncode(key);
    out += '=';
    out += UrlEncode(value);
  }
  return out;
}

StatusOr<HttpRequest> HttpRequest::Get(std::string_view url) {
  HttpRequest request;
  size_t qmark = url.find('?');
  request.path = std::string(url.substr(0, qmark == std::string_view::npos
                                               ? url.size()
                                               : qmark));
  if (qmark != std::string_view::npos) {
    FNPROXY_ASSIGN_OR_RETURN(request.query_params,
                             ParseQueryString(url.substr(qmark + 1)));
  }
  return request;
}

std::string HttpRequest::ToUrl() const {
  if (query_params.empty()) return path;
  return path + "?" + BuildQueryString(query_params);
}

size_t HttpRequest::ByteSize() const {
  size_t size = ToUrl().size() + body.size() + 128;  // Headers approximation.
  for (const auto& [key, value] : headers) {
    size += key.size() + value.size() + 4;  // ": " + CRLF.
  }
  return size;
}

int64_t DeadlineBudgetMicros(const HttpRequest& request) {
  auto it = request.headers.find(kDeadlineBudgetHeader);
  if (it == request.headers.end()) {
    it = request.headers.find("x-deadline-micros");  // Wire-parsed form.
    if (it == request.headers.end()) return 0;
  }
  int64_t budget = 0;
  for (char c : it->second) {
    if (c < '0' || c > '9') return 0;
    const int64_t digit = c - '0';
    // Past 2^60 is absurd: malformed. Checked before the product, which
    // could overflow.
    if (budget > ((int64_t{1} << 60) - digit) / 10) return 0;
    budget = budget * 10 + digit;
  }
  return budget;
}

HttpResponse HttpResponse::MakeError(int code, std::string message) {
  HttpResponse response;
  response.status_code = code;
  response.content_type = "text/plain";
  response.body = std::move(message);
  return response;
}

}  // namespace fnproxy::net
