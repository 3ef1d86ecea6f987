#include "sql/lexer.h"

#include <cctype>

#include "util/string_util.h"

namespace fnproxy::sql {

using util::Status;
using util::StatusOr;

bool Token::IsKeyword(std::string_view keyword) const {
  return type == TokenType::kIdentifier &&
         util::EqualsIgnoreCase(text, keyword);
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t pos = 0;
  while (pos < input.size()) {
    char c = input[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    // Line comments: -- to end of line.
    if (c == '-' && pos + 1 < input.size() && input[pos + 1] == '-') {
      size_t nl = input.find('\n', pos);
      pos = nl == std::string_view::npos ? input.size() : nl + 1;
      continue;
    }
    size_t start = pos;
    if (IsIdentStart(c)) {
      while (pos < input.size() && IsIdentChar(input[pos])) ++pos;
      tokens.push_back({TokenType::kIdentifier,
                        std::string(input.substr(start, pos - start)), start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos + 1 < input.size() &&
         std::isdigit(static_cast<unsigned char>(input[pos + 1])))) {
      bool seen_dot = false;
      bool seen_exp = false;
      while (pos < input.size()) {
        char d = input[pos];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++pos;
        } else if (d == '.' && !seen_dot && !seen_exp) {
          seen_dot = true;
          ++pos;
        } else if ((d == 'e' || d == 'E') && !seen_exp && pos + 1 < input.size() &&
                   (std::isdigit(static_cast<unsigned char>(input[pos + 1])) ||
                    input[pos + 1] == '+' || input[pos + 1] == '-')) {
          seen_exp = true;
          pos += 2;
        } else {
          break;
        }
      }
      tokens.push_back({TokenType::kNumber,
                        std::string(input.substr(start, pos - start)), start});
      continue;
    }
    if (c == '\'') {
      std::string text;
      ++pos;
      bool closed = false;
      while (pos < input.size()) {
        if (input[pos] == '\'') {
          if (pos + 1 < input.size() && input[pos + 1] == '\'') {
            text += '\'';
            pos += 2;
            continue;
          }
          ++pos;
          closed = true;
          break;
        }
        text += input[pos];
        ++pos;
      }
      if (!closed) {
        return Status::ParseError(
            std::string("unterminated string literal at offset ") +
            std::to_string(start));
      }
      tokens.push_back({TokenType::kString, std::move(text), start});
      continue;
    }
    if (c == '$') {
      ++pos;
      size_t name_start = pos;
      while (pos < input.size() && IsIdentChar(input[pos])) ++pos;
      if (pos == name_start) {
        return Status::ParseError("'$' must be followed by a parameter name");
      }
      tokens.push_back({TokenType::kParameter,
                        std::string(input.substr(name_start, pos - name_start)),
                        start});
      continue;
    }
    // Two-character operators first.
    if (pos + 1 < input.size()) {
      std::string_view two = input.substr(pos, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        tokens.push_back({TokenType::kOperator, std::string(two), start});
        pos += 2;
        continue;
      }
    }
    static constexpr std::string_view kSingleOps = "=<>+-*/%(),.&|~";
    if (kSingleOps.find(c) != std::string_view::npos) {
      tokens.push_back({TokenType::kOperator, std::string(1, c), start});
      ++pos;
      continue;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(pos));
  }
  tokens.push_back({TokenType::kEnd, "", input.size()});
  return tokens;
}

}  // namespace fnproxy::sql
