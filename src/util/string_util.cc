#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fnproxy::util {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      break;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(parts[i]);
  }
  return result;
}

std::string ToLower(std::string_view input) {
  std::string result(input);
  for (char& c : result) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return result;
}

std::string ToUpper(std::string_view input) {
  std::string result(input);
  for (char& c : result) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return result;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

StatusOr<int64_t> ParseInt64(std::string_view s) {
  std::string_view trimmed = Trim(s);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not an integer");
  }
  int64_t value = 0;
  const char* begin = trimmed.data();
  const char* end = begin + trimmed.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("invalid integer: '" + std::string(trimmed) + "'");
  }
  return value;
}

StatusOr<uint64_t> ParseUint64(std::string_view s) {
  uint64_t value = 0;
  // Unsigned from_chars takes digits only: no sign, no whitespace.
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::ParseError("invalid unsigned integer: '" + std::string(s) +
                              "'");
  }
  return value;
}

StatusOr<uint64_t> ParseUint64InRange(std::string_view s, uint64_t lo,
                                      uint64_t hi) {
  const StatusOr<uint64_t> value = ParseUint64(s);
  if (!value.ok() || *value < lo || *value > hi) {
    return Status::OutOfRange(std::string("expected a number from ") +
                              std::to_string(lo) + " to " +
                              std::to_string(hi) + ", got '" +
                              std::string(s) + "'");
  }
  return value;
}

StatusOr<double> ParseDouble(std::string_view s) {
  std::string_view trimmed = Trim(s);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not a number");
  }
  // std::from_chars for double is available in libstdc++ 11+; use it.
  double value = 0;
  const char* begin = trimmed.data();
  const char* end = begin + trimmed.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("invalid number: '" + std::string(trimmed) + "'");
  }
  return value;
}

std::string FormatDouble(double value) {
  std::string out;
  AppendDouble(out, value);
  return out;
}

void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += std::signbit(value) ? "-nan" : "nan";
    return;
  }
  if (std::isinf(value)) {
    out += value < 0 ? "-inf" : "inf";
    return;
  }
  if (value == 0.0) {
    out += std::signbit(value) ? "-0" : "0";
    return;
  }
  if (value < 0) {
    out += '-';
    value = -value;
  }
  // Shortest round-tripping digits in scientific form: "d[.ddd]e±XX".
  char buf[40];
  auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::scientific);
  (void)ec;
  // Split into the significant digits and the decimal exponent of the
  // leading digit.
  char digits[24];
  size_t num_digits = 0;
  const char* p = buf;
  for (; p < end && *p != 'e'; ++p) {
    if (*p != '.') digits[num_digits++] = *p;
  }
  int exp10 = 0;
  const char* exp_begin = p + 1;
  if (exp_begin < end && *exp_begin == '+') ++exp_begin;  // from_chars rejects '+'
  std::from_chars(exp_begin, end, exp10);
  // Reproduce "%.pg" for the smallest round-tripping precision p >= 6: %g
  // uses scientific notation iff exp10 < -4 or exp10 >= p, and trims
  // trailing zeros (the shortest digits have none to trim).
  int precision = num_digits < 6 ? 6 : static_cast<int>(num_digits);
  if (exp10 < -4 || exp10 >= precision) {
    out += digits[0];
    if (num_digits > 1) {
      out += '.';
      out.append(digits + 1, num_digits - 1);
    }
    out += 'e';
    out += exp10 < 0 ? '-' : '+';
    int magnitude = exp10 < 0 ? -exp10 : exp10;
    char exp_buf[8];
    auto [exp_end, exp_ec] =
        std::to_chars(exp_buf, exp_buf + sizeof(exp_buf), magnitude);
    (void)exp_ec;
    if (exp_end - exp_buf < 2) out += '0';  // %g pads the exponent to 2 digits.
    out.append(exp_buf, static_cast<size_t>(exp_end - exp_buf));
  } else if (exp10 >= 0) {
    size_t integer_digits = static_cast<size_t>(exp10) + 1;
    if (num_digits <= integer_digits) {
      out.append(digits, num_digits);
      out.append(integer_digits - num_digits, '0');
    } else {
      out.append(digits, integer_digits);
      out += '.';
      out.append(digits + integer_digits, num_digits - integer_digits);
    }
  } else {
    out += "0.";
    out.append(static_cast<size_t>(-exp10) - 1, '0');
    out.append(digits, num_digits);
  }
}

void AppendInt64(std::string& out, int64_t value) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out.append(buf, static_cast<size_t>(end - buf));
}

}  // namespace fnproxy::util
