#ifndef FNPROXY_UTIL_STRING_UTIL_H_
#define FNPROXY_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fnproxy::util {

/// Splits `input` on `delimiter`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Returns `input` with leading/trailing ASCII whitespace removed.
std::string_view Trim(std::string_view input);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// ASCII lowercase copy.
std::string ToLower(std::string_view input);
/// ASCII uppercase copy.
std::string ToUpper(std::string_view input);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict numeric parsers: the entire (trimmed) string must be consumed.
StatusOr<int64_t> ParseInt64(std::string_view s);
StatusOr<double> ParseDouble(std::string_view s);
/// Decimal digits only (no sign, no whitespace, not empty), at most
/// 2^64 - 1: a value past that is an error, never a wrapped number.
StatusOr<uint64_t> ParseUint64(std::string_view s);
/// ParseUint64 whose value must also lie in [lo, hi]. The error says so:
/// "expected a number from <lo> to <hi>, got '<s>'". For command-line
/// counts, where "-1" or "8x" is a mistake and never a huge or a short number.
StatusOr<uint64_t> ParseUint64InRange(std::string_view s, uint64_t lo,
                                      uint64_t hi);

/// Formats a double with enough precision to round-trip, trimming trailing
/// zeros (used when printing SQL literals for remainder queries).
std::string FormatDouble(double value);

/// Appends FormatDouble(value) to `out` without the intermediate string.
/// Output is byte-identical to printf's "%.pg" for the smallest precision
/// p in [6, 17] that round-trips — the historical FormatDouble contract —
/// but derived from std::to_chars shortest digits, so a single conversion
/// replaces the old snprintf/strtod probe loop on the serialization path.
void AppendDouble(std::string& out, double value);

/// Appends the decimal rendering of `value` to `out` (std::to_chars, no
/// temporary std::string).
void AppendInt64(std::string& out, int64_t value);

}  // namespace fnproxy::util

#endif  // FNPROXY_UTIL_STRING_UTIL_H_
