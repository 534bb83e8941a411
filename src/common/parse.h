// Strict numeric parsing for command-line values. strtoull alone accepts
// garbage silently ("abc" -> 0, "12x" -> 12, "-1" -> huge), which turned
// typos like `--jobs abc` into "use every hardware thread". These helpers
// accept ONLY a full base-10 number that fits the target type, and parse
// it LOCALE-INDEPENDENTLY (std::from_chars): a bench run under a
// comma-decimal locale parses "1.5" the same as everywhere else, where
// strtod would have stopped at the '.' and rejected the flag.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>

namespace mmr {

/// Parse `text` as a base-10 unsigned 64-bit integer. Returns false (and
/// leaves `out` untouched) unless the ENTIRE string is a valid number:
/// no empty input, no sign, no whitespace, no trailing characters, no
/// overflow past uint64.
inline bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  // from_chars already rejects signs and whitespace for unsigned types;
  // the explicit digit gate keeps the contract self-evident.
  if (*text < '0' || *text > '9') return false;
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const std::from_chars_result r = std::from_chars(text, end, value, 10);
  if (r.ec != std::errc() || r.ptr != end) return false;
  out = value;
  return true;
}

/// Same, for size_t (rejects values that do not fit size_t on this
/// platform).
inline bool parse_size(const char* text, std::size_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) return false;
  if (value > std::numeric_limits<std::size_t>::max()) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

/// Parse `text` as a non-negative finite base-10 double (e.g. a duration in
/// seconds). Same strictness contract as parse_u64: the ENTIRE string must
/// be the number -- no sign, no whitespace, no trailing characters, no
/// inf/nan, no hex floats. The decimal separator is ALWAYS '.', whatever
/// the process locale says.
inline bool parse_f64(const char* text, double& out) {
  if (text == nullptr || *text == '\0') return false;
  // Require a digit or '.' up front: rejects signs, whitespace, "inf",
  // "nan". from_chars's default chars_format::general has no hex-float
  // grammar, so "0x1p3" stops at the 'x' and fails the full-string check.
  if ((*text < '0' || *text > '9') && *text != '.') return false;
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const std::from_chars_result r =
      std::from_chars(text, end, value, std::chars_format::general);
  if (r.ec != std::errc() || r.ptr != end) return false;
  if (!(value >= 0.0) || value > std::numeric_limits<double>::max()) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace mmr
