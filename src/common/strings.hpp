// Small string helpers used across the library (formatting of profiles,
// authorization pretty-printing, SQL diagnostics).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cisqp {

/// Joins `parts` with `sep` ("a, b, c").
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view text) noexcept;

/// ASCII case-insensitive equality (SQL keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b) noexcept;

/// Lower-cases ASCII letters.
std::string ToLowerAscii(std::string_view text);

/// `prefix` followed by `std::to_string(n)` ("r" and 12 give "r12"). Built
/// by appending: GCC 12 reports a false -Wrestrict overlap on
/// `"r" + std::to_string(n)` (operator+(const char*, std::string&&)) in
/// Release builds.
template <typename Int>
std::string Numbered(std::string_view prefix, Int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace cisqp
