#include "util/parse.h"

#include <charconv>
#include <string>
#include <system_error>

#include "util/ensure.h"

namespace cbc {

std::uint64_t parse_uint(std::string_view what, std::string_view token,
                         std::uint64_t min, std::uint64_t max) {
  bool ok = !token.empty();
  std::uint64_t value = 0;
  for (const char c : token) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    // value * 10 + digit > max is tested without computing it, so no
    // input can wrap.
    if (c < '0' || c > '9' || value > max / 10 ||
        (value == max / 10 && digit > max % 10)) {
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  require(ok && value >= min,
          std::string(what) + " expects a decimal integer in [" +
              std::to_string(min) + ", " + std::to_string(max) + "], got '" +
              std::string(token) + "'");
  return value;
}

double parse_probability(std::string_view what, std::string_view token) {
  // A leading digit or '.' rules out signs, spaces, "nan" and "inf";
  // from_chars reads no base prefix and must consume the whole token.
  double value = -1.0;
  if (!token.empty() &&
      ((token[0] >= '0' && token[0] <= '9') || token[0] == '.')) {
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc() || stop != end) {
      value = -1.0;
    }
  }
  require(value >= 0.0 && value <= 1.0,
          std::string(what) + " expects a probability in [0, 1], got '" +
              std::string(token) + "'");
  return value;
}

}  // namespace cbc
