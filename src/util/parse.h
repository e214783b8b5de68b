// Whole-token number parsing for text from outside the program: flags,
// fault plans, cluster configs, kv layouts and labels read off the wire.
//
// A token is accepted only when all of it is the number and the number
// lies in the caller's range: no sign, no surrounding space, no suffix,
// no base prefix, no overflow, no NaN. std::sto*, ato* and strto* take a
// prefix ("9100x" reads 9100), wrap a negative ("-5" reads 2^64 - 5) or
// read "nan", so cbc-lint rule L6 keeps them out of src/.
#pragma once

#include <cstdint>
#include <string_view>

namespace cbc {

/// `token` as a decimal integer in [min, max], all digits; throws
/// InvalidArgument naming `what` and the token otherwise.
[[nodiscard]] std::uint64_t parse_uint(std::string_view what,
                                       std::string_view token,
                                       std::uint64_t min, std::uint64_t max);

/// `token` as a probability in [0, 1]: decimal digits with an optional
/// fraction and exponent ("1", "0.25", "5e-1"). Throws InvalidArgument
/// naming `what` and the token otherwise.
[[nodiscard]] double parse_probability(std::string_view what,
                                       std::string_view token);

}  // namespace cbc
