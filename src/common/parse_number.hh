/**
 * @file
 * The one number grammar of every text LIBRA reads: study and workload
 * files, constraint text, explore and fault specs, CLI flags and
 * environment variables.
 *
 * A token is a number only if all of it parses. Reals are
 * std::from_chars decimals: no leading '+', whitespace, hex, inf or
 * nan, and no subnormals. Integers are base-10 digits with an optional
 * '-' for signed types, parsed exactly. The value must then lie in
 * [lo, hi]; each field declares its range once, where its directive,
 * flag or grammar is parsed (docs/ROBUSTNESS.md lists them).
 */

#ifndef LIBRA_COMMON_PARSE_NUMBER_HH
#define LIBRA_COMMON_PARSE_NUMBER_HH

#include <limits>
#include <optional>
#include <string_view>

namespace libra {

/**
 * The least positive real the grammar returns. As a real field's lo it
 * states an open zero bound, (0, hi], and errors print it so.
 */
inline constexpr double kPositive = std::numeric_limits<double>::min();

/**
 * All of @p token as a T in [@p lo, @p hi], or nullopt. T is double,
 * int, long, long long or unsigned long (std::uint64_t, std::size_t);
 * parse_number.cc instantiates each.
 */
template <typename T>
std::optional<T> tryParseNumber(std::string_view token, T lo, T hi);

/**
 * All of @p token as a T in [@p lo, @p hi]; otherwise fatal("bad
 * <what> '<token>' (expected ... in [lo, hi])").
 */
template <typename T>
T parseNumber(std::string_view token, T lo, T hi, std::string_view what);

} // namespace libra

#endif // LIBRA_COMMON_PARSE_NUMBER_HH
