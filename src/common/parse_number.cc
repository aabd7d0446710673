#include "common/parse_number.hh"

#include <charconv>
#include <cmath>
#include <type_traits>

#include "common/logging.hh"

namespace libra {

template <typename T>
std::optional<T>
tryParseNumber(std::string_view token, T lo, T hi)
{
    T v{};
    const char* end = token.data() + token.size();
    auto [stop, ec] = std::from_chars(token.data(), end, v);
    if (ec != std::errc{} || stop != end)
        return std::nullopt;
    // from_chars reads "inf" and "nan" and returns subnormals.
    if constexpr (std::is_floating_point_v<T>) {
        if (v != 0.0 && !std::isnormal(v))
            return std::nullopt;
    }
    if (v < lo || v > hi)
        return std::nullopt;
    return v;
}

template <typename T>
T
parseNumber(std::string_view token, T lo, T hi, std::string_view what)
{
    if (std::optional<T> v = tryParseNumber(token, lo, hi))
        return *v;
    constexpr bool real = std::is_floating_point_v<T>;
    fatal("bad ", what, " '", token, "' (expected ",
          real ? "a number" : "an integer", " in ",
          real && lo == kPositive ? "(0" : detail::concat("[", lo), ", ",
          hi, "])");
}

#define LIBRA_PARSE_NUMBER_INSTANTIATE(T)                                 \
    template std::optional<T> tryParseNumber<T>(std::string_view, T, T); \
    template T parseNumber<T>(std::string_view, T, T, std::string_view);
LIBRA_PARSE_NUMBER_INSTANTIATE(double)
LIBRA_PARSE_NUMBER_INSTANTIATE(int)
LIBRA_PARSE_NUMBER_INSTANTIATE(long)
LIBRA_PARSE_NUMBER_INSTANTIATE(long long)
LIBRA_PARSE_NUMBER_INSTANTIATE(unsigned long)
#undef LIBRA_PARSE_NUMBER_INSTANTIATE

} // namespace libra
