/**
 * @file
 * Whole-string numeric parsing for command-line flags and environment
 * variables.
 *
 * atoi/atof/strtoull stop at the first bad character and report
 * nothing, so "2x0000" reads as 2 and "abc" as 0. parseNumber accepts
 * a value only when every character of it is part of the number.
 */

#ifndef RAB_COMMON_PARSE_HH
#define RAB_COMMON_PARSE_HH

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace rab
{

/**
 * @p text as a T (an integer type, base 10, or a floating-point type),
 * or nullopt when it is empty, has any character the number does not
 * consume (leading space, '+', trailing junk), or is out of T's range.
 * Unsigned types take no sign; signed and floating types take '-'.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

} // namespace rab

#endif // RAB_COMMON_PARSE_HH
