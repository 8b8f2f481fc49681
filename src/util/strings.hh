/**
 * @file
 * Small string helpers shared across the suite (trimming, splitting,
 * numeric parsing with error reporting).
 */

#ifndef MERCURY_UTIL_STRINGS_HH
#define MERCURY_UTIL_STRINGS_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mercury {

/** @p text without ASCII whitespace at either end (a view into it). */
std::string_view trimView(std::string_view text);

/** Strip ASCII whitespace from both ends. */
std::string trim(std::string_view text);

/** Split on a single character; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char sep);

/** Split on runs of ASCII whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** True if @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/**
 * Parse a finite double; nullopt when not fully consumed, malformed,
 * out of range (overflow, underflow or a subnormal result), NaN or
 * infinite. Surrounding ASCII whitespace is ignored; the number is one
 * optional sign and a decimal or "0x" hex float. Built on
 * std::from_chars: no allocation and no locale. Every text input —
 * fiddle lines, trace CSVs, graphdot configs, flags — parses numbers
 * here.
 */
std::optional<double> parseDouble(std::string_view text);

/** Parse a signed 64-bit integer; nullopt on failure. */
std::optional<long long> parseInt(std::string_view text);

/** Parse "true"/"false"/"1"/"0" (case-insensitive). */
std::optional<bool> parseBool(std::string_view text);

/** Store @p message in @p error when the caller passed one. */
inline void
setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace mercury

#endif // MERCURY_UTIL_STRINGS_HH
