#include "util/strings.hh"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mercury {

std::string_view
trimView(std::string_view text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::string
trim(std::string_view text)
{
    return std::string(trimView(text));
}

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            break;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &ch : out)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return out;
}

std::optional<double>
parseDouble(std::string_view text)
{
    std::string_view body = trimView(text);
    const char *first = body.data();
    const char *last = first + body.size();
    // One optional sign, then a decimal or a "0x" hex float (the
    // forms strtod reads). from_chars takes neither a '+' nor the
    // "0x", so both are consumed here.
    bool negative = first < last && *first == '-';
    if (first < last && (*first == '+' || *first == '-'))
        ++first;
    std::chars_format form = std::chars_format::general;
    if (last - first > 2 && first[0] == '0' &&
        (first[1] == 'x' || first[1] == 'X')) {
        form = std::chars_format::hex;
        first += 2;
    }
    if (first == last || *first == '+' || *first == '-')
        return std::nullopt;
    double value = 0.0;
    auto [end, ec] = std::from_chars(first, last, value, form);
    // Overflow and underflow to zero come back as result_out_of_range;
    // a subnormal result counts as underflow too, as it does for
    // strtod's ERANGE.
    if (ec != std::errc() || end != last || !std::isfinite(value) ||
        (value != 0.0 && std::fabs(value) < DBL_MIN))
        return std::nullopt;
    return negative ? -value : value;
}

std::optional<long long>
parseInt(std::string_view text)
{
    std::string buf = trim(text);
    if (buf.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(buf.c_str(), &end, 10);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return value;
}

std::optional<bool>
parseBool(std::string_view text)
{
    std::string low = toLower(trim(text));
    if (low == "true" || low == "1" || low == "yes" || low == "on")
        return true;
    if (low == "false" || low == "0" || low == "no" || low == "off")
        return false;
    return std::nullopt;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    va_end(args);
    return out;
}

} // namespace mercury
