#include "util/flags.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {

namespace {

/**
 * Why a numeric flag value failed, for the fatal() message. "10x",
 * "1e999", and "" all fail parseDouble() identically; the operator
 * staring at a service script deserves to know which mistake it was.
 */
std::string
describeBadDouble(const std::string &value)
{
    std::string buf = trim(value);
    if (buf.empty())
        return "empty value";
    errno = 0;
    char *end = nullptr;
    double parsed = std::strtod(buf.c_str(), &end);
    if (end == buf.c_str())
        return "not a number";
    if (end != buf.c_str() + buf.size()) {
        return "trailing garbage after '" +
               buf.substr(0, static_cast<size_t>(end - buf.c_str())) +
               "'";
    }
    if (errno == ERANGE) {
        return parsed == 0.0 ? "underflows a double"
                             : "out of range for a double";
    }
    // strtod happily parses "nan" and "inf"; parseDouble refuses them
    // (a NaN threshold would silently disable every comparison).
    if (!std::isfinite(parsed))
        return "must be finite";
    return "not a number";
}

std::string
describeBadInt(const std::string &value)
{
    std::string buf = trim(value);
    if (buf.empty())
        return "empty value";
    errno = 0;
    char *end = nullptr;
    (void)std::strtoll(buf.c_str(), &end, 10);
    if (end == buf.c_str())
        return "not an integer";
    if (end != buf.c_str() + buf.size()) {
        return "trailing garbage after '" +
               buf.substr(0, static_cast<size_t>(end - buf.c_str())) +
               "'";
    }
    if (errno == ERANGE)
        return "out of range for a 64-bit integer";
    return "not an integer";
}

} // namespace

FlagSet::FlagSet(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
FlagSet::defineString(const std::string &name, const std::string &def,
                      const std::string &help)
{
    flags_[name] = Flag{Kind::String, help, def, def, false};
    order_.push_back(name);
}

void
FlagSet::defineDouble(const std::string &name, double def,
                      const std::string &help)
{
    std::string text = format("%g", def);
    flags_[name] = Flag{Kind::Double, help, text, text, false};
    order_.push_back(name);
}

void
FlagSet::defineInt(const std::string &name, long long def,
                   const std::string &help)
{
    std::string text = format("%lld", def);
    flags_[name] = Flag{Kind::Int, help, text, text, false};
    order_.push_back(name);
}

void
FlagSet::defineBool(const std::string &name, bool def,
                    const std::string &help)
{
    std::string text = def ? "true" : "false";
    flags_[name] = Flag{Kind::Bool, help, text, text, false};
    order_.push_back(name);
}

bool
FlagSet::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        if (body == "help") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        std::string name;
        std::string value;
        bool have_value = false;
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
            have_value = true;
        } else {
            name = body;
        }
        auto it = flags_.find(name);
        if (it == flags_.end())
            fatal("unknown flag --", name, "\n", usage());
        Flag &flag = it->second;
        if (!have_value) {
            if (flag.kind == Kind::Bool) {
                value = "true";
            } else {
                if (i + 1 >= argc)
                    fatal("flag --", name, " needs a value");
                value = argv[++i];
            }
        }
        switch (flag.kind) {
          case Kind::Double: {
            if (!parseDouble(value)) {
                fatal("flag --", name, ": bad number '", value, "' (",
                      describeBadDouble(value), ")");
            }
            break;
          }
          case Kind::Int: {
            if (!parseInt(value)) {
                fatal("flag --", name, ": bad integer '", value, "' (",
                      describeBadInt(value), ")");
            }
            break;
          }
          case Kind::Bool:
            if (!parseBool(value))
                fatal("flag --", name, ": bad boolean '", value, "'");
            break;
          case Kind::String:
            break;
        }
        flag.value = value;
        flag.provided = true;
    }
    return true;
}

const FlagSet::Flag &
FlagSet::lookup(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        MERCURY_PANIC("flag --", name, " was never defined");
    if (it->second.kind != kind)
        MERCURY_PANIC("flag --", name, " accessed with the wrong type");
    return it->second;
}

std::string
FlagSet::getString(const std::string &name) const
{
    return lookup(name, Kind::String).value;
}

double
FlagSet::getDouble(const std::string &name) const
{
    return *parseDouble(lookup(name, Kind::Double).value);
}

long long
FlagSet::getInt(const std::string &name) const
{
    return *parseInt(lookup(name, Kind::Int).value);
}

bool
FlagSet::getBool(const std::string &name) const
{
    return *parseBool(lookup(name, Kind::Bool).value);
}

bool
FlagSet::provided(const std::string &name) const
{
    auto it = flags_.find(name);
    return it != flags_.end() && it->second.provided;
}

std::string
FlagSet::usage() const
{
    std::string out = program_ + ": " + summary_ + "\n\nFlags:\n";
    for (const std::string &name : order_) {
        const Flag &flag = flags_.at(name);
        out += format("  --%-24s %s (default: %s)\n", name.c_str(),
                      flag.help.c_str(), flag.defValue.c_str());
    }
    return out;
}

} // namespace mercury
