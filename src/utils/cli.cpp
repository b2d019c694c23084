#include "utils/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lightridge {

int
parseIntFlag(const std::string &flag, const std::string &text, int lo, int hi)
{
    const char *end = text.data() + text.size();
    int value = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc() && stop == end && value >= lo && value <= hi)
        return value;
    std::string what = "an integer";
    if (hi < std::numeric_limits<int>::max())
        what += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    else if (lo > std::numeric_limits<int>::min())
        what += " >= " + std::to_string(lo);
    throw CliError("--" + flag + " must be " + what + ", got \"" + text +
                   "\"");
}

CliArgs::CliArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            continue;
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
            flags_[arg] = argv[++i];
        } else {
            flags_[arg] = "";
        }
    }
}

void
CliArgs::rejectUnknown(std::initializer_list<const char *> known) const
{
    for (const auto &flag : flags_) {
        bool listed = false;
        for (const char *name : known)
            listed = listed || flag.first == name;
        if (!listed)
            throw CliError("unknown flag --" + flag.first);
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    const std::string &text = it->second;
    const char *end = text.data() + text.size();
    double value = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc() && stop == end && std::isfinite(value) &&
        value >= 0)
        return value;
    throw CliError("--" + name + " must be a finite number >= 0, got \"" +
                   text + "\"");
}

int
CliArgs::getInt(const std::string &name, int fallback, int lo, int hi) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback
                              : parseIntFlag(name, it->second, lo, hi);
}

bool
CliArgs::getBool(const std::string &name, bool fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    if (it->second.empty() || it->second == "1" || it->second == "true")
        return true;
    return false;
}

int
runMain(const char *name, int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const CliError &e) {
        std::fprintf(stderr, "%s: %s\n", name, e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", name, e.what());
        return 2;
    }
}

bool
benchFullScale()
{
    // Read once at tool startup before any threads exist; getenv is only
    // unsafe against a concurrent setenv, which this codebase never does.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("LR_BENCH_FULL");
    return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

} // namespace lightridge
