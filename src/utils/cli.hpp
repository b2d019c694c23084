/**
 * @file
 * Tiny command-line flag parser shared by examples and bench binaries.
 *
 * Supports --key=value and --key value forms plus boolean switches, and the
 * LR_BENCH_FULL environment toggle that switches every benchmark between
 * quick (CI-scale) and paper-scale parameters.
 */
#pragma once

#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

namespace lightridge {

/** A malformed or out-of-range flag value; the message names the flag. */
class CliError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * Parse all of `text` as a base-10 integer in [lo, hi], else throw
 * CliError naming `--flag` (CliArgs::getInt reads every flag this way).
 */
int parseIntFlag(const std::string &flag, const std::string &text, int lo,
                 int hi);

/** Parsed command line: flags plus positional arguments. */
class CliArgs
{
  public:
    CliArgs() = default;

    /** Parse argv. Every flag is stored; rejectUnknown() checks them. */
    CliArgs(int argc, char **argv);

    /**
     * Throw CliError naming the first flag not listed in `known`, so a
     * mistyped flag (--wrokers=2) fails instead of being ignored.
     */
    void rejectUnknown(std::initializer_list<const char *> known) const;

    /** True when --name was passed (with or without a value). */
    bool has(const std::string &name) const;

    /** String flag with fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /**
     * Numeric flag with fallback. A value given must be, whole, a finite
     * number >= 0, else CliError naming the flag.
     */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Integer flag with fallback. A value given must be, whole, a
     * base-10 integer in [lo, hi] ("12x", "1e3" and "abc" throw), else
     * CliError naming the flag.
     */
    int getInt(const std::string &name, int fallback,
               int lo = std::numeric_limits<int>::min(),
               int hi = std::numeric_limits<int>::max()) const;

    /** Boolean flag: present without value, or =true/=1. */
    bool getBool(const std::string &name, bool fallback) const;

  private:
    std::map<std::string, std::string> flags_;
};

/**
 * Run a program's `body` and map an escaping exception to its exit code:
 * CliError (a bad or unknown flag) exits 1 and any other std::exception
 * 2, each printed as "<name>: <message>" on stderr.
 */
int runMain(const char *name, int (*body)(int, char **), int argc,
            char **argv);

/**
 * True when the LR_BENCH_FULL environment variable requests paper-scale
 * benchmark parameters (any non-empty value other than "0").
 */
bool benchFullScale();

/**
 * Pick quick-scale or full-scale value depending on benchFullScale().
 * Keeps the bench sources readable: scaled(64, 200) etc.
 */
template <typename T>
T
scaled(T quick, T full)
{
    return benchFullScale() ? full : quick;
}

} // namespace lightridge
