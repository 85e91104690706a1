/**
 * @file
 * Error-reporting helpers, following the gem5 panic()/fatal()/warn()
 * discipline (the library prints no plain status messages):
 *
 *  - panic():  an internal invariant was violated (a bug in EpicLab itself).
 *              Aborts, so a debugger or core dump can capture the state.
 *  - fatal():  the simulation cannot continue because of a user-level
 *              problem (bad configuration, malformed input program).
 *              Exits with status 1.
 *  - warn():   something is suspicious or only approximately modelled but
 *              execution can continue.
 */
#ifndef EPIC_SUPPORT_LOGGING_H
#define EPIC_SUPPORT_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace epic {

namespace detail {

/** Compose a message from streamable parts. */
template <typename... Args>
std::string
composeMessage(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

/**
 * Identical warn messages are rate-limited: the first `limit`
 * occurrences print, the rest are counted silently so a parallel
 * fan-out emitting the same warning per worker doesn't flood stderr.
 * Default limit is 5; 0 disables suppression. Resets the counters.
 */
void setWarnRepeatLimit(int limit);

/**
 * Print one summary line per suppressed message ("last warning
 * repeated N more times") and reset the counters. Harness mains call
 * this before exiting; safe to call with nothing suppressed.
 */
void flushSuppressedWarnings();

} // namespace epic

/** Abort with a message: internal invariant violated. */
#define epic_panic(...)                                                     \
    ::epic::detail::panicImpl(__FILE__, __LINE__,                           \
                              ::epic::detail::composeMessage(__VA_ARGS__))

/** Exit with a message: user-level error, not an EpicLab bug. */
#define epic_fatal(...)                                                     \
    ::epic::detail::fatalImpl(__FILE__, __LINE__,                           \
                              ::epic::detail::composeMessage(__VA_ARGS__))

/** Non-fatal warning. */
#define epic_warn(...)                                                      \
    ::epic::detail::warnImpl(::epic::detail::composeMessage(__VA_ARGS__))

/** Checked assertion that survives NDEBUG; use for cheap invariants. */
#define epic_assert(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::epic::detail::panicImpl(                                      \
                __FILE__, __LINE__,                                         \
                ::epic::detail::composeMessage("assertion failed: " #cond  \
                                               " ", ##__VA_ARGS__));        \
        }                                                                   \
    } while (0)

#endif // EPIC_SUPPORT_LOGGING_H
