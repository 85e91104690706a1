#include "support/logging.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace epic {

namespace {

/**
 * All log output funnels through one mutex-guarded full-line write, so
 * messages from parallel compile/run workers never shear mid-line. The
 * same mutex guards the warn-suppression counters, keeping the
 * count-then-print decision atomic.
 */
std::mutex g_log_mu;

/// Identical-warn occurrence counts (for rate limiting).
std::map<std::string, int> g_warn_counts;
int g_warn_limit = 5;

/** Caller must hold g_log_mu. */
void
writeLineLocked(std::FILE *stream, const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), stream);
    std::fflush(stream);
}

void
writeLine(std::FILE *stream, const std::string &line)
{
    std::lock_guard<std::mutex> lock(g_log_mu);
    writeLineLocked(stream, line);
}

} // namespace

void
setWarnRepeatLimit(int limit)
{
    std::lock_guard<std::mutex> lock(g_log_mu);
    g_warn_limit = limit;
    g_warn_counts.clear();
}

void
flushSuppressedWarnings()
{
    std::lock_guard<std::mutex> lock(g_log_mu);
    for (const auto &[msg, n] : g_warn_counts) {
        if (g_warn_limit > 0 && n > g_warn_limit) {
            writeLineLocked(stderr, "warn: " + msg + " (repeated " +
                                        std::to_string(n - g_warn_limit) +
                                        " more time(s), suppressed)\n");
        }
    }
    g_warn_counts.clear();
}

namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine(stderr, "panic: " + msg + " (" + file + ":" +
                          std::to_string(line) + ")\n");
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    writeLine(stderr, "fatal: " + msg + " (" + file + ":" +
                          std::to_string(line) + ")\n");
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_log_mu);
    if (g_warn_limit > 0) {
        const int n = ++g_warn_counts[msg];
        if (n > g_warn_limit)
            return; // counted; summary printed by flushSuppressedWarnings
        if (n == g_warn_limit) {
            writeLineLocked(stderr,
                            "warn: " + msg +
                                " (further repeats suppressed)\n");
            return;
        }
    }
    writeLineLocked(stderr, "warn: " + msg + "\n");
}

} // namespace detail
} // namespace epic
