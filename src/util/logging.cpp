#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace vguard {

namespace {

// Campaign workers read (inform) and the CLI writes (setVerbosity)
// concurrently, so this must be atomic.
std::atomic<Verbosity> g_verbosity{Verbosity::Normal};

/**
 * Format the whole "prefix + message + newline" into one buffer and
 * emit it with a single fwrite, so concurrent warn()/inform() calls
 * from campaign workers cannot interleave mid-line (stdio locks each
 * call individually, not a sequence of three).
 */
void
vprint(FILE *to, const char *prefix, const char *fmt, va_list ap)
{
    char stackBuf[512];
    va_list apCopy;
    va_copy(apCopy, ap);
    int msgLen = std::vsnprintf(stackBuf, sizeof(stackBuf), fmt, apCopy);
    va_end(apCopy);
    if (msgLen < 0) {
        std::fputs(prefix, to);
        std::fputs("<format error>\n", to);
        return;
    }

    std::string line(prefix);
    if (static_cast<size_t>(msgLen) < sizeof(stackBuf)) {
        line.append(stackBuf, static_cast<size_t>(msgLen));
    } else {
        // Message overflowed the stack buffer: format again into a
        // right-sized heap buffer.
        std::string big(static_cast<size_t>(msgLen) + 1, '\0');
        std::vsnprintf(big.data(), big.size(), fmt, ap);
        line.append(big.data(), static_cast<size_t>(msgLen));
    }
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), to);
}

} // namespace

void
setVerbosity(Verbosity v)
{
    g_verbosity.store(v, std::memory_order_relaxed);
}

Verbosity
verbosity()
{
    return g_verbosity.load(std::memory_order_relaxed);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vprint(stderr, "panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vprint(stderr, "fatal: ", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vprint(stderr, "warn: ", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (verbosity() == Verbosity::Quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    vprint(stdout, "info: ", fmt, ap);
    va_end(ap);
}

void
informDebug(const char *fmt, ...)
{
    if (verbosity() != Verbosity::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    vprint(stdout, "debug: ", fmt, ap);
    va_end(ap);
}

} // namespace vguard
