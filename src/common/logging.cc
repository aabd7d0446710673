#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>

namespace libra {

namespace {

std::atomic<bool> informEnabled{true};

/** What fatalImpl prepends to every FatalError message. */
constexpr std::string_view kFatalPrefix = "fatal: ";

/**
 * Serializes message emission: inform()/warn() are called from
 * concurrent sweep workers (cache misses, degraded-mode warnings), and
 * without a lock two messages can interleave mid-line on stderr.
 * fatal() throws and panic() aborts, so only the non-stopping paths
 * need it.
 */
std::mutex&
emitMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

std::string
fatalMessage(const FatalError& e)
{
    std::string_view msg = e.what();
    if (msg.starts_with(kFatalPrefix))
        msg.remove_prefix(kFatalPrefix.size());
    return std::string(msg);
}

void
setInformEnabled(bool enabled)
{
    informEnabled.store(enabled);
}

namespace detail {

void
fatalImpl(const std::string& msg)
{
    throw FatalError(std::string(kFatalPrefix) + msg);
}

void
panicImpl(const std::string& msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
informImpl(const std::string& msg)
{
    if (!informEnabled.load())
        return;
    std::lock_guard<std::mutex> lock(emitMutex());
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
warnImpl(const std::string& msg)
{
    std::lock_guard<std::mutex> lock(emitMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail

} // namespace libra
