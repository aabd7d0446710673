/**
 * @file
 * Status / error reporting in the gem5 idiom.
 *
 * fatal() is for user errors (bad configuration, infeasible constraints):
 * it throws a FatalError that callers (and tests) may catch.
 * panic() is for internal invariant violations: it aborts.
 * inform()/warn() report status without stopping; their emission is
 * line-atomic (a process-wide mutex), so messages from concurrent
 * sweep workers never interleave mid-line on stderr.
 * See docs/ROBUSTNESS.md for the full failure taxonomy.
 */

#ifndef LIBRA_COMMON_LOGGING_HH
#define LIBRA_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace libra {

/** Exception thrown by fatal(): the condition is the user's to fix. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& msg)
        : std::runtime_error(msg)
    {}
};

/**
 * @p e's message without the "fatal: " prefix fatal() adds, for
 * callers that report or re-raise it (failure rows, serve replies,
 * line-numbered study errors) without doubling the prefix.
 */
std::string fatalMessage(const FatalError& e);

namespace detail {

/** Fold a parameter pack into one message string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void fatalImpl(const std::string& msg);
[[noreturn]] void panicImpl(const std::string& msg);
void informImpl(const std::string& msg);
void warnImpl(const std::string& msg);

} // namespace detail

/**
 * Stop because the user asked for something impossible
 * (e.g. contradictory bandwidth constraints). Throws FatalError.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Stop because LIBRA itself is broken. Aborts the process. */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/** Informational status message on stderr. */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Warning: results may be degraded but execution continues. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Enable/disable inform() output (benches silence it). */
void setInformEnabled(bool enabled);

} // namespace libra

#endif // LIBRA_COMMON_LOGGING_HH
