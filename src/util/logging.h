/**
 * @file
 * Status-message and error-reporting helpers, in the gem5 tradition.
 *
 * fatal()  -- the condition is the user's fault (bad configuration,
 *             out-of-range parameter); exits with status 1.
 * panic()  -- the condition is a bug in ACT itself; aborts.
 * warn()   -- something is questionable but execution can continue.
 *
 * fatal() and panic() are safe to call from several threads at once:
 * the first caller prints its one line and ends the process, and any
 * other failing thread blocks until the process is gone.
 */

#ifndef ACT_UTIL_LOGGING_H
#define ACT_UTIL_LOGGING_H

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace act::util {

namespace detail {

[[noreturn]] void fatalImpl(const std::string &message);
[[noreturn]] void panicImpl(const std::string &message);
void warnImpl(const std::string &message);

template <typename... Args>
std::string
concatenate(Args &&...args)
{
    std::ostringstream out;
    (out << ... << std::forward<Args>(args));
    return out.str();
}

} // namespace detail

/** Abort with an error that is the user's fault. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concatenate(std::forward<Args>(args)...));
}

/** Abort with an error that indicates a bug inside ACT. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concatenate(std::forward<Args>(args)...));
}

/** Emit a non-fatal warning. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concatenate(std::forward<Args>(args)...));
}

} // namespace act::util

#endif // ACT_UTIL_LOGGING_H
