#include "util/logging.h"

#include <mutex>

namespace act::util::detail {

namespace {

/**
 * Taken by fatal() and panic() and never released, so exactly one
 * failing thread prints and ends the process; a second one blocks
 * here until the exit completes. Leaked so it outlives static
 * destruction during std::exit().
 */
void
lockForTermination()
{
    static std::mutex *const mutex = new std::mutex;
    mutex->lock();
}

} // namespace

void
fatalImpl(const std::string &message)
{
    lockForTermination();
    std::cerr << "fatal: " << message << std::endl;
    std::exit(1);
}

void
panicImpl(const std::string &message)
{
    lockForTermination();
    std::cerr << "panic: " << message << std::endl;
    std::abort();
}

void
warnImpl(const std::string &message)
{
    std::cerr << "warn: " << message << std::endl;
}

} // namespace act::util::detail
