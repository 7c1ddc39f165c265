/**
 * @file
 * Minimal gem5-style logging: panic() for simulator bugs, fatal() for
 * user configuration errors, warn()/inform() for status messages.
 *
 * Every diagnostic goes to stderr after flushing stdout, so when both
 * streams land in one file a message appears after the results that
 * preceded it rather than ahead of stdout's whole buffer. A diagnostic
 * raised while a LogContext is active on the calling thread carries
 * its tag: "warn: [mcf/hybrid] ...".
 */

#ifndef RAB_COMMON_LOGGING_HH
#define RAB_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace rab
{

/** Abort the simulation: something happened that indicates a bug. */
[[noreturn]] void panic(const char *fmt, ...);

/** Exit with an error: the user supplied an invalid configuration. */
[[noreturn]] void fatal(const char *fmt, ...);

/** Print a warning to stderr; simulation continues. */
void warn(const char *fmt, ...);

/** Print an informational message to stderr; simulation continues. */
void inform(const char *fmt, ...);

/** Toggle inform() output (benchmarks silence it). */
void setVerbose(bool verbose);

/**
 * Scoped, thread-local diagnostic tag (for example "mcf/hybrid" for
 * one simulation run). Scopes nest; destruction restores the previous
 * tag. Thread-local, so concurrent sweep workers each keep their own.
 */
class LogContext
{
  public:
    explicit LogContext(std::string tag);
    ~LogContext();

    LogContext(const LogContext &) = delete;
    LogContext &operator=(const LogContext &) = delete;

  private:
    std::string previous_;
};

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...);

} // namespace rab

#endif // RAB_COMMON_LOGGING_HH
