#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace rab
{

namespace
{

bool verboseEnabled = true;

thread_local std::string logTag;

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<std::size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(len));
}

/** Write one diagnostic line: flush stdout first so the two streams
 *  interleave in program order, then prefix the thread's tag. */
void
emit(const char *kind, const std::string &msg)
{
    std::fflush(stdout);
    if (logTag.empty())
        std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
    else
        std::fprintf(stderr, "%s: [%s] %s\n", kind, logTag.c_str(),
                     msg.c_str());
}

} // namespace

LogContext::LogContext(std::string tag) : previous_(std::move(logTag))
{
    logTag = std::move(tag);
}

LogContext::~LogContext()
{
    logTag = std::move(previous_);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit("panic", msg);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit("fatal", msg);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit("warn", msg);
}

void
inform(const char *fmt, ...)
{
    if (!verboseEnabled)
        return;
    va_list args;
    va_start(args, fmt);
    const std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit("info", msg);
}

void
setVerbose(bool verbose)
{
    verboseEnabled = verbose;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string result = vstrprintf(fmt, args);
    va_end(args);
    return result;
}

} // namespace rab
