/**
 * @file
 * Capture what a user sees from `cmd > out 2>&1`: stdout and stderr
 * sharing one file, stdout block-buffered as it is when redirected.
 */

#ifndef RAB_TESTS_CAPTURED_STREAM_HH
#define RAB_TESTS_CAPTURED_STREAM_HH

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>

namespace rab::test
{

/** Run @p body in a forked child whose stdout and stderr both write to
 *  one temporary file, with stdout fully buffered; return the file's
 *  contents once the child exits (empty if the child failed). */
inline std::string
captureCombinedOutput(const std::function<void()> &body)
{
    std::FILE *file = std::tmpfile();
    if (!file)
        return {};
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
        const int fd = fileno(file);
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        static char buf[1 << 16];
        std::setvbuf(stdout, buf, _IOFBF, sizeof(buf));
        body();
        std::fflush(stdout);
        _exit(0);
    }
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status)
        || WEXITSTATUS(status) != 0) {
        std::fclose(file);
        return {};
    }
    std::string out;
    std::rewind(file);
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
        out.append(chunk, n);
    std::fclose(file);
    return out;
}

} // namespace rab::test

#endif // RAB_TESTS_CAPTURED_STREAM_HH
