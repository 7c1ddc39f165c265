/**
 * @file
 * Scratch paths under the gtest temp dir that belong to one test
 * process: suites from several build trees can run at once without
 * sharing a file, and nothing is left behind once a test ends.
 */

#ifndef RAB_TESTS_TEMP_PATH_HH
#define RAB_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace rab::test
{

/** A fresh path "<TempDir>/<name>-<pid>-<n>", unique within and across
 *  processes; whatever is created there (file or directory tree) is
 *  removed when the object goes out of scope. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
    {
        static std::atomic<unsigned> counter{0};
        path_ = (std::filesystem::path(::testing::TempDir())
                 / (name + "-" + std::to_string(::getpid()) + "-"
                    + std::to_string(counter++)))
                    .string();
        remove();
    }

    ~TempPath() { remove(); }

    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string &str() const { return path_; }

  private:
    void remove() const
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    std::string path_;
};

} // namespace rab::test

#endif // RAB_TESTS_TEMP_PATH_HH
