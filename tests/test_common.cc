/**
 * @file
 * Unit tests: deterministic RNG and logging helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>

#include "captured_stream.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"

namespace rab
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedRemapped)
{
    Rng rng(0);
    EXPECT_NE(rng.next(), 0u);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.range(17), 17u);
}

TEST(Rng, RangeCoversAllValues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.range(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng rng(5);
    const std::uint64_t first = rng.next();
    rng.next();
    rng.seed(5);
    EXPECT_EQ(rng.next(), first);
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%llu", 18446744073709551615ull),
              "18446744073709551615");
    EXPECT_EQ(strprintf("plain"), "plain");
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 3), "boom 3");
}

// --------------------------------------------------------------------
// Diagnostics on a shared stream
// --------------------------------------------------------------------

TEST(Logging, DiagnosticsFollowEarlierStdoutOnSharedStream)
{
    // Results printed before a warning must precede it in `out` when
    // both streams go to one file, although stdout is block-buffered.
    const std::string out = test::captureCombinedOutput([] {
        std::printf("result a\n");
        warn("first %d", 1);
        std::printf("result b\n");
        inform("note");
        std::printf("result c\n");
    });
    EXPECT_EQ(out, "result a\nwarn: first 1\nresult b\ninfo: note\n"
                   "result c\n");
}

TEST(Logging, ContextTagsWarningsAndNests)
{
    const std::string out = test::captureCombinedOutput([] {
        {
            const LogContext run("mcf/Hybrid");
            warn("inside");
            {
                const LogContext inner("inner");
                warn("nested");
            }
            warn("restored");
        }
        warn("outside");
    });
    EXPECT_EQ(out, "warn: [mcf/Hybrid] inside\nwarn: [inner] nested\n"
                   "warn: [mcf/Hybrid] restored\nwarn: outside\n");
}

TEST(Logging, ContextIsPerThread)
{
    // A sweep worker starts untagged and keeps its own tag; neither
    // leaks into the other thread.
    const std::string out = test::captureCombinedOutput([] {
        const LogContext main_ctx("main");
        std::thread worker([] {
            warn("untagged");
            const LogContext worker_ctx("worker");
            warn("tagged");
        });
        worker.join();
        warn("main thread");
    });
    EXPECT_EQ(out, "warn: untagged\nwarn: [worker] tagged\n"
                   "warn: [main] main thread\n");
}

TEST(ParseNumber, AcceptsWholeValues)
{
    EXPECT_EQ(parseNumber<std::uint64_t>("20000"), 20000u);
    EXPECT_EQ(parseNumber<std::uint64_t>("0"), 0u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(parseNumber<int>("-3"), -3);
    EXPECT_EQ(parseNumber<double>("0.01"), 0.01);
    EXPECT_EQ(parseNumber<double>("1e-3"), 1e-3);
}

TEST(ParseNumber, RejectsTrailingJunk)
{
    EXPECT_FALSE(parseNumber<std::uint64_t>("2x0000"));
    EXPECT_FALSE(parseNumber<std::uint64_t>("12k"));
    EXPECT_FALSE(parseNumber<int>("4 "));
    EXPECT_FALSE(parseNumber<double>("0.5%"));
    EXPECT_FALSE(parseNumber<double>("abc"));
}

TEST(ParseNumber, RejectsEmpty)
{
    EXPECT_FALSE(parseNumber<std::uint64_t>(""));
    EXPECT_FALSE(parseNumber<int>(""));
    EXPECT_FALSE(parseNumber<double>(""));
}

TEST(ParseNumber, SignsFollowTheType)
{
    // strtoull would wrap "-1" to 2^64-1; an unsigned value takes no
    // sign at all, and no type takes a leading '+'.
    EXPECT_FALSE(parseNumber<std::uint64_t>("-1"));
    EXPECT_FALSE(parseNumber<std::uint64_t>("+1"));
    EXPECT_FALSE(parseNumber<int>("+1"));
    EXPECT_EQ(parseNumber<double>("-0.25"), -0.25);
}

TEST(ParseNumber, RejectsOverflow)
{
    EXPECT_FALSE(parseNumber<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseNumber<int>("2147483648"));
    EXPECT_FALSE(parseNumber<int>("-2147483649"));
    EXPECT_FALSE(parseNumber<double>("1e999"));
}

} // namespace
} // namespace rab
