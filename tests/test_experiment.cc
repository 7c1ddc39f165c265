/**
 * @file
 * Unit tests: experiment/bench harness helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "core/experiment.hh"

namespace rab
{
namespace
{

TEST(Geomean, PlainValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Geomean, SkipsNonPositiveValues)
{
    // Zeros and negatives (failed points) are excluded from the mean,
    // not clamped: the result over {4, 0, 9} is the mean of {4, 9}.
    EXPECT_DOUBLE_EQ(geomean({4.0, 0.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({-3.0, 5.0}), 5.0);
    // Nothing positive left: 0, never NaN or a clamped epsilon mean.
    EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
}

TEST(ResolveThreads, CliOverridesEnvOverridesHardware)
{
    ::setenv("RAB_THREADS", "3", 1);
    EXPECT_EQ(resolveThreads(5), 5); // explicit CLI value wins
    EXPECT_EQ(resolveThreads(0), 3); // then RAB_THREADS
    ::unsetenv("RAB_THREADS");
    EXPECT_GE(resolveThreads(0), 1); // then hardware, always >= 1
    // BenchOptions::fromEnv shares the same precedence chain.
    ::setenv("RAB_THREADS", "2", 1);
    EXPECT_EQ(BenchOptions::fromEnv().threads, 2);
    ::unsetenv("RAB_THREADS");
}

TEST(BenchOptions, MalformedEnvFallsBackToDefault)
{
    // "12k" is not 12: a value with trailing junk is warned about and
    // ignored, like any other unparsable value.
    ::setenv("RAB_INSTRUCTIONS", "12k", 1);
    ::setenv("RAB_WARMUP", "7", 1);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    EXPECT_EQ(options.instructions, 40'000u);
    EXPECT_EQ(options.warmup, 7u);
    ::unsetenv("RAB_INSTRUCTIONS");
    ::unsetenv("RAB_WARMUP");
}

TEST(Geomean, SpeedupsMatchPaperConvention)
{
    // GMean of +10% and +10% is +10%.
    EXPECT_NEAR(geomeanSpeedup({0.10, 0.10}), 0.10, 1e-12);
    // A slowdown pulls the mean down through the ratio, not the diff.
    const double g = geomeanSpeedup({0.21, -0.10});
    EXPECT_NEAR(g, std::sqrt(1.21 * 0.90) - 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomeanSpeedup({}), 0.0);
}

TEST(TextTable, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer-name", "22"});
    const std::string s = table.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    // Header separator line exists.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "cells");
}

TEST(BenchOptions, ReadsEnvironment)
{
    ::setenv("RAB_INSTRUCTIONS", "1234", 1);
    ::setenv("RAB_WARMUP", "99", 1);
    ::setenv("RAB_WORKLOADS", "mcf,libq", 1);
    const BenchOptions options = BenchOptions::fromEnv(5, 6);
    EXPECT_EQ(options.instructions, 1234u);
    EXPECT_EQ(options.warmup, 99u);
    ASSERT_EQ(options.workloadFilter.size(), 2u);
    EXPECT_EQ(options.workloadFilter[0], "mcf");
    EXPECT_EQ(options.workloadFilter[1], "libq");
    ::unsetenv("RAB_INSTRUCTIONS");
    ::unsetenv("RAB_WARMUP");
    ::unsetenv("RAB_WORKLOADS");
    const BenchOptions defaults = BenchOptions::fromEnv(5, 6);
    EXPECT_EQ(defaults.instructions, 5u);
    EXPECT_EQ(defaults.warmup, 6u);
    EXPECT_TRUE(defaults.workloadFilter.empty());
}

TEST(SelectWorkloads, FiltersByName)
{
    const auto &all = spec06Suite();
    EXPECT_EQ(selectWorkloads(all, {}).size(), all.size());
    const auto some = selectWorkloads(all, {"mcf", "libq", "bogus"});
    ASSERT_EQ(some.size(), 2u);
    EXPECT_EQ(some[0].params.name, "libq"); // suite order preserved
    EXPECT_EQ(some[1].params.name, "mcf");
}

TEST(RunCell, ProducesResult)
{
    BenchOptions options;
    options.instructions = 2'000;
    options.warmup = 500;
    const WorkloadSpec *spec = findWorkload("mcf");
    ASSERT_NE(spec, nullptr);
    const SimResult r =
        runCell(*spec, RunaheadConfig::kBaseline, false, options);
    EXPECT_GE(r.instructions, 2'000u);
    EXPECT_EQ(r.workload, "mcf");
}

} // namespace
} // namespace rab
