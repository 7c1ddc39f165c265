/**
 * @file
 * Unit tests: energy model, trace capture/replay, Simulation driver.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/simulation.hh"
#include "energy/energy_model.hh"
#include "temp_path.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

namespace rab
{
namespace
{

// --------------------------------------------------------------------
// EnergyModel
// --------------------------------------------------------------------

TEST(EnergyModel, ComponentsSumToTotal)
{
    SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
    config.warmupInstructions = 0;
    config.instructions = 5'000;
    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.run();
    const EnergyModel model;
    const EnergyBreakdown e = model.compute(sim.core());
    EXPECT_GT(e.totalJ, 0.0);
    EXPECT_NEAR(e.totalJ,
                e.frontendJ + e.renameJ + e.windowJ + e.regfileJ
                    + e.executeJ + e.cacheJ + e.dramJ + e.runaheadJ
                    + e.leakageJ,
                e.totalJ * 1e-9);
    EXPECT_FALSE(e.toString().empty());
}

TEST(EnergyModel, MoreCyclesMoreLeakage)
{
    SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
    config.warmupInstructions = 0;
    config.instructions = 5'000;
    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.run();
    const EnergyModel model;
    const EnergyBreakdown half =
        model.compute(sim.core(), sim.core().cycle() / 2);
    const EnergyBreakdown full =
        model.compute(sim.core(), sim.core().cycle());
    EXPECT_GT(full.leakageJ, half.leakageJ * 1.9);
}

TEST(EnergyModel, TraditionalRunaheadBurnsMoreFrontendEnergy)
{
    const SimResult base = simulateWorkload(
        "mcf", RunaheadConfig::kBaseline, false, 20'000, 5'000);
    const SimResult ra = simulateWorkload(
        "mcf", RunaheadConfig::kRunahead, false, 20'000, 5'000);
    EXPECT_GT(ra.energy.frontendJ, base.energy.frontendJ * 1.5);
}

TEST(EnergyModel, BufferCheaperThanTraditional)
{
    const SimResult ra = simulateWorkload(
        "mcf", RunaheadConfig::kRunahead, false, 20'000, 5'000);
    const SimResult rb = simulateWorkload(
        "mcf", RunaheadConfig::kRunaheadBufferCC, false, 20'000, 5'000);
    EXPECT_LT(rb.energy.totalJ, ra.energy.totalJ);
}

// --------------------------------------------------------------------
// Trace
// --------------------------------------------------------------------

TEST(Trace, RoundTrip)
{
    const test::TempPath file("t1.rabt");
    const std::string &path = file.str();
    {
        TraceWriter writer(path);
        DynUop u;
        u.seq = 1;
        u.pc = 10;
        u.sop.op = Opcode::kLoad;
        u.sop.dest = 1;
        u.sop.src1 = 2;
        u.effAddr = 0x1234;
        u.llcMiss = true;
        writer.record(u);
        u.seq = 2;
        u.pc = 11;
        u.sop = Uop{};
        u.sop.op = Opcode::kJump;
        u.actualTaken = true;
        writer.record(u);
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), 2u);
    const auto records = reader.readAll();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].pc, 10u);
    EXPECT_EQ(records[0].addr, 0x1234u);
    EXPECT_TRUE(records[0].flags & TraceRecord::kFlagLlcMiss);
    EXPECT_EQ(records[1].addr, kNoAddr);
    EXPECT_TRUE(records[1].flags & TraceRecord::kFlagTaken);
}

TEST(Trace, CaptureFromCoreAndSummarize)
{
    const test::TempPath file("t2.rabt");
    const std::string &path = file.str();
    SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
    config.warmupInstructions = 0;
    config.instructions = 3'000;
    Simulation sim(config, buildSuiteWorkload("mcf"));
    {
        TraceWriter writer(path);
        sim.core().setCommitHook(
            [&](const DynUop &uop) { writer.record(uop); });
        sim.run();
    }
    const TraceSummary summary = summarizeTrace(path);
    EXPECT_GE(summary.totalUops, 3'000u);
    EXPECT_GT(summary.loads, 0u);
    EXPECT_GT(summary.branches, 0u);
    EXPECT_GT(summary.llcMisses, 0u);
    EXPECT_GT(summary.distinctLines, 100u);
    EXPECT_NEAR(summary.mpki,
                1000.0 * summary.llcMisses / summary.totalUops, 1e-9);
    EXPECT_FALSE(summary.toString().empty());
}

TEST(Trace, SimulationEnableTraceCoversMeasuredRegionExactly)
{
    // The Simulation-integrated capture path (enableTrace / rabsim
    // --trace-out): the commit hook is installed at the warmup
    // boundary and cleared at the end of the measured region, so the
    // trace must agree record-for-record with the live run's measured
    // counters — same uop count, same LLC-miss-derived MPKI.
    const test::TempPath file("t4.rabt");
    const std::string &path = file.str();
    SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
    config.warmupInstructions = 2'000;
    config.instructions = 5'000;
    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.enableTrace(path);
    const SimResult result = sim.run();

    TraceReader reader(path);
    EXPECT_EQ(reader.version(), 1u);
    // One record per measured-region committed uop; warmup commits
    // are excluded.
    EXPECT_EQ(reader.recordCount(), result.instructions);

    const TraceSummary summary = summarizeTrace(path);
    EXPECT_EQ(summary.totalUops, result.instructions);
    // The per-uop LLC-miss flag marks every uop whose line came from
    // DRAM, so loads that merge into an in-flight MSHR all carry the
    // flag while the live demand-miss counter ticks once per line.
    // Trace MPKI therefore sits at or slightly above the live figure.
    EXPECT_GE(summary.mpki, result.mpki - 1e-9);
    EXPECT_NEAR(summary.mpki, result.mpki, result.mpki * 0.02);
}

TEST(Trace, RejectsGarbageFile)
{
    const test::TempPath file("t3.rabt");
    const std::string &path = file.str();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace at all, just bytes", f);
    std::fclose(f);
    EXPECT_DEATH(TraceReader reader(path), "not a rab trace");
}

// --------------------------------------------------------------------
// Simulation / SimConfig
// --------------------------------------------------------------------

TEST(SimConfig, FinalizeMapsRunaheadPolicies)
{
    SimConfig c = makeConfig(RunaheadConfig::kHybrid, true);
    EXPECT_TRUE(c.core.runahead.traditionalEnabled);
    EXPECT_TRUE(c.core.runahead.bufferEnabled);
    EXPECT_TRUE(c.core.runahead.chainCacheEnabled);
    EXPECT_TRUE(c.core.runahead.hybrid);
    EXPECT_TRUE(c.core.runahead.enhancements);
    EXPECT_TRUE(c.mem.prefetcher.enabled);
    EXPECT_TRUE(c.core.collectChainAnalysis);

    SimConfig b = makeConfig(RunaheadConfig::kRunaheadBuffer, false);
    EXPECT_FALSE(b.core.runahead.traditionalEnabled);
    EXPECT_TRUE(b.core.runahead.bufferEnabled);
    EXPECT_FALSE(b.core.runahead.chainCacheEnabled);
    EXPECT_FALSE(b.mem.prefetcher.enabled);
}

TEST(SimConfig, Table1StringMentionsKeyParameters)
{
    const SimConfig c = makeConfig(RunaheadConfig::kHybrid, true);
    const std::string s = c.table1String();
    EXPECT_NE(s.find("192 entry ROB"), std::string::npos);
    EXPECT_NE(s.find("92 entry reservation station"), std::string::npos);
    EXPECT_NE(s.find("32 KB I"), std::string::npos);
    EXPECT_NE(s.find("1 MB"), std::string::npos);
    EXPECT_NE(s.find("13.75 ns"), std::string::npos);
    EXPECT_NE(s.find("32 streams"), std::string::npos);
}

TEST(Simulation, WarmupExcludedFromMeasurement)
{
    SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
    config.warmupInstructions = 5'000;
    config.instructions = 10'000;
    Simulation sim(config, buildSuiteWorkload("mcf"));
    const SimResult r = sim.run();
    EXPECT_EQ(r.instructions, 10'000u); // not 15'000
    EXPECT_LT(r.cycles, sim.core().cycle());
}

TEST(Simulation, DeterministicAcrossRuns)
{
    const SimResult a = simulateWorkload(
        "soplex", RunaheadConfig::kHybrid, true, 10'000, 2'000);
    const SimResult b = simulateWorkload(
        "soplex", RunaheadConfig::kHybrid, true, 10'000, 2'000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramRequests, b.dramRequests);
    EXPECT_EQ(a.runaheadIntervals, b.runaheadIntervals);
    EXPECT_DOUBLE_EQ(a.energy.totalJ, b.energy.totalJ);
}

TEST(Simulation, ResultStringMentionsWorkloadAndConfig)
{
    const SimResult r = simulateWorkload(
        "libq", RunaheadConfig::kRunahead, false, 5'000, 1'000);
    const std::string s = r.toString();
    EXPECT_NE(s.find("libq"), std::string::npos);
    EXPECT_NE(s.find("Runahead"), std::string::npos);
}

} // namespace
} // namespace rab
