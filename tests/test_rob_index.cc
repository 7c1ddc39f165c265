/**
 * @file
 * ROB index certification.
 *
 * Two layers:
 *
 * 1. A randomized structural differential drives a Rob through long
 *    sequences of push / popHead / popTail / clear — including
 *    squash-to-checkpoint bursts, the pattern branch recovery and
 *    runahead exit produce, and snapshot capture→restore — and after
 *    every mutation compares the on-demand PC and producer CAMs
 *    against the retained linear-scan reference forms for every
 *    interesting (pc, seq) and (reg, seq) query.
 *
 * 2. A whole-simulation differential (the test_fastforward pattern):
 *    for all six runahead configurations, a run with the indexes
 *    enabled must produce a byte-identical commit stream, identical
 *    cycle count, and an identical statistics payload compared to a
 *    run routed through the scan-based reference paths
 *    (SimConfig::referenceScans) — clean, and again under speculative
 *    fault injection. Runs execute with the checker at full strength,
 *    whose checkRobIndexes() scan independently cross-validates the
 *    index structures every kFullScanPeriod cycles.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/rob.hh"
#include "common/rng.hh"
#include "core/simulation.hh"
#include "reference_interpreter.hh"
#include "snapshot/snapshot.hh"
#include "workloads/suite.hh"

namespace rab
{

// DynUop's field order is deliberate (see dyn_uop.hh): everything the
// per-event pipeline touch reads lives in the first cache line. Pin
// the boundary so an innocent-looking field addition does not silently
// push the status bits onto a second line.
static_assert(offsetof(DynUop, readyAt) == 64,
              "DynUop hot fields must fill exactly the first 64 bytes");
static_assert(sizeof(DynUop) <= 160,
              "DynUop grew past 160 bytes; re-check the ROB footprint");

namespace
{

using test::RefCommit;

// --------------------------------------------------------------------
// Layer 1: randomized structural differential
// --------------------------------------------------------------------

DynUop
makeUop(SeqNum seq, Pc pc, ArchReg dest, ArchReg src1, ArchReg src2)
{
    DynUop u;
    u.seq = seq;
    u.pc = pc;
    u.sop.op = Opcode::kIntAlu;
    u.sop.dest = dest;
    u.sop.src1 = src1;
    u.sop.src2 = src2;
    return u;
}

/** Compare the indexed and scan forms across a grid of queries that
 *  covers present/absent PCs, every register, and seq bounds below,
 *  inside and above the live window. */
void
expectFormsAgree(const Rob &rob, SeqNum max_seq, std::uint64_t step)
{
    const SeqNum probes[] = {0, max_seq / 2, max_seq, max_seq + 1};
    for (Pc pc = 0; pc < 12; ++pc) {
        for (const SeqNum after : probes) {
            ASSERT_EQ(rob.findOldestByPcIndexed(pc, after),
                      rob.findOldestByPcScan(pc, after))
                << "pc " << pc << " after " << after << " step " << step;
        }
    }
    for (ArchReg reg = 0; reg < 8; ++reg) {
        for (const SeqNum before : probes) {
            ASSERT_EQ(rob.findProducerIndexed(reg, before),
                      rob.findProducerScan(reg, before))
                << "reg " << reg << " before " << before << " step "
                << step;
        }
    }
}

TEST(RobIndex, RandomizedInsertRetireSquashDifferential)
{
    Rng rng(0x5eed);
    Rob rob(32);
    SeqNum next_seq = 1;
    int restores = 0;

    const auto push_random = [&] {
        // Small PC / register alphabets force heavy key collisions, the
        // regime where a broken list would first diverge from a scan.
        const Pc pc = rng.next() % 10;
        const ArchReg dest =
            rng.next() % 4 == 0 ? kNoArchReg : ArchReg(rng.next() % 8);
        const ArchReg src1 = ArchReg(rng.next() % 8);
        const ArchReg src2 =
            rng.next() % 3 == 0 ? kNoArchReg : ArchReg(rng.next() % 8);
        rob.push(makeUop(next_seq++, pc, dest, src1, src2));
    };

    for (std::uint64_t step = 0; step < 6000; ++step) {
        const std::uint64_t roll = rng.next() % 100;
        if (roll < 45) {
            if (!rob.full())
                push_random();
        } else if (roll < 70) {
            if (!rob.empty())
                rob.popHead();
        } else if (roll < 85) {
            if (!rob.empty())
                rob.popTail();
        } else if (roll < 95) {
            // Squash to a checkpoint: pop the tail back to a random
            // retained size, exactly what Core::squashYoungerThan and
            // runahead-exit restoration do.
            const int keep =
                rob.empty() ? 0 : int(rng.next() % (rob.size() + 1));
            while (rob.size() > keep)
                rob.popTail();
        } else if (roll < 97) {
            rob.clear();
        } else {
            // Snapshot capture→restore, landing on this ROB after its
            // CAM was built for a different window, and on a fresh ROB
            // that never built one.
            const std::string payload = captureRobState(rob);
            if (!rob.empty())
                rob.popTail();
            expectFormsAgree(rob, next_seq, step);
            restoreRobState(rob, payload);
            Rob fresh(32);
            restoreRobState(fresh, payload);
            ASSERT_EQ(fresh.size(), rob.size());
            ASSERT_EQ(fresh.headSlot(), rob.headSlot());
            expectFormsAgree(fresh, next_seq, step);
            ++restores;
        }
        expectFormsAgree(rob, next_seq, step);
    }
    // The walk must have exercised a full window at least once.
    EXPECT_GT(next_seq, 1000u);
    EXPECT_GT(restores, 100);
}

TEST(RobIndex, RestoreRejectsMismatchedCapacity)
{
    Rob small(8);
    small.push(makeUop(1, 3, 2, 0, 1));
    const std::string payload = captureRobState(small);
    Rob large(16);
    EXPECT_THROW(restoreRobState(large, payload), SnapshotError);
    EXPECT_THROW(restoreRobState(small, payload + "x"), SnapshotError);
}

TEST(RobIndex, SetIndexedSelectsReferencePath)
{
    Rob rob(8);
    rob.push(makeUop(1, /*pc=*/3, /*dest=*/2, 0, 1));
    rob.push(makeUop(2, /*pc=*/3, /*dest=*/5, 2, kNoArchReg));

    EXPECT_TRUE(rob.indexed());
    const int via_index = rob.findOldestByPc(3, 1);
    rob.setIndexed(false);
    EXPECT_FALSE(rob.indexed());
    const int via_scan = rob.findOldestByPc(3, 1);
    EXPECT_EQ(via_index, via_scan);
    // The indexed forms stay correct while disabled.
    rob.push(makeUop(3, /*pc=*/7, /*dest=*/2, 5, kNoArchReg));
    rob.setIndexed(true);
    EXPECT_EQ(rob.findOldestByPc(7, 0), rob.findOldestByPcScan(7, 0));
    EXPECT_EQ(rob.findProducer(2, 4), rob.findProducerScan(2, 4));
}

// --------------------------------------------------------------------
// Layer 2: whole-simulation differential (indexed vs reference scans)
// --------------------------------------------------------------------

constexpr RunaheadConfig kAllConfigs[] = {
    RunaheadConfig::kBaseline,         RunaheadConfig::kRunahead,
    RunaheadConfig::kRunaheadEnhanced, RunaheadConfig::kRunaheadBuffer,
    RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
};

/** Everything a differential pair compares. */
struct RunCapture
{
    std::vector<RefCommit> trace;
    std::map<std::string, double> stats;
    std::uint64_t cycles = 0;
};

RunCapture
runOne(RunaheadConfig rc, bool reference_scans, bool faulted)
{
    SimConfig config = makeConfig(rc, /*prefetch=*/false);
    config.warmupInstructions = 2'000;
    config.instructions = 15'000;
    config.checkLevel = CheckLevel::kFull;
    config.referenceScans = reference_scans;
    if (faulted) {
        // Speculative-only faults with violations routed to the
        // degradation ladder: chain generation keeps running against a
        // ROB whose contents the injector perturbs indirectly.
        config.checkPolicy = CheckPolicy::kDegrade;
        config.fault.enabled = true;
        config.fault.seed = 7;
        config.fault.chainCacheRate = 0.1;
        config.fault.bufferUopRate = 0.1;
    }
    config.finalize();

    Simulation sim(config, buildSuiteWorkload("mcf"));
    RunCapture cap;
    sim.core().setCommitHook([&](const DynUop &uop) {
        RefCommit c;
        c.pc = uop.pc;
        c.result = uop.sop.hasDest() || uop.isStore() ? uop.result : 0;
        c.addr = uop.sop.isMem() ? uop.effAddr : kNoAddr;
        c.taken = uop.isControl() && uop.actualTaken;
        cap.trace.push_back(c);
    });
    const SimResult result = sim.run();
    cap.cycles = result.cycles;

    cap.stats = sim.core().stats().collect();
    const std::map<std::string, double> mem = sim.memory().stats().collect();
    cap.stats.insert(mem.begin(), mem.end());
    return cap;
}

void
expectIdentical(const RunCapture &indexed, const RunCapture &scans,
                RunaheadConfig rc)
{
    const char *name = runaheadConfigName(rc);
    ASSERT_EQ(indexed.cycles, scans.cycles) << name;

    ASSERT_EQ(indexed.trace.size(), scans.trace.size()) << name;
    for (std::size_t i = 0; i < indexed.trace.size(); ++i) {
        ASSERT_EQ(indexed.trace[i].pc, scans.trace[i].pc)
            << name << " uop " << i;
        ASSERT_EQ(indexed.trace[i].result, scans.trace[i].result)
            << name << " uop " << i << " pc " << indexed.trace[i].pc;
        ASSERT_EQ(indexed.trace[i].addr, scans.trace[i].addr)
            << name << " uop " << i;
        ASSERT_EQ(indexed.trace[i].taken, scans.trace[i].taken)
            << name << " uop " << i;
    }

    ASSERT_EQ(indexed.stats.size(), scans.stats.size()) << name;
    for (const auto &[key, value] : scans.stats) {
        const auto it = indexed.stats.find(key);
        ASSERT_TRUE(it != indexed.stats.end())
            << name << " missing " << key;
        EXPECT_EQ(it->second, value) << name << " stat " << key;
    }
}

TEST(RobIndex, AllConfigsMatchReferenceScans)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const RunCapture indexed = runOne(rc, false, false);
        const RunCapture scans = runOne(rc, true, false);
        expectIdentical(indexed, scans, rc);
    }
}

TEST(RobIndex, AllConfigsMatchReferenceScansUnderFaults)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const RunCapture indexed = runOne(rc, false, true);
        const RunCapture scans = runOne(rc, true, true);
        expectIdentical(indexed, scans, rc);
    }
}

} // namespace
} // namespace rab
