/**
 * @file
 * Snapshot certification: capturing a simulation at the warmup
 * boundary and restoring it — in-process or through the CRC-framed
 * file format — must be invisible in every architectural and
 * statistical observable. For all six runahead configurations, and
 * again under speculative fault injection, a restore-resumed run must
 * produce a byte-identical commit stream, identical cycle count and an
 * identical full statistics payload (core + memory) compared to the
 * straight-line run that never snapshotted.
 *
 * Also certifies the failure surface: truncated, bit-flipped,
 * wrong-magic and wrong-version files are rejected with the right
 * structured SnapshotErrorKind, and mode gates (config digest, workload
 * identity, fork safety) refuse mismatched restores instead of
 * silently diverging.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "reference_interpreter.hh"
#include "snapshot/snapshot.hh"
#include "sweep/campaign.hh"
#include "sweep/report.hh"
#include "sweep/store/result_store.hh"
#include "temp_path.hh"
#include "workloads/suite.hh"

namespace rab
{
namespace
{

using test::RefCommit;

constexpr RunaheadConfig kAllConfigs[] = {
    RunaheadConfig::kBaseline,         RunaheadConfig::kRunahead,
    RunaheadConfig::kRunaheadEnhanced, RunaheadConfig::kRunaheadBuffer,
    RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
};

SimConfig
makeTestConfig(RunaheadConfig rc, bool faulted)
{
    SimConfig config = makeConfig(rc, /*prefetch=*/false);
    config.warmupInstructions = 2'000;
    config.instructions = 15'000;
    config.checkLevel = CheckLevel::kFull;
    if (faulted) {
        config.checkPolicy = CheckPolicy::kDegrade;
        config.fault.enabled = true;
        config.fault.seed = 7;
        config.fault.chainCacheRate = 0.1;
        config.fault.bufferUopRate = 0.1;
    }
    config.finalize();
    return config;
}

/** Everything a differential pair compares. */
struct RunCapture
{
    std::vector<RefCommit> trace;
    std::map<std::string, double> stats;
    std::uint64_t cycles = 0;
};

void
hookCommits(Simulation &sim, RunCapture &cap)
{
    sim.core().setCommitHook([&cap](const DynUop &uop) {
        RefCommit c;
        c.pc = uop.pc;
        c.result = uop.sop.hasDest() || uop.isStore() ? uop.result : 0;
        c.addr = uop.sop.isMem() ? uop.effAddr : kNoAddr;
        c.taken = uop.isControl() && uop.actualTaken;
        cap.trace.push_back(c);
    });
}

void
collectStats(Simulation &sim, RunCapture &cap)
{
    cap.stats = sim.core().stats().collect();
    const std::map<std::string, double> mem =
        sim.memory().stats().collect();
    cap.stats.insert(mem.begin(), mem.end());
}

/** The reference arm: warmup and measured region in one simulation,
 *  commit hook armed for the measured region only. */
RunCapture
runStraight(const SimConfig &config)
{
    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.runWarmup();
    RunCapture cap;
    hookCommits(sim, cap);
    cap.cycles = sim.runMeasured().cycles;
    collectStats(sim, cap);
    return cap;
}

void
expectIdentical(const RunCapture &snap, const RunCapture &straight,
                RunaheadConfig rc)
{
    const char *name = runaheadConfigName(rc);
    ASSERT_EQ(snap.cycles, straight.cycles) << name;

    ASSERT_EQ(snap.trace.size(), straight.trace.size()) << name;
    for (std::size_t i = 0; i < snap.trace.size(); ++i) {
        ASSERT_EQ(snap.trace[i].pc, straight.trace[i].pc)
            << name << " uop " << i;
        ASSERT_EQ(snap.trace[i].result, straight.trace[i].result)
            << name << " uop " << i << " pc " << snap.trace[i].pc;
        ASSERT_EQ(snap.trace[i].addr, straight.trace[i].addr)
            << name << " uop " << i;
        ASSERT_EQ(snap.trace[i].taken, straight.trace[i].taken)
            << name << " uop " << i;
    }

    ASSERT_EQ(snap.stats.size(), straight.stats.size()) << name;
    for (const auto &[key, value] : straight.stats) {
        const auto it = snap.stats.find(key);
        ASSERT_TRUE(it != snap.stats.end())
            << name << " missing " << key;
        EXPECT_EQ(it->second, value) << name << " stat " << key;
    }
}

/** The snapshot arm: warmup in one simulation, capture, restore into a
 *  FRESH simulation, resume there. Also asserts the restored state
 *  re-captures to the byte-identical payload. */
RunCapture
runViaSnapshot(const SimConfig &config)
{
    std::string payload;
    {
        Simulation warm(config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    Simulation sim(config, buildSuiteWorkload("mcf"));
    restoreSnapshot(sim, payload, SnapshotRestoreMode::kExact);
    // Round-trip fixpoint: restored state re-captures byte-identically.
    EXPECT_EQ(captureSnapshot(sim), payload);

    RunCapture cap;
    hookCommits(sim, cap);
    cap.cycles = sim.runMeasured().cycles;
    collectStats(sim, cap);
    return cap;
}

TEST(Snapshot, ExactRestoreMatchesStraightLineAllConfigs)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, false);
        expectIdentical(runViaSnapshot(config), runStraight(config),
                        rc);
    }
}

TEST(Snapshot, ExactRestoreMatchesStraightLineUnderFaults)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, true);
        expectIdentical(runViaSnapshot(config), runStraight(config),
                        rc);
    }
}

TEST(Snapshot, MetaDescribesCapturePoint)
{
    const SimConfig config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.runWarmup();
    const std::string payload = captureSnapshot(sim);

    const SnapshotMeta meta = peekSnapshotMeta(payload);
    EXPECT_EQ(meta.formatVersion, kSnapshotFormatVersion);
    EXPECT_EQ(meta.workload, "mcf");
    EXPECT_EQ(meta.configDigest, snapshotConfigDigest(config));
    EXPECT_EQ(meta.warmupDigest, snapshotWarmupDigest(config));
    EXPECT_TRUE(meta.forkSafe); // Baseline warmup: no runahead at all.
    EXPECT_FALSE(meta.faultPresent);
    EXPECT_FALSE(meta.enginePresent);
    EXPECT_EQ(meta.warmupInstructions, config.warmupInstructions);
    EXPECT_GE(meta.retired, config.warmupInstructions);
    EXPECT_GT(meta.cycle, 0u);
    EXPECT_EQ(meta.programSize, sim.program().size());
}

/** Fork restore: one baseline warmup image feeds every config variant;
 *  each forked run must be deterministic (two forks of the same
 *  variant agree exactly). */
TEST(Snapshot, ForkRestoreIsDeterministicAcrossVariants)
{
    const SimConfig warm_config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(warm_config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }
    ASSERT_TRUE(peekSnapshotMeta(payload).forkSafe);

    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, false);
        // The variants differ only in runahead policy, so they share
        // the warmup digest — that is what makes the fork legal.
        ASSERT_EQ(snapshotWarmupDigest(config),
                  snapshotWarmupDigest(warm_config))
            << runaheadConfigName(rc);

        RunCapture caps[2];
        for (RunCapture &cap : caps) {
            Simulation sim(config, buildSuiteWorkload("mcf"));
            restoreSnapshot(sim, payload, SnapshotRestoreMode::kFork);
            hookCommits(sim, cap);
            cap.cycles = sim.runMeasured().cycles;
            collectStats(sim, cap);
            EXPECT_GT(cap.trace.size(), 0u);
        }
        expectIdentical(caps[0], caps[1], rc);
    }
}

TEST(Snapshot, ExactRestoreRejectsConfigMismatch)
{
    const SimConfig base =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(base, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    const SimConfig other =
        makeTestConfig(RunaheadConfig::kHybrid, false);
    Simulation sim(other, buildSuiteWorkload("mcf"));
    try {
        restoreSnapshot(sim, payload, SnapshotRestoreMode::kExact);
        FAIL() << "config mismatch accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch);
    }
}

TEST(Snapshot, RestoreRejectsWorkloadMismatch)
{
    const SimConfig config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    Simulation sim(config, buildSuiteWorkload("lbm"));
    try {
        restoreSnapshot(sim, payload, SnapshotRestoreMode::kFork);
        FAIL() << "workload mismatch accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch);
    }
}

TEST(Snapshot, ForkRestoreRejectsWarmupConfigMismatch)
{
    const SimConfig base =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(base, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    SimConfig other = makeTestConfig(RunaheadConfig::kBaseline, false);
    other.core.robEntries *= 2; // Warmup-relevant structural change.
    other.finalize();
    Simulation sim(other, buildSuiteWorkload("mcf"));
    try {
        restoreSnapshot(sim, payload, SnapshotRestoreMode::kFork);
        FAIL() << "warmup-config mismatch accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch);
    }
}

// --------------------------------------------------------------------
// File framing
// --------------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = file_.str();
        const SimConfig config =
            makeTestConfig(RunaheadConfig::kBaseline, false);
        Simulation warm(config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload_ = captureSnapshot(warm);
        writeSnapshotFile(path_, payload_);
    }


    std::string readRaw() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    void writeRaw(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    SnapshotErrorKind readKind() const
    {
        try {
            readSnapshotFile(path_);
        } catch (const SnapshotError &e) {
            return e.kind();
        }
        ADD_FAILURE() << "corrupt snapshot file accepted";
        return SnapshotErrorKind::kIo;
    }

    const test::TempPath file_{"snap_test.rabsnap"};
    std::string path_;
    std::string payload_;
};

TEST_F(SnapshotFileTest, RoundTripsThroughDisk)
{
    EXPECT_EQ(readSnapshotFile(path_), payload_);
    // No leftover temp file from the atomic write.
    EXPECT_EQ(readRaw().size(), payload_.size() + 24);
}

TEST_F(SnapshotFileTest, RejectsTruncatedFile)
{
    const std::string raw = readRaw();
    writeRaw(raw.substr(0, raw.size() - 7));
    EXPECT_EQ(readKind(), SnapshotErrorKind::kTruncated);

    writeRaw(raw.substr(0, 11)); // Mid-header cut.
    EXPECT_EQ(readKind(), SnapshotErrorKind::kTruncated);
}

TEST_F(SnapshotFileTest, RejectsBitFlip)
{
    std::string raw = readRaw();
    raw[raw.size() / 2] ^= 0x40; // Somewhere inside the payload.
    writeRaw(raw);
    EXPECT_EQ(readKind(), SnapshotErrorKind::kCrc);
}

TEST_F(SnapshotFileTest, RejectsWrongMagic)
{
    std::string raw = readRaw();
    raw[0] = 'X';
    writeRaw(raw);
    EXPECT_EQ(readKind(), SnapshotErrorKind::kMagic);
}

TEST_F(SnapshotFileTest, RejectsWrongVersion)
{
    std::string raw = readRaw();
    raw[8] = 99; // Version u32 sits right after the 8-byte magic.
    writeRaw(raw);
    EXPECT_EQ(readKind(), SnapshotErrorKind::kVersion);
}

TEST_F(SnapshotFileTest, RejectsMissingFile)
{
    try {
        readSnapshotFile(path_ + ".does-not-exist");
        FAIL() << "missing file accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kIo);
    }
}

TEST_F(SnapshotFileTest, TruncatedPayloadRejectedOnRestore)
{
    // A payload cut inside a section must fail structurally, not read
    // out of bounds or silently succeed.
    const std::string cut = payload_.substr(0, payload_.size() / 2);
    const SimConfig config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    Simulation sim(config, buildSuiteWorkload("mcf"));
    try {
        restoreSnapshot(sim, cut, SnapshotRestoreMode::kExact);
        FAIL() << "truncated payload accepted";
    } catch (const SnapshotError &e) {
        EXPECT_TRUE(e.kind() == SnapshotErrorKind::kTruncated
                    || e.kind() == SnapshotErrorKind::kFormat)
            << snapshotErrorKindName(e.kind());
    }
}

TEST(SnapshotError, KindNamesAreStable)
{
    EXPECT_STREQ(snapshotErrorKindName(SnapshotErrorKind::kIo), "io");
    EXPECT_STREQ(snapshotErrorKindName(SnapshotErrorKind::kCrc), "crc");
    EXPECT_STREQ(snapshotErrorKindName(SnapshotErrorKind::kMismatch),
                 "mismatch");
}

// ---------------------------------------------------------------------
// Campaign integration: shared-image warmup
// ---------------------------------------------------------------------

CampaignSpec
campaignSpec()
{
    CampaignSpec spec;
    spec.name = "snapshot-grid";
    spec.workloads = {"mcf", "libq"};
    spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                     makeVariant(RunaheadConfig::kHybrid, false),
                     makeVariant(RunaheadConfig::kCRE, false)};
    spec.instructions = 2'000;
    spec.warmup = 4'000;
    spec.snapshotWarmup = true;
    return spec;
}

TEST(SnapshotCampaign, SharedAndPerPointImagesAreByteIdentical)
{
    // The whole scheme's correctness argument in one test: the shared
    // arm warms each (workload, seed, prefetch) group once and forks
    // every variant from the image; the control arm builds a private
    // image per point. Same fork semantics, deterministic warmup ⇒
    // identical images ⇒ the canonical manifests must be
    // byte-identical. Also certified against thread-count variation.
    const CampaignSpec spec = campaignSpec();

    const CampaignResult shared = runCampaign(spec, 2);
    for (const PointResult &p : shared.points) {
        ASSERT_TRUE(p.ok) << p.error;
        EXPECT_TRUE(p.snapshotWarmed);
    }

    CampaignRunOptions cold_options;
    cold_options.snapshotNoShare = true;
    const CampaignResult cold = runCampaign(spec, 1, cold_options);
    for (const PointResult &p : cold.points)
        EXPECT_TRUE(p.snapshotWarmed);

    EXPECT_EQ(campaignManifest(shared, /*canonical=*/true).dump(),
              campaignManifest(cold, /*canonical=*/true).dump());
}

TEST(SnapshotCampaign, SnapshotAndInlineWarmupAreDistinctUniverses)
{
    // A snapshot-warmed point warmed up under the baseline policy; an
    // inline-warmed one under its own. The runs genuinely differ for
    // non-baseline variants, which is exactly why the v4 store key
    // separates the two worlds.
    CampaignSpec spec = campaignSpec();
    const CampaignResult snap = runCampaign(spec, 1);
    spec.snapshotWarmup = false;
    const CampaignResult inline_warm = runCampaign(spec, 1);

    ASSERT_EQ(snap.points.size(), inline_warm.points.size());
    // Baseline variants fork from a baseline-warmed image: identical
    // machines either way, so their results must agree exactly.
    for (std::size_t i = 0; i < snap.points.size(); ++i) {
        const PointResult &a = snap.points[i];
        const PointResult &b = inline_warm.points[i];
        ASSERT_TRUE(a.ok && b.ok);
        EXPECT_FALSE(b.snapshotWarmed);
        if (a.point.runahead == RunaheadConfig::kBaseline) {
            EXPECT_EQ(a.result.cycles, b.result.cycles)
                << a.point.workload;
            EXPECT_EQ(a.stats, b.stats) << a.point.workload;
        }
    }
}

TEST(SnapshotCampaign, StoreCachesImagesAndKeysResultsByImage)
{
    const test::TempPath root("rabstore-snapwarm");
    ResultStore store(root.str());
    ASSERT_TRUE(store.ok()) << store.error();

    const CampaignSpec spec = campaignSpec();
    CampaignRunOptions options;
    options.store = &store;

    // Cold: every image is built (one per workload — one seed, one
    // prefetch setting) and persisted; every result is a miss.
    const CampaignResult cold = runCampaign(spec, 2, options);
    for (const PointResult &p : cold.points)
        ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(cold.storeSnapshotMisses, spec.workloads.size());
    EXPECT_EQ(cold.storeSnapshotHits, 0u);
    EXPECT_EQ(cold.storeMisses, spec.pointCount());

    // Warm: images and results all served from the store.
    const CampaignResult warm = runCampaign(spec, 2, options);
    EXPECT_EQ(warm.storeSnapshotHits, spec.workloads.size());
    EXPECT_EQ(warm.storeSnapshotMisses, 0u);
    EXPECT_EQ(warm.storeHits, spec.pointCount());
    EXPECT_EQ(campaignManifest(warm, true).dump(),
              campaignManifest(cold, true).dump());

    // An inline-warmup campaign over the same store must not be
    // served snapshot-warmed results: different key universe.
    CampaignSpec inline_spec = spec;
    inline_spec.snapshotWarmup = false;
    const CampaignResult inline_run =
        runCampaign(inline_spec, 2, options);
    EXPECT_EQ(inline_run.storeHits, 0u);
    EXPECT_EQ(inline_run.storeMisses, inline_spec.pointCount());
}

} // namespace
} // namespace rab
