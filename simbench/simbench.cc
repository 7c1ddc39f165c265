/**
 * @file
 * simbench: the repository benchmark.
 *
 *   simbench --workload gather|chase|compute|pf-grid --seed N
 *            --seconds S --trace 0|1
 *
 * Runs one workload repeatedly for S wall-clock seconds (at least
 * kMinPasses passes) and prints, as its last stdout line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end ones, taken with no instrumentation
 * in the simulator's path; with --trace 1 they are the per-layer ones,
 * from passes whose cycle loop simbench runs itself (Core::run
 * rebuilt from tick / fastForwardEligible / proposeFastForward /
 * applyFastForward) so it can count ticks per runahead mode and sample
 * the clock on 1 in kSampleEvery calls.
 *
 * Every layer is timed from outside, around calls into the library's
 * public API; no simulator source is instrumented. A point passes only
 * if it retires its whole instruction budget, its 32 architectural
 * registers match the in-order ReferenceInterpreter run for the same
 * number of uops, and its simulated result and stat payload are
 * bit-identical to the first pass's (traced passes included). Any
 * failure makes simbench exit 1.
 *
 * simbench/README.md describes the workloads, metrics and noise.
 */

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/simulation.hh"
#include "reference_interpreter.hh"
#include "snapshot/snapshot.hh"
#include "sweep/campaign.hh"
#include "workloads/suite.hh"

namespace
{

using namespace rab;
using SteadyClock = std::chrono::steady_clock;

/** A run always makes at least this many passes, however long. */
constexpr std::size_t kMinPasses = 3;

/** Traced passes read the clock around 1 in this many calls. */
constexpr std::uint64_t kSampleEvery = 16;

// ---------------------------------------------------------------------
// Workloads

/** One benchmark workload: a programs x variants grid and its sizing. */
struct Shape
{
    const char *name;
    std::vector<std::string> programs;
    std::vector<RunaheadConfig> variants;
    /** The Fig 15 setting: stream prefetcher on, and the grid also run
     *  through runCampaign with shared warm images (the sweep +
     *  snapshot layers). */
    bool campaign;
    std::uint64_t instructions;
    std::uint64_t warmup;
};

const std::vector<RunaheadConfig> kPaperVariants = {
    RunaheadConfig::kBaseline, RunaheadConfig::kHybrid,
    RunaheadConfig::kCREHybrid};

const std::vector<Shape> &
shapes()
{
    static const std::vector<Shape> all = {
        {"gather", {"mcf"}, kPaperVariants, false, 100'000,
         50'000},
        {"chase", {"omnetpp"}, kPaperVariants, false, 60'000,
         40'000},
        {"compute", {"h264"}, kPaperVariants, false, 300'000,
         50'000},
        {"pf-grid",
         {"mcf", "libq"},
         {RunaheadConfig::kBaseline, RunaheadConfig::kRunahead,
          RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
          RunaheadConfig::kCREHybrid},
         true, 40'000, 80'000},
    };
    return all;
}

/** The shape's grid as a single-threaded campaign spec; the seed goes
 *  to WorkloadParams::seed (0 keeps each workload's default). */
CampaignSpec
makeSpec(const Shape &shape, std::uint64_t seed)
{
    CampaignSpec spec;
    spec.name = shape.name;
    spec.workloads = shape.programs;
    for (RunaheadConfig config : shape.variants)
        spec.variants.push_back(makeVariant(config, shape.campaign));
    spec.seeds = {seed};
    spec.instructions = shape.instructions;
    spec.warmup = shape.warmup;
    spec.snapshotWarmup = shape.campaign;
    return spec;
}

/** The config runPoint builds for @p point. */
SimConfig
pointConfig(const CampaignSpec &spec, const SweepPoint &point)
{
    SimConfig config = makeConfig(point.runahead, point.prefetch);
    config.instructions = spec.instructions;
    config.warmupInstructions = spec.warmup;
    config.checkLevel = spec.checkLevel;
    config.checkPolicy = spec.checkPolicy;
    config.fastForward = spec.fastForward;
    config.finalize();
    return config;
}

WorkloadParams
pointParams(const SweepPoint &point)
{
    WorkloadParams params = findWorkload(point.workload)->params;
    if (point.seed != 0)
        params.seed = point.seed;
    return params;
}

// ---------------------------------------------------------------------
// Clocks

double
wallNow()
{
    return std::chrono::duration<double>(
               SteadyClock::now().time_since_epoch())
        .count();
}

/** Process CPU seconds (every simulation runs on the main thread). */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double
nsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double, std::nano>(SteadyClock::now()
                                                    - start)
        .count();
}

/**
 * Peak resident memory of this process in MB: Linux's VmHWM, which
 * starts afresh at exec (getrusage's ru_maxrss does not, and would
 * report a Python parent's ~14 MB peak).
 */
double
peakRssMb()
{
    double kb = -1;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            if (std::strncmp(line, "VmHWM:", 6) == 0)
                kb = std::atof(line + 6);
        }
        std::fclose(f);
    }
    if (kb < 0)
        fatal("simbench: no VmHWM in /proc/self/status");
    return kb / 1024.0;
}

// ---------------------------------------------------------------------
// The traced cycle loop

/** What a traced measured region saw, per RunaheadMode at tick start
 *  (kNone, kTraditional, kBuffer). */
struct TickTrace
{
    std::array<std::uint64_t, 3> ticks{};
    std::array<std::uint64_t, 3> samples{};
    std::array<double, 3> sampledNs{};
    std::uint64_t proposals = 0;
    std::uint64_t applies = 0;
    std::uint64_t proposeSamples = 0;
    std::uint64_t applySamples = 0;
    double proposeNs = 0;
    double applyNs = 0;
};

/** Core::run, rebuilt from its public calls, with counting and
 *  sampled timing around each. Must stay the same program as
 *  Core::run: every traced pass is checked bit-identical against an
 *  untraced one. */
void
tracedRun(Core &core, std::uint64_t max_instructions,
          std::uint64_t max_cycles, TickTrace &t)
{
    const std::uint64_t target = core.retired() + max_instructions;
    const Cycle cycle_limit = core.cycle() + max_cycles;
    while (core.retired() < target && core.cycle() < cycle_limit) {
        const auto mode =
            static_cast<std::size_t>(core.runahead().mode());
        if (++t.ticks[mode] % kSampleEvery == 0) {
            const auto start = SteadyClock::now();
            core.tick();
            t.sampledNs[mode] += nsSince(start);
            ++t.samples[mode];
        } else {
            core.tick();
        }
        if (!core.fastForwardEligible())
            continue;
        Cycle horizon = 0;
        if (++t.proposals % kSampleEvery == 0) {
            const auto start = SteadyClock::now();
            horizon = core.proposeFastForward();
            t.proposeNs += nsSince(start);
            ++t.proposeSamples;
        } else {
            horizon = core.proposeFastForward();
        }
        if (horizon > cycle_limit)
            horizon = cycle_limit;
        if (horizon <= core.cycle() + 1)
            continue;
        if (++t.applies % kSampleEvery == 0) {
            const auto start = SteadyClock::now();
            core.applyFastForward(horizon);
            t.applyNs += nsSince(start);
            ++t.applySamples;
        } else {
            core.applyFastForward(horizon);
        }
    }
}

// ---------------------------------------------------------------------
// Passes

/** One simulated point of a pass. */
struct PointRun
{
    std::string program;
    RunaheadConfig config = RunaheadConfig::kBaseline;
    SimResult result;
    std::map<std::string, double> stats; ///< core.* + mem.* payload.
    std::uint64_t digest = 0;            ///< Of result + stats.
    /** Of the final architectural registers (direct passes only): the
     *  one output where a seed that changes only immediates shows. */
    std::uint64_t archDigest = 0;
    std::string error;                   ///< Empty: passed.
};

/** One pass over a workload's whole grid. */
struct Pass
{
    std::vector<PointRun> points;
    std::uint64_t instructions = 0; ///< Committed, measured regions.
    double measuredCpuS = 0; ///< CPU seconds in measured regions.
    double setupS = 0;       ///< Wall seconds before measuring.
    double totalS = 0;       ///< Wall seconds, setup to collection.
    /** @{ Per-layer wall seconds, summed over the pass's points. */
    double buildS = 0;
    double constructS = 0;
    double warmupS = 0; ///< Inline warmup, or image build + restore.
    double collectS = 0;
    /** @} */
    TickTrace ticks; ///< Traced passes only.
    /** @{ Campaign passes only (CampaignResult). */
    double pointsS = 0;
    std::size_t warmedPoints = 0;
    /** @} */

    double simIps() const
    {
        return measuredCpuS > 0
            ? static_cast<double>(instructions) / measuredCpuS : 0.0;
    }
};

std::string
hexDouble(double v)
{
    return strprintf("%a", v);
}

/** Digest of every simulated output of a point: the SimResult fields
 *  and the flattened stat payload, bit for bit. */
std::uint64_t
digestOf(const SimResult &r, const std::map<std::string, double> &stats)
{
    std::string s = strprintf(
        "%s %d %d %llu %llu %llu %llu %llu %llu %llu %d|",
        r.workload.c_str(), static_cast<int>(r.config),
        r.prefetch ? 1 : 0, (unsigned long long)r.instructions,
        (unsigned long long)r.cycles,
        (unsigned long long)r.dramRequests,
        (unsigned long long)r.runaheadIntervals,
        (unsigned long long)r.faultsInjected,
        (unsigned long long)r.watchdogRecoveries,
        (unsigned long long)r.degradeSteps, r.degradeLevel);
    for (double v :
         {r.ipc, r.mpki, r.memStallFraction, r.fig2OnChipFraction,
          r.necessaryFraction, r.repeatedFraction, r.avgChainLength,
          r.missesPerInterval, r.bufferCycleFraction,
          r.chainCacheHitRate, r.chainCacheExactRate,
          r.hybridBufferFraction, r.energy.frontendJ, r.energy.renameJ,
          r.energy.windowJ, r.energy.regfileJ, r.energy.executeJ,
          r.energy.cacheJ, r.energy.dramJ, r.energy.runaheadJ,
          r.energy.engineJ, r.energy.leakageJ, r.energy.totalJ,
          r.energy.seconds})
        s += hexDouble(v) + ' ';
    for (const auto &[name, value] : stats)
        s += name + '=' + hexDouble(value) + ';';
    return snapshotContentHash(s);
}

std::map<std::string, double>
statPayload(Simulation &sim)
{
    std::map<std::string, double> stats = sim.core().stats().collect();
    for (const auto &[name, value] : sim.memory().stats().collect())
        stats.emplace(name, value);
    return stats;
}

/** The correctness gate's architectural check: the core's registers
 *  against the in-order reference run for as many uops. */
std::string
checkArchState(Simulation &sim)
{
    test::ReferenceInterpreter ref(sim.program());
    const std::uint64_t retired = sim.core().retired();
    for (std::uint64_t i = 0; i < retired; ++i)
        ref.step();
    for (ArchReg r = 0; r < kNumArchRegs; ++r) {
        if (ref.reg(r) != sim.core().archReg(r)) {
            return strprintf(
                "r%d is %#llx, reference %#llx after %llu uops", r,
                (unsigned long long)sim.core().archReg(r),
                (unsigned long long)ref.reg(r),
                (unsigned long long)retired);
        }
    }
    return "";
}

std::string
checkBudget(const SimResult &r, std::uint64_t instructions)
{
    if (r.instructions >= instructions)
        return "";
    return strprintf("stopped at maxCycles after %llu of %llu "
                     "instructions",
                     (unsigned long long)r.instructions,
                     (unsigned long long)instructions);
}

/**
 * Simulate every point of @p spec one by one on this thread: inline
 * warmup, or (campaign shapes) a fork restore from a shared warm image
 * built with buildWarmupImage — the same work runPoint does, with each
 * layer timed. @p traced runs the measured region through tracedRun.
 */
Pass
runDirectPass(const CampaignSpec &spec, bool traced)
{
    Pass pass;
    std::map<std::string, std::string> images;
    for (const SweepPoint &point : expandGrid(spec)) {
        PointRun run;
        run.program = point.workload;
        run.config = point.runahead;
        try {
            const double t0 = wallNow();
            if (spec.snapshotWarmup && !images.count(point.workload))
                images[point.workload] = buildWarmupImage(spec, point);
            const double t1 = wallNow();
            Program program = buildWorkload(pointParams(point));
            const double t2 = wallNow();
            Simulation sim(pointConfig(spec, point), std::move(program));
            const double t3 = wallNow();
            if (spec.snapshotWarmup) {
                restoreSnapshot(sim, images[point.workload],
                                SnapshotRestoreMode::kFork);
            } else {
                sim.runWarmup();
            }
            const double t4 = wallNow();
            const double cpu0 = cpuNow();
            double collect_s = 0;
            if (traced) {
                Core &core = sim.core();
                const Cycle start_cycle = core.cycle();
                tracedRun(core, sim.config().instructions,
                          sim.config().maxCycles, pass.ticks);
                const double c0 = wallNow();
                run.result = collectSimResult(
                    sim.config(), sim.program().name(),
                    sim.config().runahead, core, sim.memory(),
                    sim.faults(), core.cycle() - start_cycle);
                collect_s = wallNow() - c0;
            } else {
                run.result = sim.runMeasured();
            }
            const double cpu1 = cpuNow();
            run.stats = statPayload(sim);
            const double t5 = wallNow();

            pass.buildS += t2 - t1;
            pass.constructS += t3 - t2;
            pass.warmupS += (t1 - t0) + (t4 - t3);
            pass.collectS += collect_s;
            pass.setupS += t4 - t0;
            pass.totalS += t5 - t0;
            pass.measuredCpuS += cpu1 - cpu0;
            pass.instructions += run.result.instructions;

            run.digest = digestOf(run.result, run.stats);
            run.error = checkBudget(run.result, spec.instructions);
            if (run.error.empty())
                run.error = checkArchState(sim);
            std::string regs;
            for (ArchReg r = 0; r < kNumArchRegs; ++r)
                regs += strprintf("%llx ", (unsigned long long)
                                                sim.core().archReg(r));
            run.archDigest = snapshotContentHash(regs);
        } catch (const std::exception &e) {
            run.error = std::string("exception: ") + e.what();
        }
        pass.points.push_back(std::move(run));
    }
    return pass;
}

/** The whole grid through runCampaign on one worker thread. It times
 *  only the campaign as a whole (setup and total); sim_ips comes from
 *  the direct passes, whose measured regions are timed alone. */
Pass
runCampaignPass(const CampaignSpec &spec)
{
    Pass pass;
    double first_done = -1;
    double first_wall = 0;
    CampaignRunOptions options;
    options.onPoint = [&](const PointResult &p) {
        if (first_done < 0) {
            first_done = wallNow();
            first_wall = p.wallSeconds;
        }
    };
    const double t0 = wallNow();
    CampaignResult campaign = runCampaign(spec, 1, options);
    const double t1 = wallNow();

    pass.totalS = t1 - t0;
    pass.setupS = first_done - t0 - first_wall;
    for (PointResult &p : campaign.points) {
        PointRun run;
        run.program = p.point.workload;
        run.config = p.point.runahead;
        pass.pointsS += p.wallSeconds;
        pass.warmedPoints += p.snapshotWarmed ? 1 : 0;
        if (p.ok) {
            run.result = p.result;
            run.stats = std::move(p.stats);
            run.digest = digestOf(run.result, run.stats);
            run.error = checkBudget(run.result, spec.instructions);
        } else {
            run.error = p.error.empty() ? "point did not run" : p.error;
        }
        pass.points.push_back(std::move(run));
    }
    return pass;
}

// ---------------------------------------------------------------------
// Metrics

/** Cut point @p k of 10 over @p v, as Python's
 *  statistics.quantiles(v, n=10) gives it (exclusive method); k = 5 is
 *  the median. */
double
decile(std::vector<double> v, int k)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos =
        std::clamp(static_cast<double>(v.size() + 1) * k / 10.0, 1.0,
                   static_cast<double>(v.size()));
    const auto j = static_cast<std::size_t>(pos);
    if (j >= v.size())
        return v.back();
    return v[j - 1] + (pos - static_cast<double>(j)) * (v[j] - v[j - 1]);
}

template <typename F>
double
decileOver(const std::vector<Pass> &passes, int k, F f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return decile(std::move(v), k);
}

/**
 * Host-time estimators over a run's passes: the slow decile, not the
 * median. On a shared host pass speed swings in bursts above a floor
 * it keeps returning to; the median moves with how much of a run the
 * bursts cover, the slow decile tracks the floor (simbench/README.md,
 * "Estimators and host noise").
 */
constexpr int kSlowSpeed = 1; ///< sim_ips: the 10th percentile.
constexpr int kSlowTime = 9;  ///< Times: the 90th percentile.

double
simIpsOf(const Pass &p)
{
    return p.simIps();
}

double
setupOf(const Pass &p)
{
    return p.setupS;
}

double
totalOf(const Pass &p)
{
    return p.totalS;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Sum of stat @p name over a pass's points. */
double
statSum(const Pass &pass, const char *name)
{
    double sum = 0;
    for (const PointRun &run : pass.points) {
        const auto it = run.stats.find(name);
        if (it != run.stats.end())
            sum += it->second;
    }
    return sum;
}

const PointRun *
findPoint(const Pass &pass, const std::string &program,
          RunaheadConfig config)
{
    for (const PointRun &run : pass.points) {
        if (run.program == program && run.config == config)
            return &run;
    }
    return nullptr;
}

/** Geomean over programs of @p variant's @p f over baseline's. */
template <typename F>
double
variantRatio(const Pass &pass, const Shape &shape, RunaheadConfig variant,
             F f)
{
    double log_sum = 0;
    for (const std::string &program : shape.programs) {
        const PointRun *base =
            findPoint(pass, program, RunaheadConfig::kBaseline);
        const PointRun *other = findPoint(pass, program, variant);
        const double r = base && other
            ? ratio(f(other->result), f(base->result)) : 0.0;
        if (!(r > 0))
            return 0.0;
        log_sum += std::log(r);
    }
    return std::exp(log_sum / static_cast<double>(shape.programs.size()));
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** @p plain gives sim_ips and the simulated ratios; @p timed (the
 *  campaign passes on pf-grid, else @p plain) gives setup_s and
 *  total_s. */
std::vector<Metric>
endToEndMetrics(const Shape &shape, const std::vector<Pass> &plain,
                const std::vector<Pass> &timed, std::uint64_t attempted,
                std::uint64_t failed, double peak_rss_mb)
{
    const Pass &first = plain.front();
    const auto ipc = [](const SimResult &r) { return r.ipc; };
    const auto energy = [](const SimResult &r) { return r.energy.totalJ; };
    return {
        {"sim_ips", decileOver(plain, kSlowSpeed, simIpsOf), "instr/s"},
        {"setup_s", decileOver(timed, kSlowTime, setupOf), "s"},
        {"total_s", decileOver(timed, kSlowTime, totalOf), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"hybrid_ipc_ratio",
         variantRatio(first, shape, RunaheadConfig::kHybrid, ipc),
         "ratio"},
        {"cre_hybrid_ipc_ratio",
         variantRatio(first, shape, RunaheadConfig::kCREHybrid, ipc),
         "ratio"},
        {"hybrid_energy_ratio",
         variantRatio(first, shape, RunaheadConfig::kHybrid, energy),
         "ratio"},
        {"ok_ratio",
         ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "ratio"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<Pass> &plain,
                const std::vector<Pass> &traced,
                const std::vector<Pass> &campaigns)
{
    // Counts repeat exactly across passes (checked), so they come from
    // the first traced (or campaign) pass; host times are slow deciles
    // over traced (or campaign) passes, like the end-to-end ones.
    const Pass &t = traced.front();
    const double kinstr = static_cast<double>(t.instructions) / 1000.0;
    const auto per_kinstr = [&](double count) {
        return ratio(count, kinstr);
    };
    double cycles = 0;
    double energy_j = 0;
    double frontend_j = 0;
    for (const PointRun &run : t.points) {
        cycles += static_cast<double>(run.result.cycles);
        energy_j += run.result.energy.totalJ;
        frontend_j += run.result.energy.frontendJ;
    }
    const auto tick_ns = [&](std::size_t mode) {
        return decileOver(traced, kSlowTime, [mode](const Pass &p) {
            return ratio(p.ticks.sampledNs[mode],
                         static_cast<double>(p.ticks.samples[mode]));
        });
    };
    const TickTrace &k = t.ticks;
    const double intervals = statSum(t, "core.runahead.intervals");
    const double cc_hits = statSum(t, "core.runahead.chain_cache.hits");
    const double engine_issued =
        statSum(t, "mem.engine.prefetches_issued");
    const double dram_reads = statSum(t, "mem.dram.reads");
    // Plain and traced passes alternate: compare each traced pass with
    // the plain pass just before it, so host drift cancels.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size() && i < plain.size(); ++i)
        overhead.push_back(ratio(plain[i].simIps(), traced[i].simIps()));

    return {
        {"workloads.build_ms", 1e3 * decileOver(traced, kSlowTime, [](const Pass &p) {
             return p.buildS; }), "ms"},
        {"core.construct_ms", 1e3 * decileOver(traced, kSlowTime, [](const Pass &p) {
             return p.constructS; }), "ms"},
        {"core.warmup_s", decileOver(traced, kSlowTime, [](const Pass &p) {
             return p.warmupS; }), "s"},
        {"core.collect_ms", 1e3 * decileOver(traced, kSlowTime, [](const Pass &p) {
             return p.collectS; }), "ms"},
        {"backend.ticks_per_kinstr.normal",
         per_kinstr(static_cast<double>(k.ticks[0])), "ticks/kinstr"},
        {"backend.ticks_per_kinstr.traditional",
         per_kinstr(static_cast<double>(k.ticks[1])), "ticks/kinstr"},
        {"backend.ticks_per_kinstr.buffer",
         per_kinstr(static_cast<double>(k.ticks[2])), "ticks/kinstr"},
        {"backend.tick_ns.normal", tick_ns(0), "ns"},
        {"backend.tick_ns.traditional", tick_ns(1), "ns"},
        {"backend.tick_ns.buffer", tick_ns(2), "ns"},
        {"backend.squashed_per_kinstr",
         per_kinstr(statSum(t, "core.squashed_uops")), "uops/kinstr"},
        {"backend.load_queue_retries_per_kinstr",
         per_kinstr(statSum(t, "core.load_queue_retries")),
         "retries/kinstr"},
        {"backend.ff.proposals_per_kinstr",
         per_kinstr(static_cast<double>(k.proposals)), "calls/kinstr"},
        {"backend.ff.hit_ratio",
         ratio(static_cast<double>(k.applies),
               static_cast<double>(k.proposals)),
         "ratio"},
        {"backend.ff.skipped_cycle_fraction",
         ratio(statSum(t, "core.fastforward.skipped_cycles"), cycles),
         "fraction"},
        {"backend.ff.propose_ns", decileOver(traced, kSlowTime, [](const Pass &p) {
             return ratio(p.ticks.proposeNs,
                          static_cast<double>(p.ticks.proposeSamples));
         }), "ns"},
        {"backend.ff.apply_ns", decileOver(traced, kSlowTime, [](const Pass &p) {
             return ratio(p.ticks.applyNs,
                          static_cast<double>(p.ticks.applySamples));
         }), "ns"},
        {"runahead.intervals_per_kinstr", per_kinstr(intervals),
         "intervals/kinstr"},
        {"runahead.buffer_cycle_fraction",
         ratio(statSum(t, "core.runahead.cycles_buffer"), cycles),
         "fraction"},
        {"runahead.traditional_cycle_fraction",
         ratio(statSum(t, "core.runahead.cycles_traditional"), cycles),
         "fraction"},
        {"runahead.chain_cache_hit_ratio",
         ratio(cc_hits,
               cc_hits + statSum(t, "core.runahead.chain_cache.misses")),
         "ratio"},
        {"runahead.chain_gen_overflow_ratio",
         ratio(statSum(t, "core.runahead.chain_gen.overflows"),
               statSum(t, "core.runahead.chain_gen.attempts")),
         "ratio"},
        {"runahead.misses_per_interval",
         ratio(statSum(t, "core.runahead.runahead_misses"), intervals),
         "misses/interval"},
        {"runahead.engine.uops_per_kinstr",
         per_kinstr(statSum(t, "mem.engine.uops_executed")),
         "uops/kinstr"},
        {"runahead.engine.timely_ratio",
         ratio(statSum(t, "mem.engine.prefetches_timely"), engine_issued),
         "ratio"},
        {"runahead.engine.unused_ratio",
         ratio(statSum(t, "mem.engine.prefetches_unused"), engine_issued),
         "ratio"},
        {"memory.llc_demand_mpki",
         per_kinstr(statSum(t, "mem.llc_demand_misses")),
         "misses/kinstr"},
        {"memory.dram_reads_per_kinstr", per_kinstr(dram_reads),
         "reads/kinstr"},
        {"memory.dram_queue_wait_cycles",
         ratio(statSum(t, "mem.dram.queue_wait_sum"), dram_reads),
         "cycles"},
        {"memory.prefetcher.useful_ratio",
         ratio(statSum(t, "mem.prefetcher.useful"),
               statSum(t, "mem.prefetcher.issued")),
         "ratio"},
        {"energy.nj_per_instr",
         1e9 * ratio(energy_j, static_cast<double>(t.instructions)),
         "nJ/instr"},
        {"energy.frontend_share", ratio(frontend_j, energy_j), "ratio"},
        {"sweep.points_s", decileOver(campaigns, kSlowTime, [](const Pass &p) {
             return p.pointsS; }), "s"},
        {"sweep.outside_points_s", decileOver(campaigns, kSlowTime, [](const Pass &p) {
             return p.totalS - p.pointsS; }), "s"},
        {"snapshot.warmed_ratio",
         campaigns.empty()
             ? 0.0
             : ratio(static_cast<double>(campaigns.front().warmedPoints),
                     static_cast<double>(campaigns.front().points.size())),
         "ratio"},
        {"bench.trace_overhead_pct",
         100.0 * (decile(overhead, 5) - 1.0), "%"},
    };
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string json = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false", (unsigned long long)attempted,
        (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        json += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", metrics[i].name.c_str(), v,
                          metrics[i].unit);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload "
                 "gather|chase|compute|pf-grid --seed N --seconds S "
                 "--trace 0|1\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(value);
        else if (flag == "--trace")
            trace = std::strcmp(value, "0") != 0;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    const Shape *shape = nullptr;
    for (const Shape &s : shapes()) {
        if (workload == s.name)
            shape = &s;
    }
    if (!shape)
        return usage(("unknown workload '" + workload + "'").c_str());
    const CampaignSpec spec = makeSpec(*shape, seed);

    std::vector<Pass> plain;
    std::vector<Pass> traced;
    std::vector<Pass> campaigns;
    std::vector<std::uint64_t> reference; // First pass's point digests.
    std::vector<std::uint64_t> arch_reference; // First direct pass's.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Hold every point of a pass to the first pass's digests, count
    // it, report each failure once on stderr, and keep the pass in
    // @p passes. Only the first pass of each kind keeps its stat
    // payloads: later ones repeat them exactly, and keeping them all
    // would grow peak_rss_mb with the number of passes.
    const auto record = [&](std::vector<Pass> &passes, Pass pass,
                            const char *kind) {
        if (reference.empty()) {
            for (const PointRun &run : pass.points)
                reference.push_back(run.digest);
        }
        if (arch_reference.empty() && pass.points.front().archDigest) {
            for (const PointRun &run : pass.points)
                arch_reference.push_back(run.archDigest);
        }
        for (std::size_t i = 0; i < pass.points.size(); ++i) {
            const PointRun &run = pass.points[i];
            std::string error = run.error;
            if (error.empty() && (i >= reference.size()
                                  || run.digest != reference[i]))
                error = "simulated output differs from the first pass";
            ++attempted;
            if (!error.empty()) {
                ++failed;
                std::fprintf(stderr, "simbench: %s %s/%s (%s pass): %s\n",
                             shape->name, run.program.c_str(),
                             runaheadConfigName(run.config), kind,
                             error.c_str());
            }
        }
        if (!passes.empty()) {
            for (PointRun &run : pass.points)
                run.stats.clear();
        }
        passes.push_back(std::move(pass));
    };

    // On pf-grid a campaign pass comes first and gives the reference
    // digests; the direct pass after it replays the same points with
    // the architectural check and times their measured regions alone.
    const double start = wallNow();
    while (plain.size() < kMinPasses || wallNow() - start < seconds) {
        if (shape->campaign)
            record(campaigns, runCampaignPass(spec), "campaign");
        record(plain, runDirectPass(spec, false), "plain");
        if (trace)
            record(traced, runDirectPass(spec, true), "traced");
    }
    const double peak_rss_mb = peakRssMb();

    std::uint64_t digest = 0;
    for (const auto *digests : {&reference, &arch_reference}) {
        for (std::uint64_t d : *digests)
            digest = digest * 1099511628211ull ^ d;
    }
    std::fprintf(stderr,
                 "simbench: %s seed %llu: %zu passes, %llu points, "
                 "output digest %016llx\n",
                 shape->name, (unsigned long long)seed,
                 plain.size() + traced.size() + campaigns.size(),
                 (unsigned long long)attempted,
                 (unsigned long long)digest);
    const std::vector<Pass> &timed = shape->campaign ? campaigns : plain;
    std::fprintf(stderr,
                 "simbench: %s host estimates (slow decile / median): "
                 "sim_ips %.4g / %.4g, setup_s %.4g / %.4g, "
                 "total_s %.4g / %.4g\n",
                 shape->name, decileOver(plain, kSlowSpeed, simIpsOf),
                 decileOver(plain, 5, simIpsOf),
                 decileOver(timed, kSlowTime, setupOf),
                 decileOver(timed, 5, setupOf),
                 decileOver(timed, kSlowTime, totalOf),
                 decileOver(timed, 5, totalOf));

    const bool correct = failed == 0;
    printResult(correct, attempted, failed,
                trace ? perLayerMetrics(plain, traced, campaigns)
                      : endToEndMetrics(*shape, plain, timed, attempted,
                                        failed, peak_rss_mb));
    return correct ? 0 : 1;
}
