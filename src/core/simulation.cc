#include "core/simulation.hh"

#include "common/logging.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

namespace rab
{

std::string
SimResult::toString() const
{
    std::string s = strprintf(
        "%s/%s%s: %llu instrs, %llu cycles, IPC %.3f, MPKI %.2f, "
        "stall %.1f%%, RA intervals %llu, MLP/interval %.2f, "
        "energy %.6f J",
        workload.c_str(), runaheadConfigName(config),
        prefetch ? "+PF" : "", (unsigned long long)instructions,
        (unsigned long long)cycles, ipc, mpki, memStallFraction * 100.0,
        (unsigned long long)runaheadIntervals, missesPerInterval,
        energy.totalJ);
    if (faultsInjected > 0 || watchdogRecoveries > 0
        || degradeSteps > 0) {
        s += strprintf(
            ", faults %llu, watchdog recoveries %llu, degrade steps "
            "%llu (final level %d)",
            (unsigned long long)faultsInjected,
            (unsigned long long)watchdogRecoveries,
            (unsigned long long)degradeSteps, degradeLevel);
    }
    return s;
}

Simulation::Simulation(const SimConfig &config, Program program)
    : config_(config), program_(std::move(program))
{
    mem_ = std::make_unique<MemorySystem>(config_.mem);
    core_ = std::make_unique<Core>(config_.core, &program_, mem_.get());
    if (config_.fault.enabled) {
        faults_ = std::make_unique<FaultInjector>(config_.fault);
        mem_->setFaultInjector(faults_.get());
        core_->setFaultInjector(faults_.get());
    }
    // Fresh-group assertion: this run owns its stat trees outright.
    core_->stats().claimExclusive(this);
    mem_->stats().claimExclusive(this);
    if (faults_)
        faults_->stats().claimExclusive(this);
}

Simulation::~Simulation()
{
    core_->stats().releaseExclusive(this);
    mem_->stats().releaseExclusive(this);
    if (faults_)
        faults_->stats().releaseExclusive(this);
}

SimResult
Simulation::run()
{
    runWarmup();
    return runMeasured();
}

std::string
runLogTag(const std::string &workload_name, const SimConfig &config)
{
    return strprintf("%s/%s%s", workload_name.c_str(),
                     runaheadConfigName(config.runahead),
                     config.prefetch ? "+PF" : "");
}

void
Simulation::runWarmup()
{
    // Warmup: fills caches, trains the branch predictor and the
    // prefetcher; then reset every counter so the measured region is
    // clean.
    if (config_.warmupInstructions > 0) {
        const LogContext log_context(runLogTag(program_.name(), config_));
        core_->run(config_.warmupInstructions, config_.maxCycles);
        core_->stats().resetCounters();
        mem_->stats().resetCounters();
    }
}

void
Simulation::enableTrace(const std::string &path)
{
    tracePath_ = path;
}

SimResult
Simulation::runMeasured()
{
    const LogContext log_context(runLogTag(program_.name(), config_));
    std::unique_ptr<TraceWriter> trace;
    if (!tracePath_.empty()) {
        trace = std::make_unique<TraceWriter>(tracePath_);
        core_->setCommitHook(
            [&trace](const DynUop &uop) { trace->record(uop); });
    }

    const Cycle start_cycle = core_->cycle();
    core_->run(config_.instructions, config_.maxCycles);
    const Cycle cycles = core_->cycle() - start_cycle;

    if (trace) {
        core_->setCommitHook(nullptr);
        trace->close();
    }

    return collectSimResult(config_, program_.name(), config_.runahead,
                            *core_, *mem_, faults_.get(), cycles);
}

SimResult
collectSimResult(const SimConfig &config,
                 const std::string &workload_name,
                 RunaheadConfig runahead, Core &core, MemorySystem &mem,
                 FaultInjector *faults, Cycle cycles)
{
    Core *core_ = &core;
    MemorySystem *mem_ = &mem;
    FaultInjector *faults_ = faults;

    SimResult r;
    r.workload = workload_name;
    r.config = runahead;
    r.prefetch = config.prefetch;
    r.instructions = core_->committedUops.value();
    r.cycles = cycles;
    r.ipc = cycles == 0 ? 0.0
        : static_cast<double>(r.instructions)
            / static_cast<double>(cycles);
    r.mpki = r.instructions == 0 ? 0.0
        : 1000.0 * static_cast<double>(mem_->llcDemandMisses.value())
            / static_cast<double>(r.instructions);
    r.memStallFraction = cycles == 0 ? 0.0
        : static_cast<double>(core_->memStallCycles.value())
            / static_cast<double>(cycles);
    r.fig2OnChipFraction = core_->fig2MissTotal.value() == 0 ? 0.0
        : static_cast<double>(core_->fig2MissSrcOnChip.value())
            / static_cast<double>(core_->fig2MissTotal.value());

    const ChainAnalysis &ca = core_->chainAnalysis();
    r.necessaryFraction = ca.necessaryFraction();
    r.repeatedFraction = ca.repeatedFraction();
    r.avgChainLength = ca.averageChainLength();

    RunaheadController &ra = core_->runahead();
    r.missesPerInterval = ra.missesPerInterval();
    r.bufferCycleFraction = cycles == 0 ? 0.0
        : static_cast<double>(ra.cyclesBuffer.value())
            / static_cast<double>(cycles);
    const std::uint64_t cc_lookups =
        ra.chainCache().hits.value() + ra.chainCache().misses.value();
    r.chainCacheHitRate = cc_lookups == 0 ? 0.0
        : static_cast<double>(ra.chainCache().hits.value())
            / static_cast<double>(cc_lookups);
    r.chainCacheExactRate = ra.chainCacheCheckedHits.value() == 0 ? 0.0
        : static_cast<double>(ra.chainCacheExactHits.value())
            / static_cast<double>(ra.chainCacheCheckedHits.value());
    r.hybridBufferFraction = ra.bufferCycleFraction();
    r.runaheadIntervals = ra.intervals.value();
    r.dramRequests = mem_->dramRequests();

    if (faults_)
        r.faultsInjected = faults_->totalInjected();
    r.watchdogRecoveries = core_->watchdog().recoveries.value();
    r.degradeSteps = ra.ladder().degradeSteps.value();
    r.degradeLevel = static_cast<int>(ra.ladder().level());

    const EnergyModel energy_model(config.energy);
    r.energy = energy_model.compute(*core_, cycles);
    return r;
}

SimResult
simulateWorkload(const std::string &workload_name,
                 RunaheadConfig runahead, bool prefetch,
                 std::uint64_t instructions,
                 std::uint64_t warmup_instructions)
{
    SimConfig config = makeConfig(runahead, prefetch);
    config.instructions = instructions;
    config.warmupInstructions = warmup_instructions;
    Simulation sim(config, buildSuiteWorkload(workload_name));
    return sim.run();
}

} // namespace rab
