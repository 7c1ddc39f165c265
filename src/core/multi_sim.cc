#include "core/multi_sim.hh"

#include "common/logging.hh"
#include "workloads/suite.hh"

namespace rab
{

std::string
MultiSimResult::toString() const
{
    std::string s;
    for (std::size_t i = 0; i < cores.size(); ++i)
        s += strprintf("core%zu %s\n", i, cores[i].toString().c_str());
    s += strprintf("total: %llu instrs, %llu cycles, throughput %.3f "
                   "uops/cycle",
                   (unsigned long long)instructions,
                   (unsigned long long)cycles, throughputIpc);
    return s;
}

MultiSimulation::MultiSimulation(const SimConfig &config,
                                 std::vector<Program> programs)
    : config_(config), programs_(std::move(programs)),
      numCores_(config.numCores),
      checkLevel_(checkLevelFromEnv(config.checkLevel)),
      sharedGroup_("shared")
{
    if (numCores_ < 1)
        panic("MultiSimulation: numCores %d < 1", numCores_);
    if (static_cast<int>(programs_.size()) != numCores_) {
        panic("MultiSimulation: %zu programs for %d cores",
              programs_.size(), numCores_);
    }

    // Per-core configs: the base config with the core's own runahead
    // policy and a decorrelated fault seed. finalize() is idempotent,
    // so re-finalizing after the policy swap is safe.
    coreConfigs_.resize(static_cast<std::size_t>(numCores_));
    for (int i = 0; i < numCores_; ++i) {
        SimConfig &cc = coreConfigs_[static_cast<std::size_t>(i)];
        cc = config_;
        cc.runahead = config_.corePolicy(i);
        if (cc.fault.enabled && i > 0)
            cc.fault.seed += static_cast<std::uint64_t>(i);
        cc.finalize();
    }

    // Memory: one shared chip half for a real multi-core run; private
    // owned hierarchies for N == 1 (exact single-core stack — attached
    // mode would add contention counters to the stat payload) and for
    // the isolateMemory differential mode.
    const bool share = numCores_ > 1 && !config_.isolateMemory;
    if (share)
        shared_ = std::make_unique<SharedMemory>(config_.mem, numCores_);

    faults_.resize(static_cast<std::size_t>(numCores_));
    for (int i = 0; i < numCores_; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        const SimConfig &cc = coreConfigs_[s];
        if (share) {
            mems_.push_back(
                std::make_unique<MemorySystem>(cc.mem, *shared_, i));
        } else {
            mems_.push_back(std::make_unique<MemorySystem>(cc.mem));
        }
        cores_.push_back(std::make_unique<Core>(cc.core, &programs_[s],
                                                mems_[s].get()));
        if (cc.fault.enabled) {
            faults_[s] = std::make_unique<FaultInjector>(cc.fault);
            mems_[s]->setFaultInjector(faults_[s].get());
            cores_[s]->setFaultInjector(faults_[s].get());
        }
    }

    // Stat trees. N == 1 leaves the raw "core"/"mem" groups unwrapped
    // so the collected payload is key-identical to Simulation's; N > 1
    // nests each core's groups under "core<i>" and publishes the
    // chip-wide counters under "shared".
    if (numCores_ > 1) {
        for (int i = 0; i < numCores_; ++i) {
            const std::size_t s = static_cast<std::size_t>(i);
            auto group = std::make_unique<StatGroup>(
                "core" + std::to_string(i));
            group->addChild(&cores_[s]->stats());
            group->addChild(&mems_[s]->stats());
            if (faults_[s])
                group->addChild(&faults_[s]->stats());
            group->claimExclusive(this);
            coreGroups_.push_back(std::move(group));
        }
        if (shared_) {
            shared_->regSharedStats(&sharedGroup_);
            sharedGroup_.claimExclusive(this);
        }
    } else {
        cores_[0]->stats().claimExclusive(this);
        mems_[0]->stats().claimExclusive(this);
        if (faults_[0])
            faults_[0]->stats().claimExclusive(this);
    }

    doneCycles_.resize(static_cast<std::size_t>(numCores_), 0);
    results_.resize(static_cast<std::size_t>(numCores_));
    statsSnapshots_.resize(static_cast<std::size_t>(numCores_));
}

MultiSimulation::~MultiSimulation()
{
    if (numCores_ > 1) {
        for (auto &group : coreGroups_)
            group->releaseExclusive(this);
        sharedGroup_.releaseExclusive(this);
    } else {
        cores_[0]->stats().releaseExclusive(this);
        mems_[0]->stats().releaseExclusive(this);
        if (faults_[0])
            faults_[0]->stats().releaseExclusive(this);
    }
}

void
MultiSimulation::runPhase(std::uint64_t instructions, bool collect)
{
    const int n = numCores_;
    std::vector<std::uint64_t> targets(static_cast<std::size_t>(n));
    std::vector<bool> done(static_cast<std::size_t>(n), false);
    int remaining = n;
    for (int i = 0; i < n; ++i) {
        targets[static_cast<std::size_t>(i)] =
            cores_[static_cast<std::size_t>(i)]->retired() + instructions;
    }

    // All cores advance in lockstep, so every core's cycle() agrees;
    // the limit is relative per phase, exactly like Core::run's.
    Cycle cycle = cores_[0]->cycle();
    const Cycle cycle_limit = cycle + config_.maxCycles;
    const bool check_containment =
        shared_ && checkLevel_ == CheckLevel::kFull;

    while (remaining > 0 && cycle < cycle_limit) {
        // Rotating round-robin tick order: the core that touches the
        // shared memory system first alternates every cycle, so no
        // core gets a standing arbitration advantage.
        // rablint: cycle-ok (modulo numCores first: the cast narrows a
        // value already bounded by the core count, not a cycle)
        const int start = static_cast<int>(cycle % static_cast<Cycle>(n));
        for (int k = 0; k < n; ++k) {
            const std::size_t i =
                static_cast<std::size_t>((start + k) % n);
            cores_[i]->tick();
            if (!done[i] && cores_[i]->retired() >= targets[i]) {
                done[i] = true;
                --remaining;
                doneCycles_[i] = cores_[i]->cycle();
                if (collect)
                    snapshotCore(static_cast<int>(i), cores_[i]->cycle());
            }
        }
        cycle = cores_[0]->cycle();

        if (check_containment
            && cycle % kContainmentPeriod == 0)
            checkSharedContainment(cycle);

        if (remaining == 0)
            break;

        // Fast-forward: only when every core is fully stalled AND
        // every core proves quiescence. All cores jump to the minimum
        // horizon together, preserving lockstep; a core may always be
        // moved to a target at or below its own proven horizon.
        bool eligible = true;
        for (int i = 0; i < n && eligible; ++i)
            eligible = cores_[static_cast<std::size_t>(i)]
                           ->fastForwardEligible();
        if (!eligible)
            continue;
        Cycle horizon = 0;
        for (int i = 0; i < n; ++i) {
            const Cycle h = cores_[static_cast<std::size_t>(i)]
                                ->proposeFastForward();
            if (h == 0) {
                horizon = 0;
                break;
            }
            if (horizon == 0 || h < horizon)
                horizon = h;
        }
        if (horizon > cycle_limit)
            horizon = cycle_limit;
        if (horizon > cycle + 1) {
            for (int i = 0; i < n; ++i)
                cores_[static_cast<std::size_t>(i)]
                    ->applyFastForward(horizon);
            cycle = horizon;
        }
    }

    if (check_containment)
        checkSharedContainment(cycle);
}

void
MultiSimulation::snapshotCore(int i, Cycle now)
{
    const std::size_t s = static_cast<std::size_t>(i);
    results_[s] = collectSimResult(
        coreConfigs_[s], programs_[s].name(), coreConfigs_[s].runahead,
        *cores_[s], *mems_[s], faults_[s].get(), now - measureStart_);
    if (numCores_ > 1) {
        statsSnapshots_[s] = coreGroups_[s]->collect();
    } else {
        statsSnapshots_[s] = cores_[s]->stats().collect();
        for (const auto &[name, value] : mems_[s]->stats().collect())
            statsSnapshots_[s].emplace(name, value);
    }
}

void
MultiSimulation::checkSharedContainment(Cycle now)
{
    if (!shared_)
        return;
    for (int i = 0; i < numCores_; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        MemorySystem &mem = *mems_[s];
        const Cache *l1s[] = {&mem.l1i(), &mem.l1d()};
        const char *names[] = {"l1i", "l1d"};
        for (int c = 0; c < 2; ++c) {
            for (const Addr line : l1s[c]->validLines()) {
                // L1 lines are stored namespaced, so they probe the
                // shared LLC directly. A line may legitimately be
                // absent while its refill is still in flight.
                if (shared_->llc().probe(line))
                    continue;
                if (mem.missInFlight(line, now))
                    continue;
                throw InvariantViolation(
                    now, "shared-llc", "l1-contained-in-llc",
                    strprintf("core %d %s line 0x%llx not in shared "
                              "LLC and no miss in flight",
                              i, names[c], (unsigned long long)line));
            }
        }
    }
}

MultiSimResult
MultiSimulation::run()
{
    // Diagnostics name the whole mix, one run tag per core in core
    // order: "[mcf/Hybrid,libq/Runahead,...]".
    std::string tag;
    for (int i = 0; i < numCores_; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        if (i > 0)
            tag += ',';
        tag += runLogTag(programs_[s].name(), coreConfigs_[s]);
    }
    const LogContext log_context(tag);

    if (config_.warmupInstructions > 0) {
        runPhase(config_.warmupInstructions, /*collect=*/false);
        for (int i = 0; i < numCores_; ++i) {
            const std::size_t s = static_cast<std::size_t>(i);
            cores_[s]->stats().resetCounters();
            mems_[s]->stats().resetCounters();
        }
        if (shared_)
            sharedGroup_.resetCounters();
    }

    measureStart_ = cores_[0]->cycle();
    runPhase(config_.instructions, /*collect=*/true);
    const Cycle end = cores_[0]->cycle();

    MultiSimResult r;
    r.cores = results_;
    r.cycles = end - measureStart_;
    for (const SimResult &cr : r.cores)
        r.instructions += cr.instructions;
    r.throughputIpc = r.cycles == 0 ? 0.0
        : static_cast<double>(r.instructions)
            / static_cast<double>(r.cycles);
    for (const auto &snapshot : statsSnapshots_)
        for (const auto &[name, value] : snapshot)
            r.stats.emplace(name, value);
    if (shared_)
        for (const auto &[name, value] : sharedGroup_.collect())
            r.stats.emplace(name, value);

    // Chip-level energy: sum the per-core breakdowns component-wise.
    const EnergyCoefficients &ec = config_.energy;
    const double chip_seconds =
        static_cast<double>(r.cycles) / (ec.clockGhz * 1e9);
    for (const SimResult &cr : r.cores) {
        r.energy.frontendJ += cr.energy.frontendJ;
        r.energy.renameJ += cr.energy.renameJ;
        r.energy.windowJ += cr.energy.windowJ;
        r.energy.regfileJ += cr.energy.regfileJ;
        r.energy.executeJ += cr.energy.executeJ;
        r.energy.cacheJ += cr.energy.cacheJ;
        r.energy.dramJ += cr.energy.dramJ;
        r.energy.runaheadJ += cr.energy.runaheadJ;
        r.energy.engineJ += cr.energy.engineJ;
        r.energy.leakageJ += cr.energy.leakageJ;
        r.energy.totalJ += cr.energy.totalJ;
    }
    r.energy.seconds = chip_seconds;
    if (shared_) {
        // Each core's own breakdown charged the LLC + DRAM static
        // power over that core's measured window, but in shared mode
        // there is one LLC and one DRAM channel on the chip: back out
        // the N per-core charges and charge it once, over the chip's
        // window (the last finisher's).
        const double shared_static_w = ec.llcLeakageW + ec.dramStaticW;
        double percore_static_j = 0;
        for (const SimResult &cr : r.cores)
            percore_static_j += shared_static_w * cr.energy.seconds;
        const double chip_static_j = shared_static_w * chip_seconds;
        r.energy.leakageJ += chip_static_j - percore_static_j;
        r.energy.totalJ += chip_static_j - percore_static_j;

        r.stats.emplace("shared.energy.frontend_j", r.energy.frontendJ);
        r.stats.emplace("shared.energy.rename_j", r.energy.renameJ);
        r.stats.emplace("shared.energy.window_j", r.energy.windowJ);
        r.stats.emplace("shared.energy.regfile_j", r.energy.regfileJ);
        r.stats.emplace("shared.energy.execute_j", r.energy.executeJ);
        r.stats.emplace("shared.energy.cache_j", r.energy.cacheJ);
        r.stats.emplace("shared.energy.dram_j", r.energy.dramJ);
        r.stats.emplace("shared.energy.runahead_j", r.energy.runaheadJ);
        r.stats.emplace("shared.energy.engine_j", r.energy.engineJ);
        r.stats.emplace("shared.energy.leakage_j", r.energy.leakageJ);
        r.stats.emplace("shared.energy.total_j", r.energy.totalJ);
        r.stats.emplace("shared.energy.seconds", r.energy.seconds);
    }
    return r;
}

MultiSimResult
simulateMix(const SimConfig &config,
            const std::vector<std::string> &workloads)
{
    std::vector<Program> programs;
    programs.reserve(workloads.size());
    for (const std::string &name : workloads)
        programs.push_back(buildSuiteWorkload(name));
    MultiSimulation sim(config, std::move(programs));
    return sim.run();
}

} // namespace rab
