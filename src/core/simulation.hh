/**
 * @file
 * Simulation: owns one program + memory system + core, runs warmup and
 * a measured region, and extracts the metrics every figure in the
 * paper's evaluation needs.
 *
 * This is the library's primary entry point:
 * @code
 *   SimConfig config = makeConfig(RunaheadConfig::kHybrid, true);
 *   Simulation sim(config, buildSuiteWorkload("mcf"));
 *   SimResult result = sim.run();
 * @endcode
 */

#ifndef RAB_CORE_SIMULATION_HH
#define RAB_CORE_SIMULATION_HH

#include <cstdint>
#include <memory>
#include <string>

#include "backend/core.hh"
#include "core/sim_config.hh"
#include "energy/energy_model.hh"
#include "isa/program.hh"
#include "memory/memory_system.hh"

namespace rab
{

/** Everything a finished simulation reports. */
struct SimResult
{
    std::string workload;
    RunaheadConfig config = RunaheadConfig::kBaseline;
    bool prefetch = false;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0;

    double mpki = 0;              ///< Demand LLC misses / kilo-uop.
    double memStallFraction = 0;  ///< Fig. 1.
    double fig2OnChipFraction = 0;///< Fig. 2.

    double necessaryFraction = 0; ///< Fig. 3.
    double repeatedFraction = 0;  ///< Fig. 4.
    double avgChainLength = 0;    ///< Fig. 5.

    double missesPerInterval = 0; ///< Fig. 10.
    double bufferCycleFraction = 0; ///< Fig. 11 (of total cycles).
    double chainCacheHitRate = 0; ///< Fig. 12.
    double chainCacheExactRate = 0; ///< Fig. 13.
    double hybridBufferFraction = 0; ///< Fig. 14 (of runahead cycles).

    std::uint64_t dramRequests = 0; ///< Fig. 16.
    std::uint64_t runaheadIntervals = 0;

    /** @{ Fault campaign summary (zero when injection is disabled). */
    std::uint64_t faultsInjected = 0;
    std::uint64_t watchdogRecoveries = 0;
    std::uint64_t degradeSteps = 0;
    int degradeLevel = 0; ///< Final DegradeLevel as an int.
    /** @} */

    EnergyBreakdown energy; ///< Figs. 17/18.

    std::string toString() const;
};

/** One simulation run. */
class Simulation
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /**
     * @p config must be finalize()d.
     *
     * The constructor claims exclusive ownership of every component
     * stat tree (StatGroup::claimExclusive): components are built
     * fresh per Simulation, and this assertion guarantees it, so
     * concurrent sweep points can never alias counters.
     */
    Simulation(const SimConfig &config, Program program);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Run warmup + measured region and collect the result. */
    SimResult run();

    /** Run only the warmup region and reset every stat counter (the
     *  snapshot capture point). No-op when warmupInstructions == 0. */
    void runWarmup();

    /** Run only the measured region and collect the result. Call after
     *  runWarmup(), or after restoring a warmup snapshot. */
    SimResult runMeasured();

    /** Stream the measured region's retired uops to a binary trace
     *  file (src/trace format). Installs the core's commit hook for
     *  the measured region only, so the trace record count equals the
     *  committed-uop counter. Call before run()/runMeasured(). */
    void enableTrace(const std::string &path);

    Core &core() { return *core_; }
    MemorySystem &memory() { return *mem_; }
    const Program &program() const { return program_; }
    const SimConfig &config() const { return config_; }

    /** The fault injector, or nullptr when injection is disabled. */
    FaultInjector *faults() { return faults_.get(); }

  private:
    SimConfig config_;
    Program program_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<Core> core_;
    std::string tracePath_; ///< Empty when tracing is disabled.
};

/** Diagnostic tag of one run ("mcf/Hybrid", "+PF" when the prefetcher
 *  is on): warnings raised while a Simulation or MultiSimulation runs
 *  carry it (see LogContext). */
std::string runLogTag(const std::string &workload_name,
                      const SimConfig &config);

/**
 * Extract every SimResult metric from a finished (or budget-crossing)
 * core and its memory view. This is the single extraction path shared
 * by Simulation and MultiSimulation, so a multi-core per-core result
 * matches a single-core run field-for-field by construction.
 *
 * @p runahead names the core's own policy (per-core in a
 * heterogeneous mix); @p cycles is the core's measured cycle count.
 */
SimResult collectSimResult(const SimConfig &config,
                           const std::string &workload_name,
                           RunaheadConfig runahead, Core &core,
                           MemorySystem &mem, FaultInjector *faults,
                           Cycle cycles);

/** Convenience: build + finalize + run in one call. */
SimResult simulateWorkload(const std::string &workload_name,
                           RunaheadConfig runahead, bool prefetch,
                           std::uint64_t instructions,
                           std::uint64_t warmup_instructions);

} // namespace rab

#endif // RAB_CORE_SIMULATION_HH
