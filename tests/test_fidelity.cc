/**
 * @file
 * Fidelity pins: the paper-reproduction numbers the simulator reports
 * today, held exact. The simulator is deterministic, so any change
 * that moves one of these values changes a reproduced figure.
 *
 * Rule: a change that moves a pinned number updates EXPERIMENTS.md and
 * the pin together, and says why in its change description. A pin is
 * never loosened to a tolerance to make a change pass.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "workloads/suite.hh"

namespace rab
{
namespace
{

/** One workload's Figs. 3-5 values under traditional runahead. */
struct ChainPin
{
    const char *workload;
    double necessaryFraction; ///< Fig. 3.
    double repeatedFraction;  ///< Fig. 4.
    double avgChainLength;    ///< Fig. 5.
};

// bench_fig3_chain_ops, bench_fig4_chain_repetition and
// bench_fig5_chain_length at their default sizing (40k instructions
// after 10k warmup, RunaheadConfig::kRunahead, no prefetcher), printed
// with %.17g so every value round-trips exactly.
const ChainPin kChainPins[] = {
    {"calculix", 0, 0, 0},
    {"povray", 0, 0, 0},
    {"namd", 0, 0, 0},
    {"gamess", 0, 0, 0},
    {"perlbench", 0.10078740157480315, 0.8125, 4},
    {"tonto", 0, 0, 0},
    {"gromacs", 0, 0, 0},
    {"gobmk", 0.10078740157480315, 0.8125, 4},
    {"dealII", 0, 0, 0},
    {"sjeng", 0.046783625730994149, 0.5, 4},
    {"gcc", 0.0859375, 0.77272727272727271, 4},
    {"hmmer", 0, 0, 0},
    {"h264", 0, 0, 0},
    {"bzip2", 0.046783625730994149, 0.5, 4},
    {"astar", 0.046783625730994149, 0.5, 4},
    {"xalanc", 0, 0, 0},
    {"zeusmp", 0, 0, 0},
    {"cactus", 0, 0, 0},
    {"wrf", 0, 0, 0},
    {"GemsFDTD", 0.32865452706120385, 0.33333333333333331, 23},
    {"leslie", 0.073394495412844041, 0.5, 18},
    {"omnetpp", 0.045145012073035076, 0.076923076923076927, 64},
    {"milc", 0.27902912143367059, 0.73009708737864076, 22},
    {"soplex", 0.29173007327459433, 0.83639947437582129, 14.964520367936926},
    {"sphinx", 0.32322500038561797, 0.81465517241379315, 29.943965517241381},
    {"bwaves", 0.17863542650147402, 0.45195729537366547, 16.496441281138789},
    {"libq", 0.1944987915755553, 0.55555555555555558, 14},
    {"lbm", 0.16754125789033386, 0.33757961783439489, 14.02547770700637},
    {"mcf", 0.3422590829052794, 0.91333865814696491, 13.046725239616613},
};

std::string
pinLine(const std::string &workload, const SimResult &r)
{
    return strprintf("    {\"%s\", %.17g, %.17g, %.17g},",
                     workload.c_str(), r.necessaryFraction,
                     r.repeatedFraction, r.avgChainLength);
}

TEST(Fidelity, Figs3To5ChainAnalysisAtBenchSizing)
{
    BenchOptions options;
    options.instructions = 40'000;
    options.warmup = 10'000;

    const std::vector<WorkloadSpec> &suite = spec06Suite();
    ASSERT_EQ(std::size(kChainPins), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const WorkloadSpec &spec = suite[i];
        const ChainPin &pin = kChainPins[i];
        ASSERT_EQ(spec.params.name, pin.workload);
        const SimResult r =
            runCell(spec, RunaheadConfig::kRunahead, false, options);
        const std::string actual = pinLine(spec.params.name, r);
        EXPECT_EQ(r.necessaryFraction, pin.necessaryFraction) << actual;
        EXPECT_EQ(r.repeatedFraction, pin.repeatedFraction) << actual;
        EXPECT_EQ(r.avgChainLength, pin.avgChainLength) << actual;
    }
}

} // namespace
} // namespace rab
