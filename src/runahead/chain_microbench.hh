/**
 * @file
 * Chain-generation latency microbenchmark.
 *
 * Times ChainGenerator::generate() against a full, realistically
 * structured ROB (a pointer-chasing loop body repeated to capacity)
 * twice: once through the on-demand PC/producer CAMs (built by the
 * first call; the ROB does not change between calls, so the timed
 * calls only query them) and once through the retained linear-scan
 * reference paths, and reports the per-call latency distribution of
 * each. Shared between the bench_chain_generation binary
 * (human-readable table) and rabsweep, which embeds the result in the
 * sweep manifest's environment section so every campaign records the
 * indexing speedup it ran with.
 */

#ifndef RAB_RUNAHEAD_CHAIN_MICROBENCH_HH
#define RAB_RUNAHEAD_CHAIN_MICROBENCH_HH

#include <cstdint>

#include "stats/json.hh"

namespace rab
{

/** Per-call latency distribution of one generate() variant. */
struct ChainGenLatencyDist
{
    std::uint64_t calls = 0;
    double minNs = 0;
    double p50Ns = 0;
    double p90Ns = 0;
    double p99Ns = 0;
    double maxNs = 0;
    double meanNs = 0;
};

/** The full before/after comparison. */
struct ChainGenMicrobench
{
    ChainGenLatencyDist indexed; ///< On-demand CAM indexes (default).
    ChainGenLatencyDist scan;    ///< Linear-scan reference paths.
    double speedup = 0;          ///< scan.meanNs / indexed.meanNs.
    int robEntries = 0;
    int chainLength = 0; ///< Ops in the generated chain (sanity).
};

/**
 * Run the microbenchmark.
 *
 * @param rob_entries ROB capacity to fill (Table 1 default 192).
 * @param iterations  timed generate() calls per variant.
 */
ChainGenMicrobench runChainGenMicrobench(int rob_entries = 192,
                                         int iterations = 4000);

/** JSON form (for the sweep manifest). */
Json chainGenMicrobenchJson(const ChainGenMicrobench &result);

} // namespace rab

#endif // RAB_RUNAHEAD_CHAIN_MICROBENCH_HH
