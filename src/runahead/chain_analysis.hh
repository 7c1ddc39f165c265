/**
 * @file
 * Instrumentation behind the paper's motivation figures.
 *
 * During *traditional* runahead intervals, every executed runahead op
 * is recorded. When a runahead load misses the LLC, its backward
 * dependence slice is reconstructed over the recorded window, giving:
 *   - Figure 3: fraction of runahead-executed ops that belong to some
 *     miss dependence chain ("necessary" ops),
 *   - Figure 4: whether each miss's chain is unique or a repeat within
 *     the current runahead interval (by structural signature),
 *   - Figure 5: average dependence chain length in uops.
 */

#ifndef RAB_RUNAHEAD_CHAIN_ANALYSIS_HH
#define RAB_RUNAHEAD_CHAIN_ANALYSIS_HH

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "backend/dyn_uop.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** The runahead chain analyser. */
class ChainAnalysis
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /**
     * @param window     executed-op history depth.
     * @param max_chain  backward-slice length cap.
     */
    explicit ChainAnalysis(int window = 4096, int max_chain = 64);

    /** A runahead interval begins. */
    void beginInterval();

    /** A runahead op executed (traditional mode). */
    void recordExec(const DynUop &uop);

    /** A runahead load generated an LLC miss. Call after recordExec. */
    void recordMiss(const DynUop &uop);

    /** The runahead interval ended. */
    void endInterval();

    /** @{ Figure 3. */
    Counter opsExecuted;
    Counter opsNecessary;
    /** @} */

    /** @{ Figure 4. */
    Counter chainsTotal;
    Counter chainsRepeated;
    /** @} */

    /** @{ Figure 5. */
    Counter chainLengthSum;
    Counter chainsMeasured;
    /** @} */

    double necessaryFraction() const;
    double repeatedFraction() const;
    double averageChainLength() const;

    void regStats(StatGroup *parent);

  private:
    struct Rec
    {
        Pc pc;
        ArchReg dest;
        ArchReg src1;
        ArchReg src2;
    };

    struct Entry
    {
        SeqNum seq;
        Rec rec;
    };

    /**
     * Fold the appended tail into the sorted history: sort the tail by
     * sequence number, merge it in from the back (only the records
     * younger than the tail's oldest move), drop repeated seqs and keep
     * the window_ largest. Allocates nothing: beginInterval() reserves
     * both buffers at their bounds.
     */
    void normalize();

    void clearHistory();

    int window_;
    int maxChain_;
    bool inInterval_ = false;
    /** First live record of history_. 32 bits, so it fits beside
     *  inInterval_ and the analyser keeps the size it had with an
     *  ordered-map history: every Core member after it keeps its
     *  offset, and a 16-byte shift there measurably slowed the
     *  simulation of workloads that never record. */
    std::uint32_t start_ = 0;
    /**
     * Executed-op history. Writeback order is not program order, and
     * the backward slice walk needs the latter, so recordExec() only
     * appends to tail_ and normalize() sorts lazily, before a walk or
     * a save:
     *   history_[0, start_)    evicted, dropped at the next compaction;
     *   history_[start_, end)  the live window, ascending seq, no
     *                          repeats.
     * Keeping the window_ largest distinct seqs is what an
     * evict-the-smallest step after every insert keeps too, whatever
     * the insertion order, so the lazy order is exact. A seq recorded
     * twice is one uop written back twice: its records are identical,
     * so which copy survives does not matter.
     */
    std::vector<Entry> history_;
    std::vector<Entry> tail_;
    std::unordered_set<std::uint64_t> intervalSignatures_;
    std::unordered_set<SeqNum> intervalNecessary_;
    std::uint64_t intervalExecuted_ = 0;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_RUNAHEAD_CHAIN_ANALYSIS_HH
