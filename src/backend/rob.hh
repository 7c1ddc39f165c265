/**
 * @file
 * Reorder buffer: a fixed-capacity circular buffer of DynUops.
 *
 * Slots are *physical* indices that stay stable while an entry is live,
 * so the RS, store queue and writeback queue can reference entries
 * safely across head pops. The runahead buffer's dependence-chain
 * generator searches the ROB with PC and destination-register CAMs.
 * Those searches come in bursts at runahead entry (decideEntry and
 * ChainGenerator::generate) while the window mutates every cycle, so
 * the CAMs are built on demand: push / popHead / popTail / clear only
 * mark them stale, and the first findOldestByPc / findProducer after
 * a mutation builds both in one pass over the live window — age-ordered
 * slot lists per PC and per architectural destination register, which
 * the lookups then walk. The original linear scans are retained as
 * findOldestByPcScan / findProducerScan and cross-validated against
 * the indexed forms by the invariant checker (checkRobIndexes), the
 * same pattern the reservation station uses for hasReady/anyReady.
 * The modelled cycle costs of the searches are charged by the caller
 * either way.
 */

#ifndef RAB_BACKEND_ROB_HH
#define RAB_BACKEND_ROB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/dyn_uop.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace rab
{

/** The reorder buffer. */
class Rob
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit Rob(int capacity);

    int capacity() const { return capacity_; }
    int size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

    /** Append at the tail; returns the physical slot. */
    int push(DynUop &&uop);

    /** @{ In-place push, for the rename hot path: beginPush() resets
     *  and returns the tail entry for the caller to fill directly (no
     *  intermediate DynUop copy); finishPush() makes it live once
     *  seq / pc / sop are set. Abandoning a begun push
     *  (never calling finishPush) is allowed — the slot stays dead. */
    DynUop &beginPush();
    int finishPush();
    /** @} */

    /** Oldest entry. */
    DynUop &head();
    const DynUop &head() const;
    int headSlot() const { return head_; }

    /** Retire the oldest entry. */
    void popHead();

    /** Youngest entry's physical slot (-1 when empty). */
    int tailSlot() const;

    /** Remove the youngest entry (squash). */
    void popTail();

    /** Access by physical slot. */
    DynUop &slot(int phys_slot);
    const DynUop &slot(int phys_slot) const;

    /** True if @p phys_slot currently holds a live entry with @p seq. */
    bool validSlot(int phys_slot, SeqNum seq) const;

    /** Logical index (0 = oldest) → physical slot. */
    int logicalToSlot(int logical) const;

    /**
     * PC CAM: find the *oldest* live entry with @p pc that is younger
     * than @p after_seq. Returns -1 when absent. Used by chain
     * generation ("add oldest matching op to DC").
     */
    int findOldestByPc(Pc pc, SeqNum after_seq) const
    {
        return indexed_ ? findOldestByPcIndexed(pc, after_seq)
                        : findOldestByPcScan(pc, after_seq);
    }

    /**
     * Destination-register CAM: youngest entry older than @p before_seq
     * whose architectural destination is @p reg. Returns -1.
     */
    int findProducer(ArchReg reg, SeqNum before_seq) const
    {
        return indexed_ ? findProducerIndexed(reg, before_seq)
                        : findProducerScan(reg, before_seq);
    }

    /** @{ Indexed CAM analogues: walk the per-key age-ordered list,
     *  building the lists first if the window changed since the last
     *  query. */
    int findOldestByPcIndexed(Pc pc, SeqNum after_seq) const;
    int findProducerIndexed(ArchReg reg, SeqNum before_seq) const;
    /** @} */

    /** @{ Scan-based reference forms of the CAM searches: the original
     *  whole-window linear walks, kept as the independent ground truth
     *  the invariant checker compares the indexed forms against. */
    int findOldestByPcScan(Pc pc, SeqNum after_seq) const;
    int findProducerScan(ArchReg reg, SeqNum before_seq) const;
    /** @} */

    /** Select the scan-based reference paths for findOldestByPc /
     *  findProducer (differential certification; default indexed). The
     *  indexed forms stay callable either way. */
    void setIndexed(bool indexed) { indexed_ = indexed; }
    bool indexed() const { return indexed_; }

    void clear();

  private:
    /** One cell of the flat PC table: the ends of one PC's
     *  age-ordered slot list (front = oldest). */
    struct PcCell
    {
        Pc pc = 0;
        int front = -1;
        int back = -1;
        std::uint32_t stamp = 0; ///< Build that filled the cell.
    };

    /** Wrap @p unwrapped (a head_ + offset sum, offset <= capacity_)
     *  into [0, capacity_) — capacity is not a power of two, so a
     *  compare-subtract beats the integer division of a modulo. */
    int wrapSlot(int unwrapped) const
    {
        return unwrapped >= capacity_ ? unwrapped - capacity_
                                      : unwrapped;
    }

    /** Build the CAM lists if a mutation made them stale. */
    void ensureCams() const
    {
        if (!camsValid_)
            buildCams();
    }
    /** Rebuild both CAMs in one pass over the live window. */
    void buildCams() const;

    /** @{ Flat PC table: open addressing with linear probing. A cell
     *  whose stamp is not the current build's is empty, so a rebuild
     *  starts from an empty table without touching it. */
    static std::size_t pcHash(Pc pc);
    /** Index of @p pc's cell in the current build, or of the empty
     *  cell where it would go. */
    std::size_t pcProbe(Pc pc) const;
    /** @} */

    int capacity_;
    int head_ = 0;
    int size_ = 0;
    bool indexed_ = true;
    std::vector<DynUop> entries_;
    std::vector<std::uint8_t> live_; ///< Bytes, not vector<bool> bits:
                                     ///< slot() reads it per access.

    /** @{ On-demand CAMs (see file comment): derived state, rebuilt
     *  from entries_ and never serialized. */
    mutable bool camsValid_ = false;
    mutable std::uint32_t camStamp_ = 0; ///< Current build's stamp.
    /** PC → age-ordered slot list. At most capacity_ distinct PCs per
     *  build in a table of at least 2 x capacity_ cells, so the load
     *  stays at or below 50% and the table never grows. */
    mutable std::vector<PcCell> pcCells_;
    std::size_t pcMask_ = 0;           ///< pcCells_.size() - 1.
    mutable std::vector<int> pcNext_;  ///< Next-younger slot, same PC.
    /** Per architectural destination register: youngest slot writing
     *  it (kNoArchReg destinations are unindexed — no chain-generation
     *  query ever asks for them). */
    mutable std::vector<int> regBack_;
    mutable std::vector<int> regPrev_; ///< Next-older slot, same dest.
    /** @} */
};

} // namespace rab

#endif // RAB_BACKEND_ROB_HH
