/**
 * @file
 * Reservation station: a 92-entry (Table 1) unified scheduler window.
 *
 * Entries are keyed by the ROB slot of the uop they hold: a uop lives
 * in exactly one ROB slot, so the slot is a unique, stable entry id
 * and the station needs no free list. The state is bitmasks over ROB
 * slots:
 *
 *  - three pending-level masks: level k holds the resident entries
 *    with exactly k distinct source registers still pending (level 0
 *    is the ready set; src1 == src2 counts once);
 *  - one wait mask per physical register: the resident entries still
 *    waiting on that register.
 *
 * Wakeup is event-driven and word-parallel: the core forwards every
 * physical-register write through notifyWritten(), which takes the
 * written register's wait mask m and moves every entry in it down one
 * level (ready |= level1 & m; level1 = level1 & ~m | level2 & m;
 * level2 &= ~m) — no per-entry work. Select walks the ready mask from
 * the ROB head around the ring and takes the first bits up to the
 * issue width. Live ROB slots in ring order from the head are in seq
 * order, so this is exactly "the oldest ready entries by seq". The
 * 92-entry capacity is enforced by the entry count, not by the mask
 * width.
 *
 * This bookkeeping is exact, not approximate, because of two register
 * file invariants (see PhysRegFile): write() is the only transition
 * from pending to ready, and alloc() — the only transition back — can
 * target just free-list registers, which no resident entry references
 * (a source register is freed only after every consumer has left the
 * window). Every wait bit belongs to the resident entry of its slot:
 * entries leave through select (only from level 0, when a write has
 * drained each of their wait bits), squashAfter or clear, and the last
 * two clear the wait bits of the entries they remove. The checker
 * cross-validates the ready mask against a full register-file scan
 * (anyReady) at every fast-forward window.
 */

#ifndef RAB_BACKEND_RESERVATION_STATION_HH
#define RAB_BACKEND_RESERVATION_STATION_HH

#include <cstdint>
#include <vector>

#include "backend/rename.hh"
#include "backend/rob.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** The unified reservation station. */
class ReservationStation
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /** @p rob supplies the slot space (its capacity) and the age
     *  order (its head) that selection walks; it must outlive the
     *  station. */
    ReservationStation(int capacity, const Rob &rob);

    int capacity() const { return capacity_; }
    int size() const { return size_; }
    bool full() const { return size_ == capacity_; }

    /**
     * Insert the uop in @p rob_slot. Sources that are not ready in
     * @p prf (kNoPhysReg means "no source") are registered for wakeup;
     * an entry with no pending source is immediately selectable.
     */
    void insert(int rob_slot, SeqNum seq, PhysReg src1, PhysReg src2,
                const PhysRegFile &prf);

    /**
     * Wake entries waiting on @p reg. Must be called for every
     * PhysRegFile::write() while entries are resident — the core
     * routes all writes through Core::writePhysReg() to guarantee
     * this.
     */
    void notifyWritten(PhysReg reg);

    /**
     * Select up to @p width oldest ready entries (poisoned sources
     * count as ready — poison propagates at execute). Selected
     * entries are removed. Returns ROB slots, oldest first, in a
     * buffer owned by the station and reused across calls (valid
     * until the next selectReady(); insert/reinsert during iteration
     * is safe).
     */
    const std::vector<int> &selectReady(int width);

    /** True when the next selectReady() call would select something.
     *  A few word tests on the ready mask; the fast-forward
     *  quiescence predicate polls it every cycle. */
    bool hasReady() const;

    /** Scan-based equivalent of hasReady(), re-derived from the
     *  register file's ready bits. The invariant checker uses this
     *  independent form so a wakeup bookkeeping bug in the ready mask
     *  is caught rather than silently trusted. */
    bool anyReady(const Rob &rob, const PhysRegFile &prf) const;

    /** Remove every entry younger than @p seq (squash). */
    void squashAfter(SeqNum seq);

    /** Remove all entries. */
    void clear();

    /** Re-insert a uop whose memory access was rejected (retry). */
    void reinsert(int rob_slot, SeqNum seq, PhysReg src1, PhysReg src2,
                  const PhysRegFile &prf)
    {
        insert(rob_slot, seq, src1, src2, prf);
    }

    /** @{ Statistics. */
    Counter inserts;
    Counter wakeups; ///< Source-ready checks that fired (energy events).
    /** @} */

  private:
    using Word = std::uint64_t;
    static constexpr int kWordBits = 64;
    static constexpr int kLevels = 3; ///< 0, 1 or 2 pending sources.

    /** Per-ROB-slot entry payload; meaningful only while the slot is
     *  resident (its bit is set in one of the level masks). */
    struct Entry
    {
        SeqNum seq = kNoSeqNum;
        PhysReg src1 = kNoPhysReg;
        PhysReg src2 = kNoPhysReg;
    };

    static void setBit(Word *mask, int slot)
    {
        mask[slot / kWordBits] |= Word{1} << (slot % kWordBits);
    }
    static void clearBit(Word *mask, int slot)
    {
        mask[slot / kWordBits] &= ~(Word{1} << (slot % kWordBits));
    }

    /** Level-@p k mask (level 0 is the ready set). */
    Word *level(int k) { return &levels_[std::size_t(k) * words_]; }
    /** Resident entries of word @p w (the union of the levels). */
    Word residentWord(int w) const
    {
        return levels_[w] | levels_[words_ + w] | levels_[2 * words_ + w];
    }
    /** Wait mask of @p reg, growing the table to cover it. */
    Word *waitMask(PhysReg reg)
    {
        const std::size_t base = static_cast<std::size_t>(reg) * words_;
        if (base >= waitMasks_.size())
            growWaitMasks(reg);
        return &waitMasks_[base];
    }
    void growWaitMasks(PhysReg reg);
    /** Remove the resident entry in @p slot, wait bits included. */
    void remove(int slot);

    int capacity_;
    int size_ = 0;
    const Rob &rob_;
    int words_; ///< Mask width in words (ROB capacity / 64, rounded up).
    std::vector<Entry> entries_; ///< Indexed by ROB slot.
    std::vector<Word> levels_;   ///< kLevels masks of words_ words.
    /** Per-physical-register wait masks, words_ words each, indexed by
     *  register and grown lazily to the highest register waited on. */
    std::vector<Word> waitMasks_;
    std::vector<int> selectedBuf_; ///< selectReady() scratch, reused.
};

} // namespace rab

#endif // RAB_BACKEND_RESERVATION_STATION_HH
