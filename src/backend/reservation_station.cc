#include "backend/reservation_station.hh"

#include <bit>

#include "common/logging.hh"

namespace rab
{

ReservationStation::ReservationStation(int capacity, const Rob &rob)
    : capacity_(capacity), rob_(rob),
      words_((rob.capacity() + kWordBits - 1) / kWordBits)
{
    if (capacity <= 0)
        fatal("ReservationStation: bad capacity %d", capacity);
    entries_.assign(rob.capacity(), Entry{});
    levels_.assign(std::size_t(kLevels) * words_, 0);
}

void
ReservationStation::growWaitMasks(PhysReg reg)
{
    waitMasks_.resize((static_cast<std::size_t>(reg) + 1) * words_, 0);
}

void
ReservationStation::insert(int rob_slot, SeqNum seq, PhysReg src1,
                           PhysReg src2, const PhysRegFile &prf)
{
    if (full())
        panic("ReservationStation: insert when full");
    if (residentWord(rob_slot / kWordBits)
        & (Word{1} << (rob_slot % kWordBits))) {
        panic("ReservationStation: ROB slot %d already resident", rob_slot);
    }
    Entry &e = entries_[rob_slot];
    e.seq = seq;
    e.src1 = src1;
    e.src2 = src2;
    const bool wait1 = src1 != kNoPhysReg && !prf.ready(src1);
    const bool wait2 = src2 != kNoPhysReg && !prf.ready(src2);
    if (wait1)
        setBit(waitMask(src1), rob_slot);
    if (wait2)
        setBit(waitMask(src2), rob_slot);
    // Distinct pending registers: src1 == src2 waits on one bit.
    const int pending = int(wait1) + int(wait2 && !(wait1 && src1 == src2));
    setBit(level(pending), rob_slot);
    ++size_;
    ++inserts;
}

void
ReservationStation::notifyWritten(PhysReg reg)
{
    const std::size_t base = static_cast<std::size_t>(reg) * words_;
    if (base >= waitMasks_.size())
        return;
    // Every waiter of the register loses one pending source: level 1
    // becomes ready, level 2 drops to level 1, and the mask drains.
    Word *mask = &waitMasks_[base];
    Word *ready = level(0);
    Word *one = level(1);
    Word *two = level(2);
    for (int w = 0; w < words_; ++w) {
        const Word m = mask[w];
        mask[w] = 0;
        ready[w] |= one[w] & m;
        one[w] = (one[w] & ~m) | (two[w] & m);
        two[w] &= ~m;
    }
}

const std::vector<int> &
ReservationStation::selectReady(int width)
{
    // One wakeup (source-ready check) per resident entry per cycle:
    // the energy model charges the CAM broadcast whether or not the
    // event-driven ready mask short-circuits the actual comparison.
    wakeups += static_cast<std::uint64_t>(size_);

    selectedBuf_.clear();
    Word *ready = level(0);
    int taken = 0;
    // Walk the ring from the ROB head: the head word from the head bit
    // up, the words after it (wrapping), then the head word's bits
    // below the head. Live slots in this order are in seq order, so
    // the first `width` ready bits are the oldest ready entries — the
    // same uops a seq-sorted scan would pick.
    const int head = rob_.headSlot();
    const Word from_head = ~Word{0} << (head % kWordBits);
    int w = head / kWordBits;
    Word allowed = from_head;
    for (int step = 0; step <= words_ && taken < width; ++step) {
        Word bits = ready[w] & allowed;
        while (bits != 0 && taken < width) {
            const int bit = std::countr_zero(bits);
            bits &= bits - 1;
            ready[w] &= ~(Word{1} << bit);
            selectedBuf_.push_back(w * kWordBits + bit);
            ++taken;
        }
        if (++w == words_)
            w = 0;
        allowed = step + 1 == words_ ? ~from_head : ~Word{0};
    }

    size_ -= taken;
    return selectedBuf_;
}

bool
ReservationStation::hasReady() const
{
    for (int w = 0; w < words_; ++w) {
        if (levels_[w] != 0)
            return true;
    }
    return false;
}

bool
ReservationStation::anyReady(const Rob &rob, const PhysRegFile &prf) const
{
    for (int w = 0; w < words_; ++w) {
        for (Word bits = residentWord(w); bits != 0; bits &= bits - 1) {
            const int slot = w * kWordBits + std::countr_zero(bits);
            const DynUop &uop = rob.slot(slot);
            const bool s1_ok = uop.psrc1 == kNoPhysReg || prf.ready(uop.psrc1);
            const bool s2_ok = uop.psrc2 == kNoPhysReg || prf.ready(uop.psrc2);
            if (s1_ok && s2_ok)
                return true;
        }
    }
    return false;
}

void
ReservationStation::remove(int slot)
{
    // A source's wait bit for this slot is set exactly while the entry
    // still waits on it, and no other entry can own it, so clearing
    // both unconditionally is exact.
    const Entry &e = entries_[slot];
    for (const PhysReg src : {e.src1, e.src2}) {
        const std::size_t base = static_cast<std::size_t>(src) * words_;
        if (src != kNoPhysReg && base < waitMasks_.size())
            clearBit(&waitMasks_[base], slot);
    }
    for (int k = 0; k < kLevels; ++k)
        clearBit(level(k), slot);
    --size_;
}

void
ReservationStation::squashAfter(SeqNum seq)
{
    for (int w = 0; w < words_ && size_ > 0; ++w) {
        for (Word bits = residentWord(w); bits != 0; bits &= bits - 1) {
            const int slot = w * kWordBits + std::countr_zero(bits);
            if (entries_[slot].seq > seq)
                remove(slot);
        }
    }
}

void
ReservationStation::clear()
{
    // Clear only the bits the resident entries own: the wait-mask
    // table is several KB and clear() runs at every runahead exit.
    for (int w = 0; w < words_ && size_ > 0; ++w) {
        for (Word bits = residentWord(w); bits != 0; bits &= bits - 1)
            remove(w * kWordBits + std::countr_zero(bits));
    }
}

} // namespace rab
