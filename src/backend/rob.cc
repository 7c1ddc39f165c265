#include "backend/rob.hh"

#include <cstdint>

#include "common/logging.hh"

namespace rab
{

Rob::Rob(int capacity)
    : capacity_(capacity)
{
    if (capacity <= 0)
        fatal("Rob: bad capacity %d", capacity);
    entries_.resize(capacity);
    live_.assign(capacity, 0);
    pcNext_.assign(capacity, -1);
    regPrev_.assign(capacity, -1);
    regBack_.assign(kNumArchRegs, -1);
    std::size_t cells = 2;
    while (cells < static_cast<std::size_t>(capacity) * 2)
        cells *= 2;
    pcCells_.assign(cells, PcCell{});
    pcMask_ = cells - 1;
}

std::size_t
Rob::pcHash(Pc pc)
{
    // Fibonacci multiplicative hash with a xor-fold so high key bits
    // still influence the masked result.
    std::uint64_t h = static_cast<std::uint64_t>(pc)
        * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
}

std::size_t
Rob::pcProbe(Pc pc) const
{
    std::size_t i = pcHash(pc) & pcMask_;
    while (pcCells_[i].stamp == camStamp_ && pcCells_[i].pc != pc)
        i = (i + 1) & pcMask_;
    return i;
}

void
Rob::buildCams() const
{
    if (++camStamp_ == 0) {
        // Stamp wrap: old cells could alias the new stamp; wipe them.
        for (PcCell &cell : pcCells_)
            cell.stamp = 0;
        camStamp_ = 1;
    }
    regBack_.assign(kNumArchRegs, -1);
    // Oldest to youngest, appending at each list's young end, so every
    // per-key list comes out age-sorted.
    for (int i = 0; i < size_; ++i) {
        const int slot = wrapSlot(head_ + i);
        const DynUop &uop = entries_[slot];
        PcCell &cell = pcCells_[pcProbe(uop.pc)];
        if (cell.stamp != camStamp_) {
            cell.stamp = camStamp_;
            cell.pc = uop.pc;
            cell.front = slot;
        } else {
            pcNext_[cell.back] = slot;
        }
        cell.back = slot;
        pcNext_[slot] = -1;
        const ArchReg dest = uop.sop.dest;
        if (dest < kNumArchRegs) {
            regPrev_[slot] = regBack_[dest];
            regBack_[dest] = slot;
        }
    }
    camsValid_ = true;
}

int
Rob::push(DynUop &&uop)
{
    if (full())
        panic("Rob: push when full");
    const int slot = wrapSlot(head_ + size_);
    entries_[slot] = std::move(uop);
    live_[slot] = 1;
    ++size_;
    camsValid_ = false;
    return slot;
}

DynUop &
Rob::beginPush()
{
    if (full())
        panic("Rob: push when full");
    const int slot = wrapSlot(head_ + size_);
    entries_[slot] = DynUop{};
    return entries_[slot];
}

int
Rob::finishPush()
{
    const int slot = wrapSlot(head_ + size_);
    live_[slot] = 1;
    ++size_;
    camsValid_ = false;
    return slot;
}

DynUop &
Rob::head()
{
    if (empty())
        panic("Rob: head of empty buffer");
    return entries_[head_];
}

const DynUop &
Rob::head() const
{
    if (empty())
        panic("Rob: head of empty buffer");
    return entries_[head_];
}

void
Rob::popHead()
{
    if (empty())
        panic("Rob: popHead of empty buffer");
    live_[head_] = 0;
    camsValid_ = false;
    head_ = wrapSlot(head_ + 1);
    --size_;
}

int
Rob::tailSlot() const
{
    if (empty())
        return -1;
    return wrapSlot(head_ + size_ - 1);
}

void
Rob::popTail()
{
    if (empty())
        panic("Rob: popTail of empty buffer");
    const int tail = tailSlot();
    live_[tail] = 0;
    camsValid_ = false;
    --size_;
}

DynUop &
Rob::slot(int phys_slot)
{
    if (phys_slot < 0 || phys_slot >= capacity_ || !live_[phys_slot])
        panic("Rob: access to dead slot %d", phys_slot);
    return entries_[phys_slot];
}

const DynUop &
Rob::slot(int phys_slot) const
{
    if (phys_slot < 0 || phys_slot >= capacity_ || !live_[phys_slot])
        panic("Rob: access to dead slot %d", phys_slot);
    return entries_[phys_slot];
}

bool
Rob::validSlot(int phys_slot, SeqNum seq) const
{
    return phys_slot >= 0 && phys_slot < capacity_ && live_[phys_slot]
        && entries_[phys_slot].seq == seq;
}

int
Rob::logicalToSlot(int logical) const
{
    if (logical < 0 || logical >= size_)
        panic("Rob: bad logical index %d (size %d)", logical, size_);
    return wrapSlot(head_ + logical);
}

int
Rob::findOldestByPcIndexed(Pc pc, SeqNum after_seq) const
{
    ensureCams();
    const PcCell &cell = pcCells_[pcProbe(pc)];
    if (cell.stamp != camStamp_)
        return -1; // No live entry has this PC.
    // The list is age-sorted; skip the prefix at or below after_seq.
    for (int slot = cell.front; slot >= 0; slot = pcNext_[slot]) {
        if (entries_[slot].seq > after_seq)
            return slot;
    }
    return -1;
}

int
Rob::findProducerIndexed(ArchReg reg, SeqNum before_seq) const
{
    if (reg >= kNumArchRegs) {
        // Unindexed key (kNoArchReg or out of range): no caller asks
        // for these, but fall back to the reference scan so the two
        // forms can never diverge.
        return findProducerScan(reg, before_seq);
    }
    ensureCams();
    // Youngest-first: skip the suffix at or above before_seq.
    for (int slot = regBack_[reg]; slot >= 0; slot = regPrev_[slot]) {
        if (entries_[slot].seq < before_seq)
            return slot;
    }
    return -1;
}

int
Rob::findOldestByPcScan(Pc pc, SeqNum after_seq) const
{
    for (int i = 0; i < size_; ++i) {
        const int slot = wrapSlot(head_ + i);
        const DynUop &uop = entries_[slot];
        if (uop.seq > after_seq && uop.pc == pc)
            return slot;
    }
    return -1;
}

int
Rob::findProducerScan(ArchReg reg, SeqNum before_seq) const
{
    for (int i = size_ - 1; i >= 0; --i) {
        const int slot = wrapSlot(head_ + i);
        const DynUop &uop = entries_[slot];
        if (uop.seq < before_seq && uop.sop.dest == reg)
            return slot;
    }
    return -1;
}

void
Rob::clear()
{
    for (int i = 0; i < size_; ++i)
        live_[wrapSlot(head_ + i)] = 0;
    head_ = 0;
    size_ = 0;
    camsValid_ = false;
}

} // namespace rab
