/**
 * @file
 * Unit tests: rename machinery, ROB, reservation station, store queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "backend/lsq.hh"
#include "backend/rename.hh"
#include "backend/reservation_station.hh"
#include "backend/rob.hh"
#include "common/rng.hh"

namespace rab
{
namespace
{

DynUop
makeUop(SeqNum seq, Pc pc, ArchReg dest = kNoArchReg,
        ArchReg src1 = kNoArchReg, ArchReg src2 = kNoArchReg)
{
    DynUop u;
    u.seq = seq;
    u.pc = pc;
    u.sop.op = Opcode::kIntAlu;
    u.sop.dest = dest;
    u.sop.src1 = src1;
    u.sop.src2 = src2;
    return u;
}

// --------------------------------------------------------------------
// PhysRegFile / Rat
// --------------------------------------------------------------------

TEST(PhysRegFile, AllocWriteReadFree)
{
    PhysRegFile prf(64);
    EXPECT_EQ(prf.freeCount(), 64);
    const PhysReg r = prf.alloc();
    EXPECT_FALSE(prf.ready(r));
    prf.write(r, 99, false, false);
    EXPECT_TRUE(prf.ready(r));
    EXPECT_EQ(prf.value(r), 99u);
    prf.free(r);
    EXPECT_EQ(prf.freeCount(), 64);
}

TEST(PhysRegFile, PoisonAndProvenanceBits)
{
    PhysRegFile prf(64);
    const PhysReg r = prf.alloc();
    prf.write(r, 0, true, true);
    EXPECT_TRUE(prf.poisoned(r));
    EXPECT_TRUE(prf.offChip(r));
    prf.setPoisoned(r, false);
    EXPECT_FALSE(prf.poisoned(r));
}

TEST(PhysRegFile, DoubleFreePanics)
{
    PhysRegFile prf(64);
    const PhysReg r = prf.alloc();
    prf.free(r);
    EXPECT_DEATH(prf.free(r), "double free");
}

TEST(PhysRegFile, ExhaustionPanics)
{
    PhysRegFile prf(33);
    for (int i = 0; i < 33; ++i)
        prf.alloc();
    EXPECT_FALSE(prf.canAlloc());
    EXPECT_DEATH(prf.alloc(), "free list empty");
}

TEST(PhysRegFile, ResetAllReclaimsEverything)
{
    PhysRegFile prf(64);
    for (int i = 0; i < 10; ++i)
        prf.alloc();
    prf.resetAll();
    EXPECT_EQ(prf.freeCount(), 64);
}

TEST(Rat, MapAndSnapshot)
{
    Rat rat;
    rat.setMap(3, 17);
    EXPECT_EQ(rat.map(3), 17);
    const auto snapshot = rat.snapshot();
    rat.setMap(3, 20);
    rat.restore(snapshot);
    EXPECT_EQ(rat.map(3), 17);
}

// --------------------------------------------------------------------
// Rob
// --------------------------------------------------------------------

TEST(Rob, FifoOrder)
{
    Rob rob(4);
    rob.push(makeUop(1, 10));
    rob.push(makeUop(2, 11));
    EXPECT_EQ(rob.head().seq, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head().seq, 2u);
    EXPECT_EQ(rob.size(), 1);
}

TEST(Rob, FullAndWraparound)
{
    Rob rob(3);
    for (SeqNum s = 1; s <= 3; ++s)
        rob.push(makeUop(s, s));
    EXPECT_TRUE(rob.full());
    rob.popHead();
    rob.push(makeUop(4, 4)); // wraps into the freed slot
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().seq, 2u);
    EXPECT_EQ(rob.slot(rob.tailSlot()).seq, 4u);
}

TEST(Rob, PopTailSquash)
{
    Rob rob(4);
    rob.push(makeUop(1, 10));
    const int slot2 = rob.push(makeUop(2, 11));
    rob.popTail();
    EXPECT_EQ(rob.size(), 1);
    EXPECT_FALSE(rob.validSlot(slot2, 2));
}

TEST(Rob, ValidSlotChecksSeq)
{
    Rob rob(4);
    const int slot = rob.push(makeUop(5, 10));
    EXPECT_TRUE(rob.validSlot(slot, 5));
    EXPECT_FALSE(rob.validSlot(slot, 6));
    rob.popHead();
    EXPECT_FALSE(rob.validSlot(slot, 5));
}

TEST(Rob, FindOldestByPc)
{
    Rob rob(8);
    rob.push(makeUop(1, 100)); // the blocking op itself
    rob.push(makeUop(2, 50));
    rob.push(makeUop(3, 100)); // oldest *younger* instance
    rob.push(makeUop(4, 100));
    const int slot = rob.findOldestByPc(100, /*after_seq=*/1);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(rob.slot(slot).seq, 3u);
    EXPECT_EQ(rob.findOldestByPc(999, 1), -1);
}

TEST(Rob, FindProducerYoungestBeforeConsumer)
{
    Rob rob(8);
    rob.push(makeUop(1, 0, /*dest=*/5));
    rob.push(makeUop(2, 1, /*dest=*/5));
    rob.push(makeUop(3, 2, /*dest=*/5));
    const int slot = rob.findProducer(5, /*before_seq=*/3);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(rob.slot(slot).seq, 2u);
    EXPECT_EQ(rob.findProducer(6, 3), -1);
}

TEST(Rob, LogicalToSlotAfterWrap)
{
    Rob rob(3);
    rob.push(makeUop(1, 1));
    rob.push(makeUop(2, 2));
    rob.popHead();
    rob.push(makeUop(3, 3));
    rob.push(makeUop(4, 4));
    EXPECT_EQ(rob.slot(rob.logicalToSlot(0)).seq, 2u);
    EXPECT_EQ(rob.slot(rob.logicalToSlot(2)).seq, 4u);
}

// --------------------------------------------------------------------
// ReservationStation
// --------------------------------------------------------------------

TEST(ReservationStation, SelectsOnlyReady)
{
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg ready_reg = prf.alloc();
    prf.write(ready_reg, 1, false, false);
    const PhysReg pending_reg = prf.alloc(); // not ready

    DynUop a = makeUop(1, 0, 1, 2);
    a.psrc1 = ready_reg;
    DynUop b = makeUop(2, 1, 3, 4);
    b.psrc1 = pending_reg;
    const int slot_a = rob.push(std::move(a));
    const int slot_b = rob.push(std::move(b));

    ReservationStation rs(4, rob);
    rs.insert(slot_a, 1, ready_reg, kNoPhysReg, prf);
    rs.insert(slot_b, 2, pending_reg, kNoPhysReg, prf);
    const auto selected = rs.selectReady(4);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], slot_a);
    EXPECT_EQ(rs.size(), 1);
}

TEST(ReservationStation, WakeupOnWrite)
{
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg src = prf.alloc(); // not ready

    DynUop a = makeUop(1, 0, 1, 2);
    a.psrc1 = src;
    const int slot = rob.push(std::move(a));

    ReservationStation rs(4, rob);
    rs.insert(slot, 1, src, kNoPhysReg, prf);
    EXPECT_FALSE(rs.hasReady());
    EXPECT_FALSE(rs.anyReady(rob, prf));
    EXPECT_TRUE(rs.selectReady(4).empty());

    prf.write(src, 7, false, false);
    rs.notifyWritten(src);
    EXPECT_TRUE(rs.hasReady());
    EXPECT_TRUE(rs.anyReady(rob, prf));
    const auto selected = rs.selectReady(4);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], slot);
    EXPECT_FALSE(rs.hasReady());
}

TEST(ReservationStation, WakeupBothSourcesSameRegister)
{
    // src1 == src2: one pending register, so the entry must wake on
    // its single write and stay selectable exactly once.
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg src = prf.alloc(); // not ready

    DynUop a = makeUop(1, 0, 1, 2);
    a.psrc1 = src;
    a.psrc2 = src;
    const int slot = rob.push(std::move(a));

    ReservationStation rs(4, rob);
    rs.insert(slot, 1, src, src, prf);
    EXPECT_FALSE(rs.hasReady());

    prf.write(src, 7, false, false);
    rs.notifyWritten(src);
    const auto selected = rs.selectReady(4);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], slot);
    EXPECT_EQ(rs.size(), 0);
    EXPECT_FALSE(rs.hasReady());
}

TEST(ReservationStation, OldestFirstWithinWidth)
{
    Rob rob(8);
    PhysRegFile prf(64);
    ReservationStation rs(8, rob);
    std::vector<int> slots;
    for (SeqNum s = 1; s <= 4; ++s) {
        slots.push_back(rob.push(makeUop(s, s)));
        rs.insert(slots.back(), s, kNoPhysReg, kNoPhysReg, prf);
    }
    const auto selected = rs.selectReady(2);
    ASSERT_EQ(selected.size(), 2u);
    EXPECT_EQ(rob.slot(selected[0]).seq, 1u);
    EXPECT_EQ(rob.slot(selected[1]).seq, 2u);
}

TEST(ReservationStation, SquashAfterRemovesYounger)
{
    Rob rob(8);
    PhysRegFile prf(64);
    ReservationStation rs(8, rob);
    for (SeqNum s = 1; s <= 4; ++s)
        rs.insert(rob.push(makeUop(s, s)), s, kNoPhysReg, kNoPhysReg,
                  prf);
    rs.squashAfter(2);
    EXPECT_EQ(rs.size(), 2);
    // Squashed entries must also leave the ready mask: only the two
    // surviving (source-less, hence ready) entries may issue.
    EXPECT_EQ(rs.selectReady(8).size(), 2u);
}

TEST(ReservationStation, StaleWakeupAfterSquashIsHarmless)
{
    // An entry squashed while waiting must give up its wait bit; a
    // later write of the register must not revive it or corrupt the
    // ready mask.
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg src = prf.alloc(); // not ready

    DynUop a = makeUop(5, 0, 1, 2);
    a.psrc1 = src;
    const int slot = rob.push(std::move(a));

    ReservationStation rs(4, rob);
    rs.insert(slot, 5, src, kNoPhysReg, prf);
    rs.squashAfter(2); // removes seq 5
    EXPECT_EQ(rs.size(), 0);

    prf.write(src, 7, false, false);
    rs.notifyWritten(src);
    EXPECT_FALSE(rs.hasReady());
    EXPECT_TRUE(rs.selectReady(4).empty());
}

TEST(ReservationStation, FullInsertPanics)
{
    Rob rob(8);
    PhysRegFile prf(64);
    ReservationStation rs(1, rob);
    rs.insert(rob.push(makeUop(1, 1)), 1, kNoPhysReg, kNoPhysReg, prf);
    const int slot = rob.push(makeUop(2, 2));
    EXPECT_DEATH(rs.insert(slot, 2, kNoPhysReg, kNoPhysReg, prf),
                 "full");
}

TEST(ReservationStation, OldestFirstAcrossRobWrap)
{
    // Park the ROB head two slots before the end of the ring, so the
    // window wraps: slots 190, 191, then 0, 1, ... are oldest first.
    // Ready entries sit on both sides of the wrap and in a later mask
    // word; select must take them in seq order and stop at the width.
    constexpr int kCapacity = 192;
    Rob rob(kCapacity);
    PhysRegFile prf(64);
    ReservationStation rs(16, rob);
    SeqNum seq = 0;
    for (int i = 0; i < kCapacity - 2; ++i) {
        rob.push(makeUop(++seq, 0));
        rob.popHead();
    }
    ASSERT_EQ(rob.headSlot(), kCapacity - 2);

    const PhysReg pending = prf.alloc(); // not ready
    std::vector<int> slots;
    for (int i = 0; i < 80; ++i)
        slots.push_back(rob.push(makeUop(++seq, i)));
    ASSERT_EQ(slots[0], 190);
    ASSERT_EQ(slots[2], 0);
    ASSERT_EQ(slots[75], 73); // Second mask word.

    // Youngest first, so insertion order cannot explain the result.
    const int ready_idx[] = {75, 3, 2, 1, 0};
    for (const int i : ready_idx) {
        rs.insert(slots[i], rob.slot(slots[i]).seq, kNoPhysReg,
                  kNoPhysReg, prf);
    }
    rs.insert(slots[4], rob.slot(slots[4]).seq, pending, kNoPhysReg, prf);

    auto picked = rs.selectReady(3);
    ASSERT_EQ(picked.size(), 3u);
    EXPECT_EQ(picked[0], 190);
    EXPECT_EQ(picked[1], 191);
    EXPECT_EQ(picked[2], 0);

    prf.write(pending, 1, false, false);
    rs.notifyWritten(pending);
    picked = rs.selectReady(4);
    ASSERT_EQ(picked.size(), 3u);
    EXPECT_EQ(picked[0], slots[3]);
    EXPECT_EQ(picked[1], slots[4]);
    EXPECT_EQ(picked[2], slots[75]);
    EXPECT_EQ(rs.size(), 0);

    // A full ring: the head word's bits below the head are the
    // youngest entries and must come last.
    Rob ring(8);
    ReservationStation small(8, ring);
    for (int i = 0; i < 6; ++i) {
        ring.push(makeUop(++seq, 0));
        ring.popHead();
    }
    for (int i = 0; i < 8; ++i) {
        const int slot = ring.push(makeUop(++seq, i));
        small.insert(slot, seq, kNoPhysReg, kNoPhysReg, prf);
    }
    ASSERT_EQ(ring.headSlot(), 6);
    picked = small.selectReady(3);
    ASSERT_EQ(picked.size(), 3u);
    EXPECT_EQ(picked[0], 6);
    EXPECT_EQ(picked[1], 7);
    EXPECT_EQ(picked[2], 0);
    picked = small.selectReady(16);
    ASSERT_EQ(picked.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(picked[i], i + 1);
}

TEST(ReservationStation, RandomizedDifferentialAgainstSeqScan)
{
    // The station against a reference model: a map of resident entries
    // whose select is "oldest ready by seq", with readiness read
    // straight from the register file. Random insert, write/notify,
    // select (with reinsertion of rejected picks), head retirement,
    // squash and clear keep the ROB wrapping across mask words.
    constexpr int kRobEntries = 150;
    constexpr int kRsEntries = 40;
    Rng rng(0x5e1ec7);
    Rob rob(kRobEntries);
    PhysRegFile prf(256);
    ReservationStation rs(kRsEntries, rob);

    struct RefEntry
    {
        SeqNum seq;
        PhysReg src1;
        PhysReg src2;
    };
    std::map<int, RefEntry> ref; // ROB slot -> resident entry.
    std::vector<bool> issued(kRobEntries, false);
    SeqNum next_seq = 1;

    const auto src_ready = [&](PhysReg r) {
        return r == kNoPhysReg || prf.ready(r);
    };
    const auto ref_ready = [&](const RefEntry &e) {
        return src_ready(e.src1) && src_ready(e.src2);
    };
    // A source: a pending or ready in-flight destination, or none.
    const auto pick_source = [&]() -> PhysReg {
        if (rob.empty() || rng.chance(0.2))
            return kNoPhysReg;
        const int back = int(rng.range(std::min(rob.size(), 12)));
        return rob.slot(rob.logicalToSlot(rob.size() - 1 - back)).pdst;
    };
    const auto expect_agree = [&](std::uint64_t step) {
        ASSERT_EQ(rs.size(), int(ref.size())) << "step " << step;
        bool any = false;
        for (const auto &[slot, e] : ref)
            any = any || ref_ready(e);
        ASSERT_EQ(rs.hasReady(), any) << "step " << step;
        ASSERT_EQ(rs.anyReady(rob, prf), any) << "step " << step;
    };

    std::vector<PhysReg> retired_regs; // Retired, not yet freed.
    const auto free_unread = [&] {
        for (auto it = retired_regs.begin(); it != retired_regs.end();) {
            bool read = false;
            for (int i = 0; i < rob.size() && !read; ++i) {
                const DynUop &u = rob.slot(rob.logicalToSlot(i));
                read = u.psrc1 == *it || u.psrc2 == *it;
            }
            if (read) {
                ++it;
            } else {
                prf.free(*it);
                it = retired_regs.erase(it);
            }
        }
    };

    int selects = 0;
    int wraps = 0;
    for (std::uint64_t step = 0; step < 40000; ++step) {
        const std::uint64_t roll = rng.next() % 100;
        if (roll < 30) {
            // Rename + insert.
            if (!rob.full() && !rs.full() && prf.canAlloc()) {
                const PhysReg s1 = pick_source();
                const PhysReg s2 = rng.chance(0.3) ? s1 : pick_source();
                DynUop u = makeUop(next_seq++, 0);
                u.psrc1 = s1;
                u.psrc2 = s2;
                u.pdst = prf.alloc();
                const int slot = rob.push(std::move(u));
                issued[slot] = false;
                rs.insert(slot, rob.slot(slot).seq, s1, s2, prf);
                ref[slot] = RefEntry{rob.slot(slot).seq, s1, s2};
            }
        } else if (roll < 55) {
            // Write back a random pending in-flight destination.
            if (!rob.empty()) {
                const int pos = int(rng.range(rob.size()));
                const PhysReg dst = rob.slot(rob.logicalToSlot(pos)).pdst;
                if (!prf.ready(dst)) {
                    prf.write(dst, 1, false, false);
                    rs.notifyWritten(dst);
                }
            }
        } else if (roll < 75) {
            // Select against the reference "oldest ready by seq".
            const int width = 1 + int(rng.range(4));
            std::vector<std::pair<SeqNum, int>> ready;
            for (const auto &[slot, e] : ref) {
                if (ref_ready(e))
                    ready.emplace_back(e.seq, slot);
            }
            std::sort(ready.begin(), ready.end());
            if (int(ready.size()) > width)
                ready.resize(width);
            const std::vector<int> got = rs.selectReady(width);
            ASSERT_EQ(got.size(), ready.size()) << "step " << step;
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], ready[i].second) << "step " << step;
            ++selects;
            for (const int slot : got) {
                const RefEntry e = ref.at(slot);
                ref.erase(slot);
                if (rng.chance(0.15)) {
                    // Rejected at execute (port or memory queue): back
                    // into the station.
                    rs.reinsert(slot, e.seq, e.src1, e.src2, prf);
                    ref[slot] = e;
                } else {
                    issued[slot] = true;
                }
            }
        } else if (roll < 88) {
            // Retire issued, written heads. A retired destination is
            // freed once no in-flight uop reads it — the register-file
            // invariant the station's exactness rests on.
            while (!rob.empty()) {
                const int head = rob.headSlot();
                const PhysReg dst = rob.head().pdst;
                if (!issued[head] || !prf.ready(dst))
                    break;
                retired_regs.push_back(dst);
                rob.popHead();
                if (rob.headSlot() == 0)
                    ++wraps;
            }
            free_unread();
        } else if (roll < 98) {
            // Squash to a random in-flight seq (branch recovery).
            if (!rob.empty()) {
                const int pos = int(rng.range(rob.size()));
                const SeqNum keep = rob.slot(rob.logicalToSlot(pos)).seq;
                while (!rob.empty() && rob.slot(rob.tailSlot()).seq > keep) {
                    prf.free(rob.slot(rob.tailSlot()).pdst);
                    rob.popTail();
                }
                rs.squashAfter(keep);
                std::erase_if(ref, [&](const auto &kv) {
                    return kv.second.seq > keep;
                });
            }
        } else {
            // Full flush (runahead exit / watchdog recovery).
            while (!rob.empty()) {
                prf.free(rob.slot(rob.tailSlot()).pdst);
                rob.popTail();
            }
            free_unread();
            rs.clear();
            ref.clear();
        }
        expect_agree(step);
    }
    EXPECT_GT(selects, 1000);
    EXPECT_GT(wraps, 10);
}

// --------------------------------------------------------------------
// StoreQueue
// --------------------------------------------------------------------

TEST(StoreQueue, ForwardsYoungestOlderStore)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.allocate(3, 1);
    sq.setAddress(1, 0x100, false);
    sq.setData(1, 11, false);
    sq.setAddress(3, 0x100, false);
    sq.setData(3, 33, false);
    const SqSearch hit = sq.searchForLoad(/*load_seq=*/5, 0x100);
    EXPECT_EQ(hit.kind, SqSearch::Kind::kForward);
    EXPECT_EQ(hit.data, 33u);
    // A load between the stores sees only the older one.
    const SqSearch mid = sq.searchForLoad(2, 0x100);
    EXPECT_EQ(mid.data, 11u);
}

TEST(StoreQueue, UnknownOlderAddressBlocks)
{
    StoreQueue sq(8);
    sq.allocate(1, 0); // address never computed
    const SqSearch r = sq.searchForLoad(2, 0x200);
    EXPECT_EQ(r.kind, SqSearch::Kind::kUnknownAddr);
    EXPECT_EQ(sq.unknownAddrStalls.value(), 1u);
}

TEST(StoreQueue, MatchWithoutDataIsNotReady)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.setAddress(1, 0x300, false);
    const SqSearch r = sq.searchForLoad(2, 0x300);
    EXPECT_EQ(r.kind, SqSearch::Kind::kNotReady);
}

TEST(StoreQueue, PoisonedAddressMatchesNothing)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.setAddress(1, 0, /*poisoned=*/true);
    sq.setData(1, 5, false);
    const SqSearch r = sq.searchForLoad(2, 0x0);
    EXPECT_EQ(r.kind, SqSearch::Kind::kNoMatch);
}

TEST(StoreQueue, WordGranularity)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.setAddress(1, 0x100, false);
    sq.setData(1, 9, false);
    EXPECT_EQ(sq.searchForLoad(2, 0x104).kind,
              SqSearch::Kind::kForward); // same 8-byte word
    EXPECT_EQ(sq.searchForLoad(2, 0x108).kind,
              SqSearch::Kind::kNoMatch);
}

TEST(StoreQueue, ReleaseInOrderAndSquash)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.allocate(2, 1);
    sq.allocate(3, 2);
    sq.squashAfter(2);
    EXPECT_EQ(sq.size(), 2);
    sq.release(1);
    sq.release(2);
    EXPECT_EQ(sq.size(), 0);
}

TEST(StoreQueue, ReleaseOutOfOrderPanics)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.allocate(2, 1);
    EXPECT_DEATH(sq.release(2), "out of order");
}

TEST(StoreQueue, FindStoreRobSlotForChainGen)
{
    StoreQueue sq(8);
    sq.allocate(1, 7);
    sq.setAddress(1, 0x400, false);
    EXPECT_EQ(sq.findStoreRobSlot(/*before_seq=*/2, 0x400), 7);
    EXPECT_EQ(sq.findStoreRobSlot(1, 0x400), -1); // not older
    EXPECT_EQ(sq.findStoreRobSlot(2, 0x500), -1);
}

} // namespace
} // namespace rab
