/**
 * @file
 * Unit tests: the Figs. 3-5 chain-analysis instrumentation, plus a
 * randomized differential of its lazily sorted history against the
 * ordered-map model it replaced, and its snapshot round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "isa/functional.hh"
#include "isa/program.hh"
#include "runahead/chain_analysis.hh"
#include "snapshot/snapshot.hh"
#include "stats/stats.hh"

namespace rab
{
namespace
{

DynUop
mk(SeqNum seq, Pc pc, ArchReg dest, ArchReg src1 = kNoArchReg,
   ArchReg src2 = kNoArchReg, bool load = false)
{
    DynUop u;
    u.seq = seq;
    u.pc = pc;
    u.sop.op = load ? Opcode::kLoad : Opcode::kIntAlu;
    u.sop.dest = dest;
    u.sop.src1 = src1;
    u.sop.src2 = src2;
    return u;
}

/** Record one gather iteration: addi(1), mix(2<-1), add(3<-2),
 *  load(4<-[3]), filler(20). Returns the load. */
DynUop
recordIteration(ChainAnalysis &ca, SeqNum base)
{
    ca.recordExec(mk(base + 0, 0, 1, 1));
    ca.recordExec(mk(base + 1, 1, 2, 1));
    ca.recordExec(mk(base + 2, 2, 3, 10, 2));
    const DynUop load = mk(base + 3, 3, 4, 3, kNoArchReg, true);
    ca.recordExec(load);
    ca.recordExec(mk(base + 4, 4, 20, 20, 4));
    return load;
}

TEST(ChainAnalysis, SliceLengthIsStaticChain)
{
    ChainAnalysis ca;
    ca.beginInterval();
    recordIteration(ca, 10);
    const DynUop miss = recordIteration(ca, 20);
    ca.recordMiss(miss);
    ca.endInterval();
    // Static slice: load, add, mix, addi = 4 distinct PCs (the older
    // iteration's addi dedups by PC).
    EXPECT_EQ(ca.chainsMeasured.value(), 1u);
    EXPECT_DOUBLE_EQ(ca.averageChainLength(), 4.0);
}

TEST(ChainAnalysis, IdenticalChainsCountAsRepeated)
{
    ChainAnalysis ca;
    ca.beginInterval();
    for (int i = 0; i < 5; ++i) {
        const DynUop miss = recordIteration(ca, 10 + i * 10);
        ca.recordMiss(miss);
    }
    ca.endInterval();
    EXPECT_EQ(ca.chainsTotal.value(), 5u);
    EXPECT_EQ(ca.chainsRepeated.value(), 4u); // first is "unique"
    EXPECT_DOUBLE_EQ(ca.repeatedFraction(), 0.8);
}

TEST(ChainAnalysis, DifferentChainsAreUnique)
{
    ChainAnalysis ca;
    ca.beginInterval();
    const DynUop m1 = recordIteration(ca, 10);
    ca.recordMiss(m1);
    // A structurally different miss: load whose address comes straight
    // from the induction.
    ca.recordExec(mk(31, 7, 5, 1));
    const DynUop m2 = mk(32, 8, 6, 5, kNoArchReg, true);
    ca.recordExec(m2);
    ca.recordMiss(m2);
    ca.endInterval();
    EXPECT_EQ(ca.chainsTotal.value(), 2u);
    EXPECT_EQ(ca.chainsRepeated.value(), 0u);
}

TEST(ChainAnalysis, NecessaryFractionCountsChainOps)
{
    ChainAnalysis ca;
    ca.beginInterval();
    const DynUop miss = recordIteration(ca, 10); // 5 executed ops
    ca.recordMiss(miss);
    ca.endInterval();
    // addi, mix, add, load are necessary; the filler is not.
    EXPECT_EQ(ca.opsExecuted.value(), 5u);
    EXPECT_EQ(ca.opsNecessary.value(), 4u);
    EXPECT_DOUBLE_EQ(ca.necessaryFraction(), 0.8);
}

TEST(ChainAnalysis, IntervalsAreIndependent)
{
    ChainAnalysis ca;
    ca.beginInterval();
    ca.recordMiss(recordIteration(ca, 10));
    ca.endInterval();
    ca.beginInterval();
    ca.recordMiss(recordIteration(ca, 50));
    ca.endInterval();
    // The same chain in a *new* interval counts as unique again.
    EXPECT_EQ(ca.chainsTotal.value(), 2u);
    EXPECT_EQ(ca.chainsRepeated.value(), 0u);
}

TEST(ChainAnalysis, IgnoresRecordsOutsideIntervals)
{
    ChainAnalysis ca;
    const DynUop miss = recordIteration(ca, 10); // no beginInterval
    ca.recordMiss(miss);
    ca.endInterval();
    EXPECT_EQ(ca.opsExecuted.value(), 0u);
    EXPECT_EQ(ca.chainsTotal.value(), 0u);
}

TEST(ChainAnalysis, OutOfOrderRecordingStillWalksProgramOrder)
{
    // Writeback order differs from program order; the walk must not.
    ChainAnalysis ca;
    ca.beginInterval();
    ca.recordExec(mk(12, 2, 3, 10, 2));    // add completes first
    ca.recordExec(mk(10, 0, 1, 1));        // addi later
    ca.recordExec(mk(11, 1, 2, 1));        // mix last
    const DynUop miss = mk(13, 3, 4, 3, kNoArchReg, true);
    ca.recordExec(miss);
    ca.recordMiss(miss);
    ca.endInterval();
    EXPECT_DOUBLE_EQ(ca.averageChainLength(), 4.0);
}

// --------------------------------------------------------------------
// Differential against the ordered-map history
// --------------------------------------------------------------------

/**
 * The reference model: ChainAnalysis as it stood with a std::map
 * history (insert, then evict the smallest seq past the window) and a
 * hash set of needed registers in the walk.
 */
class MapChainAnalysis
{
  public:
    MapChainAnalysis(int window, int max_chain)
        : window_(window), maxChain_(max_chain)
    {
    }

    void beginInterval()
    {
        inInterval_ = true;
        history_.clear();
        intervalSignatures_.clear();
        intervalNecessary_.clear();
        intervalExecuted_ = 0;
    }

    void recordExec(const DynUop &uop)
    {
        if (!inInterval_)
            return;
        ++intervalExecuted_;
        history_.emplace(uop.seq, Rec{uop.pc, uop.sop.dest, uop.sop.src1,
                                      uop.sop.src2});
        if (static_cast<int>(history_.size()) > window_)
            history_.erase(history_.begin());
    }

    void recordMiss(const DynUop &uop)
    {
        if (!inInterval_)
            return;
        std::unordered_set<int> needed;
        if (uop.sop.src1 != kNoArchReg)
            needed.insert(uop.sop.src1);
        if (uop.sop.src2 != kNoArchReg)
            needed.insert(uop.sop.src2);
        std::vector<Pc> slice_pcs{uop.pc};
        intervalNecessary_.insert(uop.seq);
        const auto in_slice = [&](Pc pc) {
            return std::find(slice_pcs.begin(), slice_pcs.end(), pc)
                != slice_pcs.end();
        };
        auto it = history_.lower_bound(uop.seq);
        while (it != history_.begin() && !needed.empty()
               && static_cast<int>(slice_pcs.size()) < maxChain_) {
            --it;
            const Rec &rec = it->second;
            if (rec.dest == kNoArchReg || !needed.count(rec.dest))
                continue;
            needed.erase(rec.dest);
            intervalNecessary_.insert(it->first);
            if (in_slice(rec.pc))
                continue;
            if (rec.src1 != kNoArchReg)
                needed.insert(rec.src1);
            if (rec.src2 != kNoArchReg)
                needed.insert(rec.src2);
            slice_pcs.push_back(rec.pc);
        }
        std::sort(slice_pcs.begin(), slice_pcs.end());
        std::uint64_t sig = 0x452821e638d01377ull;
        for (const Pc pc : slice_pcs)
            sig = mix64(sig ^ pc);
        ++chainsTotal;
        if (!intervalSignatures_.insert(sig).second)
            ++chainsRepeated;
        chainLengthSum += slice_pcs.size();
        ++chainsMeasured;
    }

    void endInterval()
    {
        if (!inInterval_)
            return;
        opsExecuted += intervalExecuted_;
        opsNecessary += intervalNecessary_.size();
        inInterval_ = false;
        history_.clear();
        intervalSignatures_.clear();
        intervalNecessary_.clear();
        intervalExecuted_ = 0;
    }

    std::uint64_t opsExecuted = 0;
    std::uint64_t opsNecessary = 0;
    std::uint64_t chainsTotal = 0;
    std::uint64_t chainsRepeated = 0;
    std::uint64_t chainLengthSum = 0;
    std::uint64_t chainsMeasured = 0;

  private:
    struct Rec
    {
        Pc pc;
        ArchReg dest;
        ArchReg src1;
        ArchReg src2;
    };

    int window_;
    int maxChain_;
    bool inInterval_ = false;
    std::map<SeqNum, Rec> history_;
    std::unordered_set<std::uint64_t> intervalSignatures_;
    std::unordered_set<SeqNum> intervalNecessary_;
    std::uint64_t intervalExecuted_ = 0;
};

/** One call into an analyser. */
struct Event
{
    enum Kind
    {
        kBegin,
        kExec,
        kMiss,
        kEnd,
    };
    Kind kind;
    DynUop uop;
};

template <class Analyser>
void
apply(Analyser &a, const Event &e)
{
    switch (e.kind) {
    case Event::kBegin:
        a.beginInterval();
        break;
    case Event::kExec:
        a.recordExec(e.uop);
        break;
    case Event::kMiss:
        a.recordMiss(e.uop);
        break;
    case Event::kEnd:
        a.endInterval();
        break;
    }
}

/** A random register, or none one time in eight. */
ArchReg
randomReg(Rng &rng)
{
    return rng.chance(0.125) ? kNoArchReg
                             : static_cast<ArchReg>(rng.range(kNumArchRegs));
}

/**
 * Runahead intervals as the core reports them. A 24-op static program
 * (registers drawn from all 32) runs in program order with a
 * jump one uop in ten. Each uop writes back displaced by up to
 * @p max_displacement positions, one writeback in thirty repeats an
 * earlier uop's, and one in twenty is followed by a miss on that uop.
 * A few records arrive between intervals, which both sides ignore.
 */
std::vector<Event>
randomEvents(Rng &rng, int intervals, int max_len, int max_displacement)
{
    std::vector<DynUop> statics(24);
    for (std::size_t i = 0; i < statics.size(); ++i) {
        statics[i].pc = 0x400 + i;
        statics[i].sop.op = Opcode::kIntAlu;
        statics[i].sop.dest = randomReg(rng);
        statics[i].sop.src1 = randomReg(rng);
        statics[i].sop.src2 = randomReg(rng);
    }
    std::vector<Event> events;
    SeqNum seq = 1;
    std::size_t pc = 0;
    for (int n = 0; n < intervals; ++n) {
        std::vector<std::pair<std::uint64_t, DynUop>> order;
        const int len = 1 + static_cast<int>(rng.range(max_len));
        for (int i = 0; i < len; ++i) {
            pc = rng.chance(0.1) ? rng.range(statics.size())
                                 : (pc + 1) % statics.size();
            DynUop uop = statics[pc];
            uop.seq = seq++;
            order.emplace_back(i + rng.range(max_displacement + 1), uop);
        }
        std::stable_sort(order.begin(), order.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        events.push_back({Event::kBegin, {}});
        std::vector<DynUop> done;
        for (const auto &[key, uop] : order) {
            events.push_back({Event::kExec, uop});
            if (rng.chance(0.05))
                events.push_back({Event::kMiss, uop});
            done.push_back(uop);
            if (rng.chance(1.0 / 30)) {
                const std::size_t back =
                    rng.range(std::min<std::size_t>(done.size(), 50));
                events.push_back({Event::kExec, done[done.size() - 1 - back]});
            }
        }
        events.push_back({Event::kEnd, {}});
        for (int i = static_cast<int>(rng.range(3)); i > 0; --i) {
            DynUop stray = statics[rng.range(statics.size())];
            stray.seq = seq++;
            events.push_back({Event::kExec, stray});
        }
    }
    return events;
}

void
expectSameCounters(const ChainAnalysis &ca, const MapChainAnalysis &ref,
                   const std::string &where)
{
    EXPECT_EQ(ca.opsExecuted.value(), ref.opsExecuted) << where;
    EXPECT_EQ(ca.opsNecessary.value(), ref.opsNecessary) << where;
    EXPECT_EQ(ca.chainsTotal.value(), ref.chainsTotal) << where;
    EXPECT_EQ(ca.chainsRepeated.value(), ref.chainsRepeated) << where;
    EXPECT_EQ(ca.chainLengthSum.value(), ref.chainLengthSum) << where;
    EXPECT_EQ(ca.chainsMeasured.value(), ref.chainsMeasured) << where;
}

TEST(ChainAnalysisDifferential, MatchesMapHistoryOnWritebackOrder)
{
    struct Shape
    {
        int window;
        int maxChain;
        int maxLen;
        int maxDisplacement;
    };
    // Small windows so eviction runs constantly; one at the default
    // window with long intervals; a short chain cap.
    const Shape shapes[] = {
        {16, 64, 400, 300},
        {16, 6, 200, 40},
        {1, 64, 60, 10},
        {64, 64, 600, 300},
        {4096, 64, 12'000, 300},
    };
    for (const Shape &shape : shapes) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            Rng rng(seed * 7919 + static_cast<std::uint64_t>(shape.window));
            const int intervals = shape.window == 4096 ? 4 : 60;
            const std::vector<Event> events = randomEvents(
                rng, intervals, shape.maxLen, shape.maxDisplacement);
            ChainAnalysis ca(shape.window, shape.maxChain);
            MapChainAnalysis ref(shape.window, shape.maxChain);
            int ended = 0;
            for (const Event &e : events) {
                apply(ca, e);
                apply(ref, e);
                if (e.kind == Event::kEnd) {
                    expectSameCounters(
                        ca, ref,
                        "window " + std::to_string(shape.window)
                            + " seed " + std::to_string(seed)
                            + " interval " + std::to_string(++ended));
                }
            }
            // The stream exercised what it is meant to.
            EXPECT_GT(ref.chainsTotal, 0u);
            EXPECT_GT(ref.chainsRepeated, 0u);
            EXPECT_GT(ref.opsNecessary, 0u);
            EXPECT_LT(ref.opsNecessary, ref.opsExecuted);
        }
    }
}

// --------------------------------------------------------------------
// Snapshot round trip
// --------------------------------------------------------------------

TEST(ChainAnalysisSnapshot, UnsortedTailCapturesAsSeqOrder)
{
    // 40 writeback-ordered records (two written back twice) into a
    // 16-entry window: the history has evicted and its last records
    // are still an unsorted tail when the capture is taken.
    Rng rng(5);
    std::vector<std::pair<std::uint64_t, DynUop>> order;
    for (SeqNum seq = 100; seq < 140; ++seq) {
        order.emplace_back(seq + rng.range(12),
                           mk(seq, seq % 7, static_cast<ArchReg>(seq % 32),
                              static_cast<ArchReg>((seq + 3) % 32)));
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<DynUop> writeback;
    for (const auto &[key, uop] : order)
        writeback.push_back(uop);
    std::reverse(writeback.end() - 5, writeback.end());
    const DynUop again_late = writeback[30];
    const DynUop again_early = writeback[19];
    writeback.push_back(again_late);
    writeback.insert(writeback.begin() + 20, again_early);

    std::vector<DynUop> in_seq = writeback;
    std::stable_sort(in_seq.begin(), in_seq.end(),
                     [](const DynUop &a, const DynUop &b) {
                         return a.seq < b.seq;
                     });

    ChainAnalysis lazy(16, 64);
    ChainAnalysis ordered(16, 64);
    lazy.beginInterval();
    ordered.beginInterval();
    for (const DynUop &uop : writeback)
        lazy.recordExec(uop);
    for (const DynUop &uop : in_seq)
        ordered.recordExec(uop);
    EXPECT_EQ(captureChainAnalysisState(lazy),
              captureChainAnalysisState(ordered));
}

TEST(ChainAnalysisSnapshot, RestoreThenContinueMatchesUninterruptedRun)
{
    Rng rng(11);
    const std::vector<Event> events = randomEvents(rng, 12, 300, 200);
    ChainAnalysis whole(16, 64);
    for (const Event &e : events)
        apply(whole, e);
    const std::string expected = captureChainAnalysisState(whole);

    for (std::size_t cut = 0; cut <= events.size(); cut += 29) {
        ChainAnalysis before(16, 64);
        for (std::size_t i = 0; i < cut; ++i)
            apply(before, events[i]);
        const std::string payload = captureChainAnalysisState(before);
        ChainAnalysis after(16, 64);
        restoreChainAnalysisState(after, payload);
        EXPECT_EQ(captureChainAnalysisState(after), payload)
            << "cut " << cut;
        for (std::size_t i = cut; i < events.size(); ++i)
            apply(after, events[i]);
        EXPECT_EQ(captureChainAnalysisState(after), expected)
            << "cut " << cut;
    }
}

TEST(ChainAnalysisSnapshot, RestoreRejectsHistoryLongerThanWindow)
{
    ChainAnalysis wide(64, 64);
    wide.beginInterval();
    for (int i = 0; i < 40; ++i)
        recordIteration(wide, 10 * static_cast<SeqNum>(i));
    const std::string payload = captureChainAnalysisState(wide);

    ChainAnalysis same(64, 64);
    restoreChainAnalysisState(same, payload);
    ChainAnalysis narrow(16, 64);
    try {
        restoreChainAnalysisState(narrow, payload);
        FAIL() << "a 64-record history restored into a 16-entry window";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kFormat);
    }
}

TEST(StatsJson, DumpJsonIsWellFormed)
{
    StatGroup root("root");
    Counter c;
    c += 5;
    root.addCounter("events", &c);
    StatGroup child("child", &root);
    Counter d;
    child.addCounter("inner", &d);
    std::ostringstream os;
    root.dumpJson(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"root.events\": 5"), std::string::npos);
    EXPECT_NE(s.find("\"root.child.inner\": 0"), std::string::npos);
    EXPECT_EQ(s.front(), '{');
    EXPECT_EQ(s[s.size() - 2], '}');
}

} // namespace
} // namespace rab
