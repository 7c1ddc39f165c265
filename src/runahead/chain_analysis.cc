#include "runahead/chain_analysis.hh"

#include <algorithm>

#include "isa/functional.hh"
#include "isa/program.hh"

namespace rab
{

namespace
{

// The slice walk keeps its needed architectural registers in one word.
static_assert(kNumArchRegs <= 32);

std::uint32_t
regBit(ArchReg reg)
{
    return reg == kNoArchReg ? 0u : std::uint32_t{1} << reg;
}

constexpr auto seqLess = [](const auto &a, const auto &b) {
    return a.seq < b.seq;
};

} // namespace

ChainAnalysis::ChainAnalysis(int window, int max_chain)
    : window_(window), maxChain_(max_chain), statGroup_("chain_analysis")
{
}

void
ChainAnalysis::beginInterval()
{
    inInterval_ = true;
    clearHistory();
    // The tail normalizes past one window. After a normalize() the
    // history holds at most a window of dead records and the live
    // window; a merge grows it by the tail.
    const std::size_t window = static_cast<std::size_t>(window_);
    tail_.reserve(window + 1);
    history_.reserve(3 * window + 1);
    intervalSignatures_.clear();
    intervalNecessary_.clear();
    intervalExecuted_ = 0;
}

void
ChainAnalysis::clearHistory()
{
    history_.clear();
    tail_.clear();
    start_ = 0;
}

void
ChainAnalysis::normalize()
{
    if (tail_.empty())
        return;
    std::sort(tail_.begin(), tail_.end(), seqLess);

    // Merge from the back into the grown history, so the records older
    // than the tail's oldest stay where they are. On equal seqs the
    // history's copy lands first and the unique pass keeps it.
    std::size_t i = history_.size();
    std::size_t j = tail_.size();
    history_.resize(i + j);
    std::size_t k = history_.size();
    while (j > 0) {
        if (i > start_ && history_[i - 1].seq > tail_[j - 1].seq)
            history_[--k] = history_[--i];
        else
            history_[--k] = tail_[--j];
    }
    tail_.clear();
    const std::size_t from = i > start_ ? i - 1 : start_;
    history_.erase(std::unique(history_.begin()
                                   + static_cast<std::ptrdiff_t>(from),
                               history_.end(),
                               [](const Entry &a, const Entry &b) {
                                   return a.seq == b.seq;
                               }),
                   history_.end());

    // Keep the window_ largest seqs; compact once the dead prefix
    // outgrows the window, so the copy amortises to O(1) per record.
    const std::size_t window = static_cast<std::size_t>(window_);
    if (history_.size() - start_ > window)
        start_ = static_cast<std::uint32_t>(history_.size() - window);
    if (start_ > window) {
        history_.erase(history_.begin(),
                       history_.begin()
                           + static_cast<std::ptrdiff_t>(start_));
        start_ = 0;
    }
}

void
ChainAnalysis::recordExec(const DynUop &uop)
{
    if (!inInterval_)
        return;
    ++intervalExecuted_;
    tail_.push_back(Entry{uop.seq, Rec{uop.pc, uop.sop.dest, uop.sop.src1,
                                       uop.sop.src2}});
    if (tail_.size() > static_cast<std::size_t>(window_))
        normalize();
}

void
ChainAnalysis::recordMiss(const DynUop &uop)
{
    if (!inInterval_)
        return;

    // Reconstruct the backward dependence slice of the missing load
    // over the recorded window.
    normalize();
    std::uint32_t needed = regBit(uop.sop.src1) | regBit(uop.sop.src2);

    // The chain is the *static* slice: each static uop (PC) counts
    // once. Without the dedup, every loop-carried induction would drag
    // the slice back through all prior iterations and no two chains
    // would ever compare equal.
    std::vector<Pc> slice_pcs{uop.pc};
    intervalNecessary_.insert(uop.seq);

    const auto in_slice = [&](Pc pc) {
        for (const Pc p : slice_pcs) {
            if (p == pc)
                return true;
        }
        return false;
    };

    // Walk strictly backwards in program (sequence) order.
    const auto live =
        history_.cbegin() + static_cast<std::ptrdiff_t>(start_);
    auto it = std::lower_bound(live, history_.cend(), uop, seqLess);
    while (it != live && needed != 0
           && static_cast<int>(slice_pcs.size()) < maxChain_) {
        --it;
        const Rec &rec = it->rec;
        const std::uint32_t dest = regBit(rec.dest);
        if (!(needed & dest))
            continue;
        needed &= ~dest;
        intervalNecessary_.insert(it->seq);
        if (in_slice(rec.pc))
            continue; // an older instance of a static op already seen
        needed |= regBit(rec.src1) | regBit(rec.src2);
        slice_pcs.push_back(rec.pc);
    }

    // Structural signature: the sorted distinct-PC set of the slice.
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

void
ChainAnalysis::endInterval()
{
    if (!inInterval_)
        return;
    opsExecuted += intervalExecuted_;
    opsNecessary += intervalNecessary_.size();
    inInterval_ = false;
    clearHistory();
    intervalSignatures_.clear();
    intervalNecessary_.clear();
    intervalExecuted_ = 0;
}

double
ChainAnalysis::necessaryFraction() const
{
    if (opsExecuted.value() == 0)
        return 0.0;
    return static_cast<double>(opsNecessary.value())
        / static_cast<double>(opsExecuted.value());
}

double
ChainAnalysis::repeatedFraction() const
{
    if (chainsTotal.value() == 0)
        return 0.0;
    return static_cast<double>(chainsRepeated.value())
        / static_cast<double>(chainsTotal.value());
}

double
ChainAnalysis::averageChainLength() const
{
    if (chainsMeasured.value() == 0)
        return 0.0;
    return static_cast<double>(chainLengthSum.value())
        / static_cast<double>(chainsMeasured.value());
}

void
ChainAnalysis::regStats(StatGroup *parent)
{
    statGroup_.addCounter("ops_executed", &opsExecuted,
                          "runahead ops executed (traditional mode)");
    statGroup_.addCounter("ops_necessary", &opsNecessary,
                          "runahead ops on a miss dependence chain");
    statGroup_.addCounter("chains_total", &chainsTotal,
                          "miss dependence chains observed");
    statGroup_.addCounter("chains_repeated", &chainsRepeated,
                          "chains repeated within an interval");
    statGroup_.addCounter("chain_length_sum", &chainLengthSum,
                          "sum of chain lengths (uops)");
    statGroup_.addCounter("chains_measured", &chainsMeasured,
                          "chains with a measured length");
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
