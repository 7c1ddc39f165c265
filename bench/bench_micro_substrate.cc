/**
 * @file
 * google-benchmark microbenchmarks for the substrate primitives: cache
 * tag access, DRAM scheduling, branch prediction, reservation-station
 * wakeup/select, ROB CAM queries, chain-analysis recording and
 * whole-core simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "backend/core.hh"
#include "backend/rename.hh"
#include "backend/reservation_station.hh"
#include "backend/rob.hh"
#include "common/rng.hh"
#include "core/simulation.hh"
#include "frontend/branch_predictor.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "runahead/chain_analysis.hh"
#include "workloads/suite.hh"

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    rab::Cache cache(rab::CacheConfig{"bench", 1024 * 1024, 8, 64, 18});
    rab::Rng rng(7);
    for (auto _ : state) {
        const rab::Addr addr = rng.range(16u << 20);
        benchmark::DoNotOptimize(cache.access(addr, false).hit);
        if (!cache.probe(addr))
            cache.insert(addr, false);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_DramSchedule(benchmark::State &state)
{
    rab::Dram dram{rab::DramConfig{}};
    rab::Rng rng(11);
    rab::Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.range(1u << 30) & ~63ull, now, false));
        now += 5;
    }
}
BENCHMARK(BM_DramSchedule);

void
BM_BranchPredict(benchmark::State &state)
{
    rab::BranchPredictor bp{rab::BranchPredictorConfig{}};
    rab::Rng rng(13);
    for (auto _ : state) {
        const rab::Pc pc = rng.range(512);
        const auto pred = bp.predictBranch(pc);
        bp.update(pc, rng.chance(0.6), pc + 7, pred.taken);
    }
}
BENCHMARK(BM_BranchPredict);

void
BM_RsWakeupSelect(benchmark::State &state)
{
    // One iteration is one scheduler cycle on Table 1 structures (a
    // 92-entry RS over a 192-entry ROB and 352 physical registers):
    // writeback wakes the registers due this cycle, select issues up to
    // 4 ready uops, the ROB retires completed heads, and rename inserts
    // up to 4 uops whose sources are recent in-flight producers.
    constexpr int kWidth = 4;
    constexpr int kRobEntries = 192;
    constexpr int kMaxLatency = 4; // Writeback ring depth (cycles).
    rab::Rob rob(kRobEntries);
    rab::PhysRegFile prf(352);
    rab::ReservationStation rs(92, rob);
    rab::Rng rng(17);
    std::array<std::vector<rab::PhysReg>, kMaxLatency> due;
    std::array<bool, kRobEntries> done{};
    rab::SeqNum seq = 0;
    int cycle = 0;

    const auto recent_producer = [&]() -> rab::PhysReg {
        // A producer among the youngest 16 in-flight uops, or none.
        if (rob.empty() || rng.chance(0.25))
            return rab::kNoPhysReg;
        const int back = static_cast<int>(rng.range(std::min(rob.size(), 16)));
        return rob.slot(rob.logicalToSlot(rob.size() - 1 - back)).pdst;
    };

    std::uint64_t issued = 0;
    for (auto _ : state) {
        std::vector<rab::PhysReg> &now = due[cycle % kMaxLatency];
        for (const rab::PhysReg reg : now) {
            prf.write(reg, 1, false, false);
            rs.notifyWritten(reg);
        }
        now.clear();

        for (const int slot : rs.selectReady(kWidth)) {
            const rab::PhysReg dst = rob.slot(slot).pdst;
            const int latency = 1 + static_cast<int>(rng.range(3));
            due[(cycle + latency) % kMaxLatency].push_back(dst);
            done[slot] = true;
            ++issued;
        }

        // Retire written heads; a retired register is free again once
        // its value is out (consumers already hold it as ready).
        for (int n = 0; n < kWidth && !rob.empty(); ++n) {
            const int head = rob.headSlot();
            const rab::PhysReg dst = rob.head().pdst;
            if (!done[head] || !prf.ready(dst))
                break;
            done[head] = false;
            prf.free(dst);
            rob.popHead();
        }

        for (int n = 0; n < kWidth; ++n) {
            if (rob.full() || rs.full() || !prf.canAlloc())
                break;
            const rab::PhysReg src1 = recent_producer();
            const rab::PhysReg src2 = recent_producer();
            rab::DynUop &uop = rob.beginPush();
            uop.seq = ++seq;
            uop.pc = seq % 64;
            uop.psrc1 = src1;
            uop.psrc2 = src2;
            uop.pdst = prf.alloc();
            const int slot = rob.finishPush();
            rs.insert(slot, seq, src1, src2, prf);
        }
        benchmark::DoNotOptimize(rs.size());
        ++cycle;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}
BENCHMARK(BM_RsWakeupSelect);

void
BM_RobCamQuery(benchmark::State &state)
{
    // A full 192-entry ROB holding a 12-uop loop body. Each iteration
    // slides the window by one uop (retire the head, rename one) and
    // then runs a chain-generation-shaped burst: one PC CAM search for
    // a younger instance of the head, then depth-first producer CAM
    // searches from it, up to 32.
    constexpr int kRobEntries = 192;
    constexpr int kLoopBody = 12;
    constexpr int kMaxSearches = 32;
    rab::Rob rob(kRobEntries);
    rab::SeqNum seq = 0;
    const auto push = [&] {
        const int i = static_cast<int>(seq % kLoopBody);
        rab::DynUop uop;
        uop.seq = ++seq;
        uop.pc = static_cast<rab::Pc>(100 + i);
        uop.sop.op = rab::Opcode::kIntAlu;
        uop.sop.dest = static_cast<rab::ArchReg>(i % 8);
        uop.sop.src1 = static_cast<rab::ArchReg>((i + 7) % 8);
        uop.sop.src2 = i % 3 == 0 ? rab::kNoArchReg
                                  : static_cast<rab::ArchReg>((i + 5) % 8);
        rob.push(std::move(uop));
    };
    while (!rob.full())
        push();

    std::vector<std::pair<rab::ArchReg, rab::SeqNum>> pending;
    for (auto _ : state) {
        rob.popHead();
        push();
        const rab::DynUop &head = rob.head();
        int slot = rob.findOldestByPc(head.pc, head.seq);
        int searches = 0;
        pending.clear();
        while (slot >= 0) {
            const rab::DynUop &uop = rob.slot(slot);
            if (uop.sop.src2 != rab::kNoArchReg)
                pending.emplace_back(uop.sop.src2, uop.seq);
            pending.emplace_back(uop.sop.src1, uop.seq);
            slot = -1;
            while (slot < 0 && !pending.empty() && searches < kMaxSearches) {
                const auto [reg, consumer] = pending.back();
                pending.pop_back();
                ++searches;
                slot = rob.findProducer(reg, consumer);
            }
        }
        benchmark::DoNotOptimize(searches);
    }
}
BENCHMARK(BM_RobCamQuery);

void
BM_ChainAnalysisRecord(benchmark::State &state)
{
    // Traditional-runahead writebacks into the default 4096-entry
    // history: a 12-uop loop body in program order, each uop displaced
    // by up to 256 positions (writeback order), with a miss slice
    // walked every state.range(0) records. One interval spans the
    // whole 64k-record stream, so eviction runs throughout.
    constexpr int kLoopBody = 12;
    constexpr std::size_t kStream = 1u << 16;
    const auto miss_every = static_cast<std::size_t>(state.range(0));
    rab::Rng rng(19);
    std::vector<std::pair<rab::SeqNum, rab::DynUop>> order;
    order.reserve(kStream);
    for (std::size_t seq = 1; seq <= kStream; ++seq) {
        const int i = static_cast<int>(seq % kLoopBody);
        rab::DynUop uop;
        uop.seq = seq;
        uop.pc = static_cast<rab::Pc>(100 + i);
        uop.sop.op = i == 5 ? rab::Opcode::kLoad : rab::Opcode::kIntAlu;
        uop.sop.dest = static_cast<rab::ArchReg>(i % 8);
        uop.sop.src1 = static_cast<rab::ArchReg>((i + 7) % 8);
        uop.sop.src2 = i % 3 == 0 ? rab::kNoArchReg
                                  : static_cast<rab::ArchReg>((i + 5) % 8);
        order.emplace_back(seq + rng.range(256), uop);
    }
    std::sort(order.begin(), order.end(), [](const auto &a, const auto &b) {
        return a.first < b.first;
    });

    rab::ChainAnalysis ca;
    std::size_t next = 0;
    ca.beginInterval();
    for (auto _ : state) {
        const rab::DynUop &uop = order[next].second;
        ca.recordExec(uop);
        if (++next % miss_every == 0)
            ca.recordMiss(uop);
        if (next == kStream) {
            ca.endInterval();
            ca.beginInterval();
            next = 0;
        }
    }
    ca.endInterval();
    benchmark::DoNotOptimize(ca.chainLengthSum.value());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainAnalysisRecord)->Arg(64);

void
BM_CoreSimulation(benchmark::State &state)
{
    // Whole-core throughput in simulated instructions per second.
    for (auto _ : state) {
        rab::SimConfig config =
            rab::makeConfig(rab::RunaheadConfig::kHybrid, false);
        config.warmupInstructions = 0;
        config.instructions = 5000;
        rab::Simulation sim(config, rab::buildSuiteWorkload("mcf"));
        benchmark::DoNotOptimize(sim.run().cycles);
    }
    state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_CoreSimulation);

} // namespace

BENCHMARK_MAIN();
