/**
 * @file
 * Unit and integration tests for src/cpu: caches, branch prediction,
 * functional units, and the out-of-order pipeline (IPC sanity,
 * dependence stalls, memory behaviour, gating semantics), plus a
 * cycle-exact activity golden of the whole pipeline.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/branch_pred.hpp"
#include "cpu/cache.hpp"
#include "cpu/core.hpp"
#include "cpu/func_units.hpp"
#include "fuzz_inputs.hpp"
#include "isa/program.hpp"
#include "util/jsonl.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

namespace {

using namespace vguard::cpu;
using namespace vguard::isa;

// ---------------------------------------------------------------- cache

TEST(Cache, HitAfterFill)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13f, false).hit); // same line
    EXPECT_FALSE(c.access(0x140, false).hit); // next line
}

TEST(Cache, LruEviction)
{
    // 2 ways, 8 sets, 64B lines: three lines mapping to set 0.
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    const uint64_t a = 0x0, b = 0x400, d = 0x800; // set 0 aliases
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);     // a is MRU
    c.access(d, false);     // evicts b (LRU)
    EXPECT_TRUE(c.access(a, false).hit);
    EXPECT_FALSE(c.access(b, false).hit);
}

TEST(Cache, DirtyWriteback)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, true);    // dirty
    c.access(0x400, false);
    const auto res = c.access(0x800, false); // evicts dirty 0x0
    EXPECT_TRUE(res.evictedDirty);
    EXPECT_EQ(res.evictedAddr, 0x0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, false);
    c.access(0x400, false);
    const auto res = c.access(0x800, false);
    EXPECT_FALSE(res.evictedDirty);
}

TEST(Cache, StatsCount)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x40, false);
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_NEAR(c.stats().missRate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, FlushInvalidates)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, false);
    c.flush();
    EXPECT_FALSE(c.access(0x0, false).hit);
}

TEST(Cache, MoveHandsOverTheLinesAndCopyIsDeleted)
{
    // The lines live in the cache's own mapping: a move hands it over,
    // and a copy would unmap it twice.
    static_assert(std::is_nothrow_move_constructible_v<Cache>);
    static_assert(!std::is_copy_constructible_v<Cache>);
    Cache a("t", CacheConfig{1024, 2, 64, 1});
    a.access(0x100, true);
    Cache b(std::move(a));
    EXPECT_TRUE(b.access(0x100, false).hit);
    Cache c("u", CacheConfig{2048, 2, 64, 1});
    c = std::move(b);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.name(), "t");
}

TEST(Cache, RecycledLinesStartEmpty)
{
    // A destroyed cache leaves its mapping to the next cache of the
    // same size built on this thread, which must clear it first.
    {
        Cache a("a", CacheConfig{1024, 2, 64, 1});
        for (uint64_t addr = 0; addr < 1024; addr += 64)
            a.access(addr, true);
    }
    Cache b("b", CacheConfig{1024, 2, 64, 1});
    for (uint64_t addr = 0; addr < 1024; addr += 64)
        EXPECT_FALSE(b.access(addr, false).hit) << addr;
    EXPECT_EQ(b.stats().writebacks, 0u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache("bad", CacheConfig{1000, 3, 60, 1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(MemHierarchy, LatencyChain)
{
    CpuConfig cfg;
    MemHierarchy mh(cfg);
    ActivityVector av;
    // Cold: L1 miss + L2 miss + memory.
    const unsigned cold = mh.dataAccess(0x1000, false, av);
    EXPECT_EQ(cold, cfg.dl1.latency + cfg.l2.latency + cfg.memLatency);
    // Warm L1.
    const unsigned hot = mh.dataAccess(0x1000, false, av);
    EXPECT_EQ(hot, cfg.dl1.latency);
    EXPECT_EQ(av.dcacheAccesses, 2u);
    EXPECT_EQ(av.dcacheMisses, 1u);
    EXPECT_EQ(av.l2Accesses, 1u);
    EXPECT_EQ(av.l2Misses, 1u);
}

TEST(MemHierarchy, L2HitFasterThanMemory)
{
    CpuConfig cfg;
    cfg.dl1.sizeBytes = 1024; // tiny L1 so we can evict easily
    MemHierarchy mh(cfg);
    ActivityVector av;
    mh.dataAccess(0x0, false, av); // cold fill into L1+L2
    // Evict 0x0 from L1 by touching its aliases.
    mh.dataAccess(0x400, false, av);
    mh.dataAccess(0x800, false, av);
    const unsigned lat = mh.dataAccess(0x0, false, av); // L2 hit
    EXPECT_EQ(lat, cfg.dl1.latency + cfg.l2.latency);
}

TEST(MemHierarchy, IfetchUsesIl1)
{
    CpuConfig cfg;
    MemHierarchy mh(cfg);
    ActivityVector av;
    mh.ifetch(cfg.codeBase, av);
    EXPECT_EQ(av.icacheAccesses, 1u);
    EXPECT_EQ(av.icacheMisses, 1u);
    av = ActivityVector{};
    mh.ifetch(cfg.codeBase + 4, av);
    EXPECT_EQ(av.icacheMisses, 0u);
}

// ----------------------------------------------------------- predictor

TEST(Bpred, LearnsAlwaysTaken)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BNE, kNoReg, intReg(1), kNoReg, 0, 5};
    // Train.
    for (int i = 0; i < 8; ++i)
        bp.predictAndUpdate(10, si, true, 5);
    const auto pred = bp.predictAndUpdate(10, si, true, 5);
    EXPECT_TRUE(pred.taken);
    EXPECT_TRUE(pred.targetKnown);
    EXPECT_EQ(pred.target, 5u);
}

TEST(Bpred, LearnsAlwaysNotTaken)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BEQ, kNoReg, intReg(1), kNoReg, 0, 5};
    for (int i = 0; i < 8; ++i)
        bp.predictAndUpdate(10, si, false, 5);
    EXPECT_FALSE(bp.predictAndUpdate(10, si, false, 5).taken);
}

TEST(Bpred, GshareLearnsAlternating)
{
    // A strictly alternating branch is mispredicted by bimodal but
    // learned by gshare through history; the chooser should converge
    // on gshare and the tail mispredict rate should collapse.
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BNE, kNoReg, intReg(1), kNoReg, 0, 7};
    bool taken = false;
    for (int i = 0; i < 4000; ++i) {
        bp.predictAndUpdate(42, si, taken, 7);
        taken = !taken;
    }
    const auto before = bp.stats().condMispredicts;
    for (int i = 0; i < 1000; ++i) {
        bp.predictAndUpdate(42, si, taken, 7);
        taken = !taken;
    }
    const auto tail = bp.stats().condMispredicts - before;
    EXPECT_LT(tail, 50u); // < 5 % in the trained regime
}

TEST(Bpred, UnconditionalAlwaysRight)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BR, kNoReg, kNoReg, kNoReg, 0, 3};
    const auto pred = bp.predictAndUpdate(0, si, true, 3);
    EXPECT_TRUE(pred.taken);
    EXPECT_TRUE(pred.targetKnown);
    EXPECT_EQ(pred.target, 3u);
}

TEST(Bpred, RasPredictsReturn)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst call{Opcode::CALL, intReg(kLinkReg), kNoReg, kNoReg, 0, 9};
    StaticInst ret{Opcode::RET, kNoReg, intReg(kLinkReg), kNoReg, 0, -1};
    bp.predictAndUpdate(4, call, true, 9);
    const auto pred = bp.predictAndUpdate(12, ret, true, 5);
    EXPECT_TRUE(pred.targetKnown);
    EXPECT_EQ(pred.target, 5u); // pc of call + 1
    EXPECT_EQ(bp.stats().rasMispredicts, 0u);
}

TEST(Bpred, RasUnderflowCountsMispredict)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst ret{Opcode::RET, kNoReg, intReg(kLinkReg), kNoReg, 0, -1};
    bp.predictAndUpdate(12, ret, true, 5);
    EXPECT_EQ(bp.stats().rasMispredicts, 1u);
}

TEST(Bpred, NestedCallsLifo)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst call{Opcode::CALL, intReg(kLinkReg), kNoReg, kNoReg, 0, 0};
    StaticInst ret{Opcode::RET, kNoReg, intReg(kLinkReg), kNoReg, 0, -1};
    bp.predictAndUpdate(10, call, true, 100);
    bp.predictAndUpdate(100, call, true, 200);
    EXPECT_EQ(bp.predictAndUpdate(210, ret, true, 101).target, 101u);
    EXPECT_EQ(bp.predictAndUpdate(101, ret, true, 11).target, 11u);
}

// ------------------------------------------------------------ FU pool

TEST(FuPool, CapacityLimits)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    for (unsigned i = 0; i < cfg.numIntAlu; ++i)
        EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 0));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntAlu, 0));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 1)); // freed next cycle
}

TEST(FuPool, UnpipelinedDivBlocks)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0)); // 2 units
    EXPECT_FALSE(pool.tryIssue(OpClass::IntDiv, 0));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntDiv, 5));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, cfg.intDivRepeat));
}

TEST(FuPool, MultAndDivShareUnits)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntMult, 0));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntMult, 0));
}

TEST(FuPool, BusyCountTracksOccupancy)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    pool.tryIssue(OpClass::FpDiv, 0);
    EXPECT_EQ(pool.busyCount(FuGroup::FpMultDiv, 0), 1u);
    EXPECT_EQ(pool.busyCount(FuGroup::FpMultDiv, cfg.fpDivRepeat), 0u);
}

TEST(FuPool, BranchesUseIntAlu)
{
    EXPECT_EQ(fuGroupOf(OpClass::Branch), FuGroup::IntAlu);
    EXPECT_EQ(fuGroupOf(OpClass::Load), FuGroup::MemPort);
}

// ----------------------------------------------------------- pipeline

// Run a core until it halts (bounded) and return stats.
CoreStats
runToHalt(OoOCore &core, uint64_t maxCycles = 2'000'000)
{
    while (!core.halted() && core.now() < maxCycles)
        core.cycle();
    EXPECT_TRUE(core.halted()) << "core did not drain";
    return core.stats();
}

// Looped blocks so the I-cache warms up after the first iteration
// (straight-line megaprograms would measure cold I-misses instead of
// pipeline behaviour).
Program
independentAdds(int iters, int blockLen = 40)
{
    ProgramBuilder b;
    b.ldiq(1, 1).ldiq(2, 2).ldiq(9, iters);
    b.label("top");
    for (int i = 0; i < blockLen; ++i)
        b.addq(10 + (i % 16), 1, 2);
    b.subq(9, 9, 1).bne(9, "top").halt();
    return b.build();
}

Program
dependentChain(int iters, int blockLen = 40)
{
    ProgramBuilder b;
    b.ldiq(1, 1).ldiq(2, 0).ldiq(9, iters);
    b.label("top");
    for (int i = 0; i < blockLen; ++i)
        b.addq(2, 2, 1); // serial chain
    b.subq(9, 9, 1).bne(9, "top").halt();
    return b.build();
}

TEST(Core, CommitsEverything)
{
    OoOCore core(CpuConfig{}, independentAdds(5));
    const auto s = runToHalt(core);
    EXPECT_EQ(s.committed, 3u + 5u * 42u + 1u);
    EXPECT_EQ(s.dispatched, s.committed);
}

TEST(Core, IndependentOpsSuperscalar)
{
    OoOCore core(CpuConfig{}, independentAdds(200));
    const auto s = runToHalt(core);
    // 8-wide with 8 IntALUs should sustain well above 3 IPC on
    // independent adds once the I-cache is warm.
    EXPECT_GT(s.ipc(), 3.0);
}

TEST(Core, DependentChainSerialises)
{
    OoOCore core(CpuConfig{}, dependentChain(200));
    const auto s = runToHalt(core);
    // One add per cycle at best.
    EXPECT_LT(s.ipc(), 1.3);
    EXPECT_GT(s.ipc(), 0.7);
}

TEST(Core, DependentFasterThanDivChain)
{
    OoOCore addCore(CpuConfig{}, dependentChain(100));
    ProgramBuilder b;
    b.ldiq(1, 100).ldiq(2, 3).ldiq(9, 100).ldiq(8, 1);
    b.label("top");
    for (int i = 0; i < 40; ++i)
        b.divq(1, 1, 2);
    b.subq(9, 9, 8).bne(9, "top").halt();
    OoOCore divCore(CpuConfig{}, b.build());
    const auto sAdd = runToHalt(addCore);
    const auto sDiv = runToHalt(divCore);
    // Unpipelined 20-cycle divides must be far slower.
    EXPECT_GT(sAdd.ipc(), 8.0 * sDiv.ipc());
}

TEST(Core, LoadStoreForwarding)
{
    // store then immediately load the same address: must forward.
    ProgramBuilder b;
    b.ldiq(1, 0x1000).ldiq(2, 42);
    for (int i = 0; i < 100; ++i) {
        b.stq(2, 1, 0);
        b.ldq(3, 1, 0);
    }
    b.halt();
    OoOCore core(CpuConfig{}, b.build());
    const auto s = runToHalt(core);
    EXPECT_GT(s.lsqForwards, 50u);
    EXPECT_EQ(s.loads, 100u);
    EXPECT_EQ(s.stores, 100u);
}

TEST(Core, PointerChaseSerialisesMisses)
{
    // Build a linked chain whose footprint exceeds the 2 MB L2, then
    // chase it: each load's address depends on the previous load, so
    // the ~300-cycle memory misses serialise.
    constexpr int kNodes = 600;
    constexpr int64_t kStride = 8384;  // 131 lines; spreads L2 sets
    constexpr int64_t kBase = 0x1000000;
    ProgramBuilder b;
    b.ldiq(1, kBase).ldiq(2, kStride).ldiq(9, kNodes).ldiq(8, 1);
    // Write the chain: node i holds the address of node i+1.
    b.label("mk")
        .addq(3, 1, 2)   // next = cur + stride
        .stq(3, 1, 0)
        .bis(1, 3, 31)   // cur = next
        .subq(9, 9, 8)
        .bne(9, "mk");
    // Chase it (cold again after > L2-size of stores? the stores also
    // left the early lines evicted by the later ones).
    b.ldiq(1, kBase).ldiq(9, kNodes);
    b.label("chase").ldq(1, 1, 0).subq(9, 9, 8).bne(9, "chase").halt();
    // Shrink the caches so the 600-node chain exceeds both levels.
    CpuConfig cfg;
    cfg.dl1.sizeBytes = 8 * 1024;
    cfg.l2.sizeBytes = 32 * 1024;
    OoOCore core(cfg, b.build());
    const auto s = runToHalt(core);
    EXPECT_GT(core.mem().dl1().stats().misses,
              static_cast<uint64_t>(kNodes)); // store pass + chase pass
    // Serial chain of mostly-memory misses dominates runtime.
    EXPECT_GT(s.cycles, kNodes * 100u);
}

TEST(Core, BranchMispredictsCostCycles)
{
    // Data-dependent unpredictable branches (pseudo-random via LCG
    // arithmetic) vs perfectly-biased branches of the same count.
    auto loop = [](bool random) {
        ProgramBuilder b;
        b.ldiq(1, 12345)   // lcg state
            .ldiq(2, 1103515245)
            .ldiq(3, 12345)
            .ldiq(4, 512)   // iterations
            .ldiq(5, 1)
            .ldiq(7, 0x10000);
        b.label("top");
        if (random) {
            b.ldiq(9, 33)
                .mulq(1, 1, 2)
                .addq(1, 1, 3)
                .srl(6, 1, 9)       // high LCG bit: unpredictable
                .and_(6, 6, 5)
                .beq(6, "skip")
                .addq(8, 8, 5)
                .label("skip");
        } else {
            b.addq(8, 8, 5).beq(31, "skip").label("skip");
        }
        b.subq(4, 4, 5).bne(4, "top").halt();
        return b.build();
    };
    OoOCore biased(CpuConfig{}, loop(false));
    OoOCore random(CpuConfig{}, loop(true));
    const auto sb = runToHalt(biased);
    const auto sr = runToHalt(random);
    EXPECT_GT(sr.mispredicts, 100u);
    EXPECT_LT(sb.mispredicts, 30u);
    EXPECT_LT(sb.cycles, sr.cycles);
}

TEST(Core, PredictableLoopLowMispredicts)
{
    ProgramBuilder b;
    b.ldiq(1, 2000).ldiq(2, 1);
    b.label("top").subq(1, 1, 2).bne(1, "top").halt();
    OoOCore core(CpuConfig{}, b.build());
    const auto s = runToHalt(core);
    EXPECT_EQ(s.branches, 2000u);
    EXPECT_LT(s.mispredicts, 40u);
}

TEST(Core, GatingFuStallsIssueButPreservesCorrectness)
{
    CpuConfig cfg;
    OoOCore gated(cfg, independentAdds(500));
    OoOCore free(cfg, independentAdds(500));
    // Gate FUs every other 10-cycle window.
    while (!gated.halted() && gated.now() < 100000) {
        gated.setGates({(gated.now() / 10) % 2 == 0, false, false});
        gated.cycle();
    }
    const auto sg = gated.stats();
    const auto sf = runToHalt(free);
    EXPECT_TRUE(gated.halted());
    EXPECT_EQ(sg.committed, sf.committed); // nothing dropped
    EXPECT_GT(sg.cycles, sf.cycles);       // but it cost time
    EXPECT_GT(sg.issueGateStalls, 0u);
}

TEST(Core, GatingIl1StopsFetch)
{
    CpuConfig cfg;
    OoOCore core(cfg, independentAdds(2, 10));
    core.setGates({false, false, true});
    for (int i = 0; i < 50; ++i)
        core.cycle();
    EXPECT_EQ(core.stats().fetched, 0u);
    // Releasing the gate lets the program finish.
    core.setGates({});
    runToHalt(core);
    EXPECT_EQ(core.stats().committed, 3u + 2u * 12u + 1u);
}

TEST(Core, GatingDl1StallsLoads)
{
    ProgramBuilder b;
    b.ldiq(1, 0x2000);
    for (int i = 0; i < 20; ++i)
        b.ldq(2, 1, 8 * i);
    b.halt();
    CpuConfig cfg;
    OoOCore core(cfg, b.build());
    core.setGates({false, true, false});
    for (int i = 0; i < 200; ++i)
        core.cycle();
    EXPECT_EQ(core.mem().dl1().stats().accesses, 0u);
    core.setGates({});
    runToHalt(core);
    EXPECT_EQ(core.stats().loads, 20u);
}

TEST(Core, PhantomDoesNotChangeTiming)
{
    CpuConfig cfg;
    OoOCore plain(cfg, independentAdds(1000));
    OoOCore phantom(cfg, independentAdds(1000));
    phantom.setPhantom({true, true, true});
    const auto sp = runToHalt(plain);
    const auto sh = runToHalt(phantom);
    EXPECT_EQ(sp.cycles, sh.cycles);
    EXPECT_EQ(sp.committed, sh.committed);
}

TEST(Core, ActivityVectorPopulated)
{
    CpuConfig cfg;
    OoOCore core(cfg, independentAdds(500));
    uint64_t fetched = 0, issued = 0, committed = 0;
    while (!core.halted() && core.now() < 10000) {
        const auto &av = core.cycle();
        fetched += av.fetched;
        issued += av.issuedIntAlu + av.issuedIntMult + av.issuedIntDiv +
                  av.issuedFpAdd + av.issuedFpMult + av.issuedFpDiv;
        committed += av.committed;
    }
    EXPECT_EQ(fetched, core.stats().fetched);
    EXPECT_EQ(committed, core.stats().committed);
    EXPECT_GT(issued, 0u);
}

TEST(Core, HaltedStaysHalted)
{
    OoOCore core(CpuConfig{}, independentAdds(10));
    runToHalt(core);
    const auto committed = core.stats().committed;
    core.cycle();
    core.cycle();
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.stats().committed, committed);
}

TEST(Core, RuuNeverExceedsCapacity)
{
    CpuConfig cfg;
    cfg.ruuSize = 16;
    cfg.lsqSize = 8;
    OoOCore core(cfg, independentAdds(2000));
    while (!core.halted() && core.now() < 100000) {
        const auto &av = core.cycle();
        EXPECT_LE(av.ruuOccupancy, cfg.ruuSize);
        EXPECT_LE(av.lsqOccupancy, cfg.lsqSize);
    }
    EXPECT_TRUE(core.halted());
}

TEST(Core, MemoryDependenceOrdering)
{
    // Store then dependent load through a different register path —
    // the load must see the stored value architecturally (checked by
    // the executor) and the pipeline must not deadlock.
    ProgramBuilder b;
    b.ldiq(1, 0x3000)
        .ldiq(2, 7)
        .stq(2, 1, 0)
        .ldq(3, 1, 0)
        .addq(4, 3, 2) // r4 = 14
        .halt();
    OoOCore core(CpuConfig{}, b.build());
    runToHalt(core);
    EXPECT_EQ(core.stats().committed, 6u);
}

/**
 * The first cycle that uses a memory port, in a program where a store's
 * address waits on a divide and a load behind the store has its own
 * address ready: the load finds the unresolved store in the LSQ long
 * before the divide completes, so that cycle is the store's address
 * generation. @p lead adds before the divide put the store in RUU slot
 * 5 + lead, and @p gap adds between the store and the load put the
 * load in slot 6 + lead + gap (mod 256). The whole program must still
 * commit.
 */
ActivityVector
storeIssueCycle(int lead, int gap, unsigned issueLimit)
{
    ProgramBuilder b;
    b.ldiq(10, 3 * 0x3000).ldiq(11, 3).ldiq(12, 0x3000).ldiq(2, 7);
    for (int i = 0; i < lead; ++i)
        b.addq(20 + i % 8, 2, 2);
    b.divq(1, 10, 11); // the store's address, 20 cycles late
    b.stq(2, 1, 0);
    for (int i = 0; i < gap; ++i)
        b.addq(20 + i % 8, 2, 2);
    b.ldq(3, 12, 8); // waits on nothing but the store
    b.halt();
    CpuConfig cfg;
    // Short misses, so the cold I-cache cannot hold the load back
    // until after the divide.
    cfg.l2.latency = 2;
    cfg.memLatency = 2;
    OoOCore core(cfg, b.build());
    core.setIssueLimit(issueLimit);
    ActivityVector av;
    while (core.now() < 5000) {
        av = core.cycle();
        if (av.memPortsUsed > 0)
            break;
    }
    core.setIssueLimit(~0u);
    EXPECT_EQ(runToHalt(core, 20000).committed,
              8u + static_cast<unsigned>(lead + gap));
    return av;
}

TEST(Core, LoadIssuesWithTheStoreThatBlockedIt)
{
    // The store's address generation and the load's access share the
    // cycle: 2 memory ports, one D-cache access (the addresses differ,
    // so nothing forwards), wherever the load sits in the Ready bitmap.
    const struct
    {
        const char *where;
        int lead, gap;
        unsigned issueLimit;
    } cases[] = {
        {"store slot 5, load slot 9 (same word)", 0, 3, ~0u},
        {"store slot 62, load slot 65 (next word)", 57, 2, ~0u},
        {"store slot 253, load slot 2 (RUU wrap)", 248, 4, ~0u},
        {"same word, issue cap 2", 0, 3, 2},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.where);
        const ActivityVector av =
            storeIssueCycle(c.lead, c.gap, c.issueLimit);
        EXPECT_EQ(av.memPortsUsed, 2u);
        EXPECT_EQ(av.dcacheAccesses, 1u);
        EXPECT_EQ(av.lsqForwards, 0u);
    }
}

TEST(Core, BlockedLoadRescansPastAReusedStoreSlot)
{
    // The store waits on a divide; the load behind it finds the
    // unresolved store in the LSQ, leaves the Ready set and waits on
    // it. The store then issues alone (issue cap 1): its issue wakes the
    // load, but the cap leaves no room for it that cycle, and a zero
    // cap holds it while the store commits and a younger load reuses
    // its LSQ slot. The woken load must rescan the LSQ from its own
    // slot and issue; nothing may keep it tied to the store's old slot.
    ProgramBuilder b;
    b.ldiq(1, 0x3000).ldiq(2, 7).ldiq(5, 3);
    b.divq(3, 2, 5);
    b.stq(3, 1, 0);  // the blocking store
    b.ldq(4, 1, 8);  // the blocked load
    b.ldq(6, 1, 16).ldq(7, 1, 24).ldq(8, 1, 32).ldq(9, 1, 40);
    b.halt();
    CpuConfig cfg;
    cfg.lsqSize = 4;
    OoOCore core(cfg, b.build());
    core.setIssueLimit(1);
    // Every load waits on the store, so the first memory-port use is
    // the store's address generation.
    while (core.cycle().memPortsUsed == 0 && core.now() < 5000) {
    }
    core.setIssueLimit(0);
    for (int i = 0; i < 50; ++i)
        core.cycle();
    core.setIssueLimit(~0u);
    EXPECT_EQ(runToHalt(core, 20000).committed, 11u);
}

// ------------------------------------------------------- quiet cycles
//
// A quiet cycle repeats until the first cycle that could differ. These
// pin the cycles at which such a run must end; on a core that runs
// every cycle in full they hold as well.

/** A cycle that did no work (see OoOCore's quiet-cycle rule). */
bool
isQuiet(const ActivityVector &av)
{
    return av.fetched == 0 && av.icacheAccesses == 0 &&
           av.dispatched == 0 && av.issuedIntAlu == 0 &&
           av.issuedIntMult == 0 && av.issuedIntDiv == 0 &&
           av.issuedFpAdd == 0 && av.issuedFpMult == 0 &&
           av.issuedFpDiv == 0 && av.writebacks == 0 &&
           av.committed == 0 && av.memPortsUsed == 0 &&
           av.dcacheAccesses == 0 && av.l2Accesses == 0 &&
           av.regReads == 0 && av.regWrites == 0;
}

TEST(Core, ActuatorCommandEndsAQuietRunOnTime)
{
    // Every iteration loads a new line, which misses to memory, and
    // one add waits on it: the window fills behind the oldest miss and
    // the core idles until it returns, with fetch still live.
    ProgramBuilder b;
    b.ldiq(1, 0x200000).ldiq(2, 64).ldiq(9, 100000).ldiq(8, 1);
    b.label("top");
    b.ldq(3, 1, 0).addq(4, 4, 3).addq(1, 1, 2);
    b.subq(9, 9, 8).bne(9, "top").halt();
    OoOCore core(CpuConfig{}, b.build());

    int quietRun = 0;
    while (quietRun < 8 && core.now() < 20000)
        quietRun = isQuiet(core.cycle()) ? quietRun + 1 : 0;
    ASSERT_EQ(quietRun, 8) << "no memory stall by cycle " << core.now();
    ASSERT_FALSE(core.halted());

    // The gate set before cycle t shows in t's vector, and fetch counts
    // a gated cycle from t on, one per cycle.
    const uint64_t gated0 = core.stats().fetchStallGate;
    core.setGates({false, false, true});
    for (uint64_t k = 1; k <= 40; ++k) {
        if (k == 20)
            core.setPhantom({true, false, false});
        const ActivityVector &av = core.cycle();
        ASSERT_TRUE(av.gates.il1) << "cycle " << k;
        ASSERT_EQ(av.phantom.fu, k >= 20) << "cycle " << k;
        ASSERT_EQ(core.stats().fetchStallGate, gated0 + k)
            << "cycle " << k;
    }

    // Lifting both shows in the next vector; the count stops.
    core.setGates({});
    core.setPhantom({});
    const ActivityVector &av = core.cycle();
    EXPECT_FALSE(av.gates.any());
    EXPECT_FALSE(av.phantom.any());
    EXPECT_EQ(core.stats().fetchStallGate, gated0 + 40);
}

TEST(Core, UnitReleaseEndsAQuietRun)
{
    // Three independent divides on the two unpipelined IntMult/Div
    // units: two issue together, the third when a unit frees, one
    // repeat interval later and one cycle before the first two complete.
    ProgramBuilder b;
    b.ldiq(1, 1000).ldiq(2, 7);
    b.divq(3, 1, 2).divq(4, 1, 2).divq(5, 1, 2);
    b.halt();
    const CpuConfig cfg;
    ASSERT_LT(cfg.intDivRepeat, cfg.intDivLat);
    OoOCore core(cfg, b.build());

    uint64_t firstTwo = 0, third = 0;
    while (!core.halted() && core.now() < 5000) {
        const uint64_t t = core.now();
        const unsigned divs = core.cycle().issuedIntDiv;
        if (divs == 2)
            firstTwo = t;
        else if (divs == 1)
            third = t;
    }
    ASSERT_TRUE(core.halted());
    ASSERT_GT(firstTwo, 0u);
    EXPECT_EQ(third, firstTwo + cfg.intDivRepeat);
    EXPECT_EQ(core.stats().committed, 6u);
}

TEST(Core, MemoryMissWritesBackOnItsCycle)
{
    // A load that misses the D-cache and the L2 completes exactly its
    // chained latency after issue, although nothing else is left to
    // end the quiet cycles in between.
    ProgramBuilder b;
    b.ldiq(1, 0x200000).ldq(2, 1, 0).halt();
    const CpuConfig cfg;
    OoOCore core(cfg, b.build());

    uint64_t issued = 0, wroteBack = 0;
    while (!core.halted() && core.now() < 5000) {
        const uint64_t t = core.now();
        const ActivityVector &av = core.cycle();
        if (av.dcacheMisses > 0)
            issued = t;
        if (issued > 0 && av.regWrites > 0)
            wroteBack = t;
    }
    ASSERT_TRUE(core.halted());
    ASSERT_GT(issued, 0u);
    EXPECT_EQ(wroteBack,
              issued + cfg.dl1.latency + cfg.l2.latency + cfg.memLatency);
    EXPECT_EQ(core.stats().loads, 1u);
}

// ------------------------------------------------- cycle-exact golden

using vguard::JsonWriter;

/** FNV-1a 64 over little-endian 64-bit words. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/** Every ActivityVector field, issueActivity by its bits. */
void
digestActivity(Digest &d, const ActivityVector &av)
{
    for (const uint32_t v :
         {av.fetched, av.icacheAccesses, av.icacheMisses, av.bpredLookups,
          av.dispatched, av.ruuOccupancy, av.lsqOccupancy,
          av.issuedIntAlu, av.issuedIntMult, av.issuedIntDiv,
          av.issuedFpAdd, av.issuedFpMult, av.issuedFpDiv,
          av.busyIntAlu, av.busyIntMultDiv, av.busyFpAlu,
          av.busyFpMultDiv, av.memPortsUsed, av.dcacheAccesses,
          av.dcacheMisses, av.l2Accesses, av.l2Misses, av.lsqForwards,
          av.regReads, av.regWrites, av.writebacks, av.committed,
          std::bit_cast<uint32_t>(av.issueActivity)})
        d.add(v);
    for (const bool b : {av.gates.fu, av.gates.dl1, av.gates.il1,
                         av.phantom.fu, av.phantom.dl1, av.phantom.il1})
        d.add(b);
}

constexpr uint64_t kGoldenCycles = 20'000;
constexpr uint64_t kGoldenCheckpoint = 2'000;

/**
 * One golden line: @p program for kGoldenCycles (or to halt), plain or
 * under @p interference, with the running activity digest
 * checkpointed every kGoldenCheckpoint cycles.
 */
std::string
goldenLine(const std::string &name, const Program &program,
           vguard::fuzz::RandomInterference *interference)
{
    OoOCore core(CpuConfig{}, program);
    Digest d;
    JsonWriter w;
    w.beginObject();
    w.field("workload", name);
    w.field("schedule", interference ? "interfered" : "plain");
    w.key("checkpoints").beginArray();
    while (!core.halted() && core.now() < kGoldenCycles) {
        if (interference)
            interference->apply(core);
        digestActivity(d, core.cycle());
        if (core.now() % kGoldenCheckpoint == 0)
            w.value(d.hex());
    }
    w.endArray();
    w.field("activity", d.hex());

    const CoreStats &s = core.stats();
    w.key("stats").beginObject();
    w.field("cycles", s.cycles).field("fetched", s.fetched);
    w.field("dispatched", s.dispatched).field("issued", s.issued);
    w.field("committed", s.committed).field("loads", s.loads);
    w.field("stores", s.stores).field("branches", s.branches);
    w.field("mispredicts", s.mispredicts);
    w.field("lsqForwards", s.lsqForwards);
    w.field("fetchStallBranch", s.fetchStallBranch);
    w.field("fetchStallIcache", s.fetchStallIcache);
    w.field("fetchStallGate", s.fetchStallGate);
    w.field("dispatchStallWindow", s.dispatchStallWindow);
    w.field("issueGateStalls", s.issueGateStalls);
    w.field("commitGateStalls", s.commitGateStalls);
    w.endObject();

    const BpredStats &b = core.bpredStats();
    w.key("bpred").beginObject();
    w.field("lookups", b.lookups).field("condBranches", b.condBranches);
    w.field("condMispredicts", b.condMispredicts);
    w.field("btbMisses", b.btbMisses);
    w.field("rasMispredicts", b.rasMispredicts);
    w.endObject();
    w.endObject();
    return w.take() + "\n";
}

/**
 * Cycle-exact pin of the whole pipeline over the calibrated
 * stressmark, the power virus, the busy kernel, the SPEC-8 proxies and
 * one random fuzz program, each plain and under random actuator
 * interference. End-of-run counters can hide a reordered issue; a
 * digest of every cycle's activity cannot. Regenerate deliberately
 * with
 *   VGUARD_UPDATE_GOLDEN=1 ./tests/test_cpu \
 *       --gtest_filter=Core.CycleExactActivityGolden
 * and commit the diff with justification.
 */
TEST(Core, CycleExactActivityGolden)
{
    const auto cal =
        vguard::workloads::StressmarkBuilder::calibrate(60, CpuConfig{});
    char stressName[64];
    std::snprintf(stressName, sizeof(stressName),
                  "stressmark(div=%u,stores=%u,alu=%u)",
                  cal.params.divChain, cal.params.burstStores,
                  cal.params.burstAlu);

    std::vector<std::pair<std::string, Program>> programs;
    programs.emplace_back(
        stressName,
        vguard::workloads::StressmarkBuilder::build(cal.params));
    programs.emplace_back("powerVirus", vguard::workloads::powerVirus());
    programs.emplace_back("busyKernel", vguard::workloads::busyKernel());
    for (const std::string &name : vguard::workloads::emergencySetNames())
        programs.emplace_back(name,
                              vguard::workloads::buildSpecProxy(name));
    programs.emplace_back("random(seed=185)",
                          vguard::fuzz::randomProgram(185));

    std::string actual;
    for (size_t i = 0; i < programs.size(); ++i) {
        const auto &[name, program] = programs[i];
        vguard::fuzz::RandomInterference interference(0xabcdef + i);
        actual += goldenLine(name, program, nullptr);
        actual += goldenLine(name, program, &interference);
    }

    const std::string goldenPath =
        std::string(VGUARD_GOLDEN_DIR) + "/core_activity.jsonl";
    if (std::getenv("VGUARD_UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath;
        out << actual;
        GTEST_SKIP() << "golden updated: " << goldenPath;
    }

    std::ifstream in(goldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << goldenPath
        << " — generate with VGUARD_UPDATE_GOLDEN=1";
    std::stringstream buf;
    buf << in.rdbuf();
    std::istringstream ea(buf.str()), aa(actual);
    std::string el, al;
    int line = 1;
    while (std::getline(ea, el) && std::getline(aa, al)) {
        EXPECT_EQ(el, al) << "golden mismatch at line " << line;
        ++line;
    }
    EXPECT_EQ(buf.str().size(), actual.size()) << "golden length";
}

} // namespace
