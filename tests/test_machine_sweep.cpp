/**
 * @file
 * Machine-configuration property sweeps: the pipeline must stay
 * correct and behave monotonically as Table-1 parameters scale
 * (width, window size, cache latency, branch penalty).
 */

#include <tuple>

#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "isa/program.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"

namespace {

using namespace vguard;
using namespace vguard::cpu;

uint64_t
cyclesToHalt(const CpuConfig &cfg, const isa::Program &p,
             uint64_t guard = 10'000'000)
{
    OoOCore core(cfg, p);
    while (!core.halted() && core.now() < guard)
        core.cycle();
    EXPECT_TRUE(core.halted());
    return core.stats().cycles;
}

class WidthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WidthSweep, CorrectAtAnyWidth)
{
    CpuConfig cfg;
    cfg.fetchWidth = GetParam();
    cfg.decodeWidth = GetParam();
    cfg.issueWidth = GetParam();
    cfg.commitWidth = GetParam();
    const auto p = workloads::busyKernel(300);
    OoOCore core(cfg, p);
    while (!core.halted() && core.now() < 10'000'000)
        core.cycle();
    ASSERT_TRUE(core.halted());
    // Same committed count regardless of width.
    OoOCore ref(CpuConfig{}, p);
    while (!ref.halted())
        ref.cycle();
    EXPECT_EQ(core.stats().committed, ref.stats().committed);
    EXPECT_LE(core.stats().ipc(), GetParam() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(MachineSweep, WiderIsNotSlower)
{
    const auto p = workloads::busyKernel(400);
    CpuConfig narrow;
    narrow.fetchWidth = narrow.decodeWidth = narrow.issueWidth =
        narrow.commitWidth = 2;
    CpuConfig wide; // default 8-wide
    EXPECT_GE(cyclesToHalt(narrow, p), cyclesToHalt(wide, p));
}

TEST(MachineSweep, BiggerWindowIsNotSlower)
{
    const auto p = workloads::buildSpecProxy(
        workloads::specProfile("swim"), 7, 150);
    CpuConfig small;
    small.ruuSize = 32;
    small.lsqSize = 16;
    CpuConfig big; // 256/128
    EXPECT_GE(cyclesToHalt(small, p), cyclesToHalt(big, p));
}

TEST(MachineSweep, SlowerMemoryIsSlower)
{
    const auto p = workloads::streamKernel(512.0, 300);
    CpuConfig fast;
    fast.memLatency = 100;
    CpuConfig slow;
    slow.memLatency = 500;
    EXPECT_GT(cyclesToHalt(slow, p), cyclesToHalt(fast, p));
}

TEST(MachineSweep, BiggerBranchPenaltyIsSlower)
{
    // A mispredict-heavy proxy feels the refill penalty directly.
    const auto p =
        workloads::buildSpecProxy(workloads::specProfile("gcc"), 3, 400);
    CpuConfig cheap;
    cheap.branchPenalty = 2;
    CpuConfig dear;
    dear.branchPenalty = 20;
    EXPECT_GT(cyclesToHalt(dear, p), cyclesToHalt(cheap, p));
}

TEST(MachineSweep, SmallerCachesMissMore)
{
    // 32 KB footprint, walked ~4 times: resident in the 64 KB L1 but
    // thrashing a 4 KB one.
    const auto p = workloads::streamKernel(32.0, 2000);
    CpuConfig big;
    CpuConfig tiny;
    tiny.dl1.sizeBytes = 4 * 1024;
    OoOCore a(big, p), b(tiny, p);
    while (!a.halted())
        a.cycle();
    while (!b.halted())
        b.cycle();
    EXPECT_GT(b.mem().dl1().stats().misses,
              a.mem().dl1().stats().misses);
}

TEST(MachineSweep, RejectsDegenerateConfigs)
{
    CpuConfig bad;
    bad.ruuSize = 0;
    EXPECT_EXIT(OoOCore(bad, workloads::busyKernel(1)),
                ::testing::ExitedWithCode(1), "RUU");
    CpuConfig badMem;
    badMem.memLatency = 100000; // exceeds the event wheel
    EXPECT_EXIT(OoOCore(badMem, workloads::busyKernel(1)),
                ::testing::ExitedWithCode(1), "wheel");

    // Queue sizes are checked before any storage is sized from them
    // (a 4 G-entry RUU must not reach the allocator), and the LSQ and
    // IFQ must fit their uint16_t indices like the RUU.
    CpuConfig hugeRuu;
    hugeRuu.ruuSize = 0xffffffff;
    EXPECT_EXIT(OoOCore(hugeRuu, workloads::busyKernel(1)),
                ::testing::ExitedWithCode(1), "RUU size .* out of range");
    CpuConfig hugeLsq;
    hugeLsq.lsqSize = 0x10000;
    EXPECT_EXIT(OoOCore(hugeLsq, workloads::busyKernel(1)),
                ::testing::ExitedWithCode(1), "LSQ size .* out of range");
    CpuConfig hugeIfq;
    hugeIfq.ifqSize = 0x10000;
    EXPECT_EXIT(OoOCore(hugeIfq, workloads::busyKernel(1)),
                ::testing::ExitedWithCode(1), "IFQ size .* out of range");

    // A zero-width stage would never drain the pipeline.
    for (unsigned CpuConfig::*width :
         {&CpuConfig::fetchWidth, &CpuConfig::decodeWidth,
          &CpuConfig::issueWidth, &CpuConfig::commitWidth}) {
        CpuConfig zero;
        zero.*width = 0;
        EXPECT_EXIT(OoOCore(zero, workloads::busyKernel(1)),
                    ::testing::ExitedWithCode(1), "width");
    }
}

} // namespace
