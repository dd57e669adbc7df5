/**
 * @file
 * Tests for src/workloads: stressmark structure and calibration, SPEC
 * proxy generation, and the canonical kernels.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "power/wattch.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

namespace {

using namespace vguard;
using namespace vguard::workloads;

// Mean current of the steady (warm) half of a bounded run.
double
steadyMeanCurrent(const isa::Program &prog, uint64_t cycles = 30000)
{
    cpu::CpuConfig cfg;
    cpu::OoOCore core(cfg, prog);
    power::WattchModel pm(power::PowerConfig{}, cfg);
    double sum = 0.0;
    uint64_t n = 0;
    while (core.now() < cycles && !core.halted()) {
        const double amps = pm.current(core.cycle());
        if (core.now() > cycles / 2) {
            sum += amps;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

TEST(Stressmark, BuildsRunnableLoop)
{
    StressmarkParams p;
    p.iterations = 50;
    cpu::OoOCore core(cpu::CpuConfig{}, StressmarkBuilder::build(p));
    while (!core.halted() && core.now() < 100000)
        core.cycle();
    EXPECT_TRUE(core.halted());
    EXPECT_GE(core.stats().branches, 50u);
}

TEST(Stressmark, RejectsZeroDivChain)
{
    StressmarkParams p;
    p.divChain = 0;
    EXPECT_EXIT(StressmarkBuilder::build(p),
                ::testing::ExitedWithCode(1), "divChain");
}

TEST(Stressmark, PeriodGrowsWithDivChain)
{
    cpu::CpuConfig cfg;
    StressmarkParams small;
    small.divChain = 1;
    small.burstAlu = 80;
    StressmarkParams big = small;
    big.divChain = 4;
    const double ps = StressmarkBuilder::measurePeriod(small, cfg);
    const double pb = StressmarkBuilder::measurePeriod(big, cfg);
    EXPECT_GT(pb, ps + 2.0 * cfg.fpDivLat);
}

TEST(Stressmark, PeriodGrowsWithBurst)
{
    cpu::CpuConfig cfg;
    StressmarkParams small;
    small.burstAlu = 60;
    StressmarkParams big = small;
    big.burstAlu = 240;
    EXPECT_GT(StressmarkBuilder::measurePeriod(big, cfg),
              StressmarkBuilder::measurePeriod(small, cfg) + 10.0);
}

TEST(Stressmark, CalibrationHitsTargetPeriod)
{
    cpu::CpuConfig cfg;
    const auto cal = StressmarkBuilder::calibrate(60, cfg);
    EXPECT_NEAR(cal.measuredPeriodCycles, 60.0, 5.0);
    // The phases must differ substantially in current.
    EXPECT_GT(cal.highPhaseCurrentA, 1.7 * cal.lowPhaseCurrentA);
}

TEST(Stressmark, CalibrationIsPinned)
{
    // The grid's periods are measured in parallel, but the argmin runs
    // serially in grid order, so the winner and its phase currents are
    // exactly those of the serial search, bit for bit.
    const auto cal = StressmarkBuilder::calibrate(60, cpu::CpuConfig{});
    EXPECT_EQ(cal.params.divChain, 2u);
    EXPECT_EQ(cal.params.burstStores, 16u);
    EXPECT_EQ(cal.params.burstAlu, 225u);
    EXPECT_EQ(std::bit_cast<uint64_t>(cal.measuredPeriodCycles),
              std::bit_cast<uint64_t>(60.06006006006006));
    EXPECT_EQ(std::bit_cast<uint64_t>(cal.lowPhaseCurrentA),
              std::bit_cast<uint64_t>(14.488418636602539));
    EXPECT_EQ(std::bit_cast<uint64_t>(cal.highPhaseCurrentA),
              std::bit_cast<uint64_t>(34.25743728743992));
}

TEST(Stressmark, PhaseSeparationSurvivesOoO)
{
    // The gated burst must keep quiet/busy phases distinct even with a
    // 256-entry window: the per-cycle current trace should spend real
    // time both below and above its mean.
    StressmarkParams p;
    p.divChain = 2;
    p.burstStores = 16;
    p.burstAlu = 200;
    cpu::CpuConfig cfg;
    cpu::OoOCore core(cfg, StressmarkBuilder::build(p));
    power::WattchModel pm(power::PowerConfig{}, cfg);
    for (int i = 0; i < 30000; ++i)
        core.cycle(); // warm
    unsigned low = 0, high = 0, total = 0;
    for (int i = 0; i < 3000; ++i) {
        const double amps = pm.current(core.cycle());
        low += amps < 18.0;
        high += amps > 30.0;
        ++total;
    }
    EXPECT_GT(low, total / 5u);
    EXPECT_GT(high, total / 5u);
}

TEST(SpecProxy, AllBenchmarksPresent)
{
    const auto &names = specBenchmarkNames();
    EXPECT_EQ(names.size(), 26u); // 12 SPECint + 14 SPECfp
    const std::set<std::string> set(names.begin(), names.end());
    EXPECT_EQ(set.size(), 26u);   // no duplicates
    EXPECT_TRUE(set.count("gzip"));
    EXPECT_TRUE(set.count("ammp"));
    EXPECT_TRUE(set.count("sixtrack"));
}

TEST(SpecProxy, EmergencySetIsSubset)
{
    const auto &all = specBenchmarkNames();
    const std::set<std::string> set(all.begin(), all.end());
    EXPECT_EQ(emergencySetNames().size(), 8u);
    for (const auto &name : emergencySetNames())
        EXPECT_TRUE(set.count(name)) << name;
}

TEST(SpecProxy, UnknownNameFatal)
{
    EXPECT_EXIT(specProfile("quake3"), ::testing::ExitedWithCode(1),
                "unknown");
}

TEST(SpecProxy, ProfilesMatchPaperCharacterisation)
{
    // ammp: poor cache, many stalls, low IPC, stable voltage.
    const auto &ammp = specProfile("ammp");
    EXPECT_GT(ammp.workingSetKB, 8192.0);
    EXPECT_GT(ammp.stallLoads, 0u);
    EXPECT_LT(ammp.phaseContrast, 0.3);
    // galgel: widest variation.
    const auto &galgel = specProfile("galgel");
    EXPECT_GT(galgel.phaseContrast, 0.7);
}

TEST(SpecProxy, GeneratedProgramsRun)
{
    for (const char *name : {"gzip", "ammp", "galgel", "gcc", "eon"}) {
        cpu::CpuConfig cfg;
        cpu::OoOCore core(cfg, buildSpecProxy(name));
        for (int i = 0; i < 20000; ++i)
            core.cycle();
        EXPECT_FALSE(core.halted()) << name;   // effectively infinite
        EXPECT_GT(core.stats().committed, 500u) << name;
    }
}

TEST(SpecProxy, DeterministicGeneration)
{
    const auto a = buildSpecProxy("vpr");
    const auto b = buildSpecProxy("vpr");
    ASSERT_EQ(a.size(), b.size());
    for (uint32_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).op, b.at(i).op) << i;
        EXPECT_EQ(a.at(i).rd, b.at(i).rd) << i;
    }
}

TEST(SpecProxy, SeedsChangeInstructionMix)
{
    const auto &p = specProfile("gzip");
    const auto a = buildSpecProxy(p, 1);
    const auto b = buildSpecProxy(p, 2);
    bool differs = a.size() != b.size();
    for (uint32_t i = 0; !differs && i < a.size(); ++i)
        differs = a.at(i).op != b.at(i).op;
    EXPECT_TRUE(differs);
}

TEST(SpecProxy, MemoryBoundHasLowIpc)
{
    cpu::CpuConfig cfg;
    cpu::OoOCore mem(cfg, buildSpecProxy("ammp"));
    cpu::OoOCore cpu(cfg, buildSpecProxy("crafty"));
    for (int i = 0; i < 60000; ++i) {
        mem.cycle();
        cpu.cycle();
    }
    EXPECT_LT(mem.stats().ipc(), 0.4 * cpu.stats().ipc());
}

TEST(SpecProxy, MispredictRatesFollowProfile)
{
    cpu::CpuConfig cfg;
    cpu::OoOCore branchy(cfg, buildSpecProxy("gcc"));
    cpu::OoOCore straight(cfg, buildSpecProxy("swim"));
    for (int i = 0; i < 60000; ++i) {
        branchy.cycle();
        straight.cycle();
    }
    const double rBranchy = branchy.bpredStats().condMispredictRate();
    const double rStraight = straight.bpredStats().condMispredictRate();
    EXPECT_GT(rBranchy, rStraight);
    EXPECT_GT(rBranchy, 0.01);
}

TEST(SpecProxy, CallHeavyUsesRas)
{
    cpu::CpuConfig cfg;
    cpu::OoOCore core(cfg, buildSpecProxy("eon"));
    for (int i = 0; i < 30000; ++i)
        core.cycle();
    EXPECT_GT(core.stats().branches, 100u);
    EXPECT_LT(core.bpredStats().rasMispredicts, 5u); // RAS works
}

TEST(Kernels, CurrentOrdering)
{
    // busy > stream > stall in steady current.
    const double busy = steadyMeanCurrent(busyKernel());
    const double stall = steadyMeanCurrent(stallKernel());
    const double virus = steadyMeanCurrent(powerVirus());
    EXPECT_GT(busy, 1.5 * stall);
    EXPECT_GE(virus, busy * 0.95);
}

TEST(Kernels, VirusApproachesModelMax)
{
    cpu::CpuConfig cfg;
    power::WattchModel pm(power::PowerConfig{}, cfg);
    const double virus = steadyMeanCurrent(powerVirus());
    EXPECT_GT(virus, 0.45 * pm.maxCurrent());
    EXPECT_LT(virus, pm.maxCurrent());
}

TEST(Kernels, StreamTouchesItsFootprint)
{
    cpu::CpuConfig cfg;
    cpu::OoOCore core(cfg, streamKernel(256.0));
    for (int i = 0; i < 60000; ++i)
        core.cycle();
    // 256 KB footprint streams through the 64 KB L1: sustained misses.
    EXPECT_GT(core.mem().dl1().stats().misses, 200u);
}

TEST(Kernels, PhasedKernelOscillates)
{
    cpu::CpuConfig cfg;
    cpu::OoOCore core(cfg, phasedKernel(40));
    power::WattchModel pm(power::PowerConfig{}, cfg);
    for (int i = 0; i < 30000; ++i)
        core.cycle();
    double lo = 1e9, hi = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double amps = pm.current(core.cycle());
        lo = std::min(lo, amps);
        hi = std::max(hi, amps);
    }
    EXPECT_GT(hi, 1.6 * lo);
}

TEST(Kernels, PhasedKernelRejectsTinyPhase)
{
    EXPECT_EXIT(phasedKernel(2), ::testing::ExitedWithCode(1), "");
}

} // namespace
