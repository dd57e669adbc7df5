/**
 * @file
 * Unit tests for the Wattch-style power model: gating/phantom effects,
 * activity scaling, min/max bounds and integration with the core.
 */

#include <limits>

#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "isa/program.hpp"
#include "power/wattch.hpp"

namespace {

using namespace vguard;
using namespace vguard::power;
using cpu::ActivityVector;
using cpu::CpuConfig;

WattchModel
model()
{
    return WattchModel(PowerConfig{}, CpuConfig{});
}

ActivityVector
busyVector(const CpuConfig &cfg)
{
    ActivityVector av;
    av.fetched = cfg.fetchWidth;
    av.bpredLookups = 2;
    av.dispatched = cfg.decodeWidth;
    av.ruuOccupancy = cfg.ruuSize / 2;
    av.lsqOccupancy = cfg.lsqSize / 2;
    av.busyIntAlu = cfg.numIntAlu;
    av.busyFpAlu = cfg.numFpAlu;
    av.memPortsUsed = cfg.numMemPorts;
    av.dcacheAccesses = cfg.numMemPorts;
    av.regReads = 16;
    av.regWrites = 8;
    av.writebacks = cfg.issueWidth;
    av.committed = cfg.commitWidth;
    av.issueActivity = 0.8f;
    return av;
}

TEST(Wattch, IdlePowerIsSmallButNonzero)
{
    auto m = model();
    const double idle = m.power(ActivityVector{});
    EXPECT_GT(idle, 1.0);
    EXPECT_LT(idle, 0.35 * m.maxPower());
}

TEST(Wattch, BusyBeatsIdle)
{
    auto m = model();
    const CpuConfig cfg;
    EXPECT_GT(m.power(busyVector(cfg)), 3.0 * m.power(ActivityVector{}));
}

TEST(Wattch, GatingCutsPower)
{
    auto m = model();
    const CpuConfig cfg;
    ActivityVector av = busyVector(cfg);
    const double free = m.power(av);
    av.gates = {true, true, true};
    // Gated structures ignore activity.
    const double gated = m.power(av);
    EXPECT_LT(gated, 0.5 * free);
}

TEST(Wattch, GatedFloorBelowIdle)
{
    auto m = model();
    ActivityVector av;
    av.gates = {true, true, true};
    EXPECT_LT(m.power(av), m.power(ActivityVector{}));
}

TEST(Wattch, PhantomRaisesToMax)
{
    auto m = model();
    ActivityVector av; // idle otherwise
    av.phantom = {true, true, true};
    const double ph = m.power(av);
    EXPECT_GT(ph, 0.6 * m.maxPower());
    EXPECT_LE(ph, m.maxPower() + 1e-9);
}

TEST(Wattch, MinMaxBracketEverything)
{
    auto m = model();
    const CpuConfig cfg;
    const double lo = m.minPower();
    const double hi = m.maxPower();
    EXPECT_LT(lo, hi);
    for (const auto &av :
         {ActivityVector{}, busyVector(cfg)}) {
        const double p = m.power(av);
        EXPECT_GE(p, lo - 1e-9);
        EXPECT_LE(p, hi + 1e-9);
    }
}

TEST(Wattch, CurrentIsPowerOverVdd)
{
    auto m = model();
    const CpuConfig cfg;
    const auto av = busyVector(cfg);
    EXPECT_NEAR(m.current(av), m.power(av) / 1.0, 1e-12);
}

TEST(Wattch, SwitchingActivityMatters)
{
    auto m = model();
    const CpuConfig cfg;
    ActivityVector quiet = busyVector(cfg);
    quiet.issueActivity = 0.0f;
    ActivityVector noisy = busyVector(cfg);
    noisy.issueActivity = 1.0f;
    EXPECT_GT(m.power(noisy), 1.15 * m.power(quiet));
}

TEST(Wattch, BreakdownSumsToTotal)
{
    auto m = model();
    const CpuConfig cfg;
    const double total = m.power(busyVector(cfg));
    double sum = 0.0;
    for (double p : m.lastBreakdown())
        sum += p;
    EXPECT_NEAR(sum, total, 1e-9);
}

TEST(Wattch, UnitNamesDistinct)
{
    EXPECT_STREQ(unitName(Unit::Fetch), "fetch");
    EXPECT_STRNE(unitName(Unit::Dl1), unitName(Unit::L2));
}

TEST(Wattch, ClockTracksGating)
{
    auto m = model();
    ActivityVector av;
    m.power(av);
    const double clockFree =
        m.lastBreakdown()[static_cast<size_t>(Unit::Clock)];
    av.gates = {true, true, true};
    m.power(av);
    const double clockGated =
        m.lastBreakdown()[static_cast<size_t>(Unit::Clock)];
    EXPECT_LT(clockGated, clockFree);
    EXPECT_GT(clockGated, 0.2 * clockFree); // fixed trunk remains
}

TEST(Wattch, RejectsBadVdd)
{
    PowerConfig pc;
    pc.vdd = 0.0;
    EXPECT_EXIT(WattchModel(pc, CpuConfig{}),
                ::testing::ExitedWithCode(1), "vdd");
}

// NaN passes `vdd <= 0` and `pMax < 0` and would only surface as NaN
// currents.
TEST(WattchDeathTest, RejectsNonFiniteConfig)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    PowerConfig pc;
    pc.vdd = nan;
    EXPECT_DEATH(WattchModel(pc, CpuConfig{}), "check failed");
    pc = PowerConfig{};
    pc.pMax[3] = nan;
    EXPECT_DEATH(WattchModel(pc, CpuConfig{}), "check failed");
    pc = PowerConfig{};
    pc.gatedFrac = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(WattchModel(pc, CpuConfig{}), "check failed");
}

// Integration: run a real program and check the current trace spans a
// meaningful dynamic range — the raw material of the dI/dt problem.
TEST(Wattch, CoreIntegrationDynamicRange)
{
    isa::ProgramBuilder b;
    b.ldit(1, 1.0).ldit(2, 3.0).ldiq(5, 200).ldiq(6, 1).ldiq(7, 0x8000);
    b.label("top");
    // Low-power phase: dependent divides.
    b.divt(3, 1, 2).divt(3, 3, 2).divt(3, 3, 2);
    // High-power phase: independent work.
    for (int i = 0; i < 12; ++i)
        b.addq(8 + (i % 8), 6, 5);
    b.stt(3, 7, 0).ldt(4, 7, 0);
    b.subq(5, 5, 6).bne(5, "top");
    b.halt();

    cpu::OoOCore core(CpuConfig{}, b.build());
    auto m = model();
    double lo = 1e99, hi = 0.0;
    while (!core.halted() && core.now() < 100000) {
        const double amps = m.current(core.cycle());
        lo = std::min(lo, amps);
        hi = std::max(hi, amps);
    }
    EXPECT_TRUE(core.halted());
    EXPECT_GT(hi, 2.0 * lo); // real current swing
    EXPECT_GE(lo, m.minCurrent() - 1e-9);
    EXPECT_LE(hi, m.maxCurrent() + 1e-9);
}

} // namespace
