/**
 * @file
 * Unit tests for the Wattch-style power model: gating/phantom effects,
 * activity scaling, min/max bounds and integration with the core.
 */

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "isa/program.hpp"
#include "power/wattch.hpp"
#include "util/rng.hpp"

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

/** A random vector: counts within the core's widths, random flags. */
ActivityVector
randomVector(uint64_t seed, const CpuConfig &cfg)
{
    Rng rng(seed);
    auto upTo = [&](unsigned n) {
        return static_cast<uint32_t>(rng.below(uint64_t{n} + 1));
    };
    ActivityVector av;
    av.fetched = upTo(cfg.fetchWidth);
    av.icacheAccesses = upTo(1);
    av.bpredLookups = upTo(cfg.fetchWidth);
    av.dispatched = upTo(cfg.decodeWidth);
    av.ruuOccupancy = upTo(cfg.ruuSize);
    av.lsqOccupancy = upTo(cfg.lsqSize);
    av.issuedIntAlu = upTo(cfg.numIntAlu);
    av.busyIntAlu = upTo(cfg.numIntAlu);
    av.busyIntMultDiv = upTo(cfg.numIntMultDiv);
    av.busyFpAlu = upTo(cfg.numFpAlu);
    av.busyFpMultDiv = upTo(cfg.numFpMultDiv);
    av.memPortsUsed = upTo(cfg.numMemPorts);
    av.dcacheAccesses = upTo(cfg.numMemPorts);
    av.l2Accesses = upTo(2);
    av.regReads = upTo(2 * cfg.issueWidth);
    av.regWrites = upTo(cfg.issueWidth);
    av.writebacks = upTo(cfg.issueWidth);
    av.committed = upTo(cfg.commitWidth);
    av.issueActivity = static_cast<float>(rng.uniform());
    av.gates = {rng.chance(0.2), rng.chance(0.2), rng.chance(0.2)};
    av.phantom = {rng.chance(0.2), rng.chance(0.2), rng.chance(0.2)};
    return av;
}

/**
 * A model reuses the last call's power for an equal vector. Over a
 * seeded sequence of runs of equal vectors, vectors rebuilt equal from
 * scratch and vectors that differ from the last in issueActivity alone
 * or in one gate or phantom bit alone, every current and the energy
 * sums must equal, bit for bit, those of a fresh model per cycle
 * (which has nothing to reuse), summed here in cycle order.
 */
TEST(Wattch, RepeatedVectorsMatchAFreshModelBitForBit)
{
    const CpuConfig cfg;
    Rng rng(0x5eed);
    std::vector<ActivityVector> seq;
    uint64_t seed = rng.next();
    seq.push_back(randomVector(seed, cfg));
    while (seq.size() < 5000) {
        ActivityVector av = seq.back();
        switch (rng.below(6)) {
          case 0: // a new vector
            seed = rng.next();
            av = randomVector(seed, cfg);
            break;
          case 1: // a run of copies
            for (uint64_t n = rng.below(40); n > 0; --n)
                seq.push_back(av);
            break;
          case 2: // the last vector rebuilt from its seed
            av = randomVector(seed, cfg);
            break;
          case 3:
            av.issueActivity = static_cast<float>(rng.uniform());
            break;
          case 4: {
            bool *gate[] = {&av.gates.fu, &av.gates.dl1, &av.gates.il1};
            bool &bit = *gate[rng.below(3)];
            bit = !bit;
            break;
          }
          default: {
            bool *fire[] = {&av.phantom.fu, &av.phantom.dl1,
                            &av.phantom.il1};
            bool &bit = *fire[rng.below(3)];
            bit = !bit;
            break;
          }
        }
        seq.push_back(av);
    }

    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    WattchModel perCycle = model();
    WattchModel block = model();
    std::vector<double> blockAmps(seq.size());
    block.currentBlock(seq.data(), seq.size(), blockAmps.data());
    std::array<double, kNumUnits> refSums{};
    for (size_t k = 0; k < seq.size(); ++k) {
        WattchModel fresh = model();
        const double ref = fresh.current(seq[k]);
        for (size_t u = 0; u < kNumUnits; ++u)
            refSums[u] += fresh.lastBreakdown()[u];
        ASSERT_EQ(bits(perCycle.current(seq[k])), bits(ref))
            << "cycle " << k;
        ASSERT_EQ(bits(blockAmps[k]), bits(ref)) << "cycle " << k;
    }
    for (size_t u = 0; u < kNumUnits; ++u) {
        EXPECT_EQ(bits(perCycle.wattCycles()[u]), bits(refSums[u]))
            << unitName(static_cast<Unit>(u));
        EXPECT_EQ(bits(block.wattCycles()[u]), bits(refSums[u]))
            << unitName(static_cast<Unit>(u));
    }
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
