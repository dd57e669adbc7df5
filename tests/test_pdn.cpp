/**
 * @file
 * Unit, integration and property tests for src/pdn: package design,
 * impedance analysis, discrete simulation, impulse/convolution
 * equivalence, target-impedance calibration and the ITRS data.
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "linsys/worst_case.hpp"
#include "pdn/impulse.hpp"
#include "pdn/itrs.hpp"
#include "pdn/package_model.hpp"
#include "pdn/pdn_sim.hpp"
#include "pdn/target_impedance.hpp"
#include "util/rng.hpp"

// Counts allocations for the "allocation-free after warm-up" guard
// below: the batch helpers (PdnSim::stepMany /
// DiscreteStateSpaceN::stepBlock2) sit inside per-cycle simulation
// loops.
#include "alloc_count.hpp"

namespace {

using namespace vguard::pdn;

PackageModel
reference()
{
    // Paper-style package: 50 MHz resonance, 1 mΩ peak, 0.5 mΩ DC.
    return PackageModel::design(50e6, 1e-3);
}

TEST(PackageDesign, DcResistance)
{
    const auto m = reference();
    EXPECT_NEAR(m.impedanceMag(0.0), 0.5e-3, 1e-9);
    EXPECT_NEAR(m.impedanceMag(1.0), 0.5e-3, 1e-7); // ~DC at 1 Hz
}

TEST(PackageDesign, HitsRequestedPeak)
{
    const auto m = reference();
    EXPECT_NEAR(m.peakImpedance(), 1e-3, 1e-3 * 1e-4);
}

TEST(PackageDesign, HitsRequestedResonance)
{
    const auto m = reference();
    EXPECT_NEAR(m.resonantFrequencyHz(), 50e6, 50e6 * 0.10);
    EXPECT_NEAR(m.naturalFrequencyHz(), 50e6, 50e6 * 1e-9);
}

TEST(PackageDesign, ResonantPeriodCycles)
{
    const auto m = reference();
    // 3 GHz / ~50 MHz = ~60 cycles (the paper's stressmark period).
    EXPECT_NEAR(m.resonantPeriodCycles(), 60u, 6u);
}

TEST(PackageDesign, ImpedanceFallsOffResonance)
{
    const auto m = reference();
    const double peak = m.peakImpedance();
    EXPECT_LT(m.impedanceMag(5e6), peak);
    EXPECT_LT(m.impedanceMag(500e6), peak);
}

TEST(PackageDesign, RejectsPeakBelowDc)
{
    EXPECT_EXIT(PackageModel::design(50e6, 0.1e-3, 0.5e-3),
                ::testing::ExitedWithCode(1), "exceed");
}

TEST(PackageDesign, QualityFactorGrowsWithPeak)
{
    const auto cheap = PackageModel::design(50e6, 4e-3);
    const auto good = PackageModel::design(50e6, 1e-3);
    EXPECT_GT(cheap.qualityFactor(), good.qualityFactor());
}

TEST(PackageDesign, PaperReferenceScales)
{
    const auto base = PackageModel::paperReference(1e-3, 1.0);
    const auto x2 = PackageModel::paperReference(1e-3, 2.0);
    EXPECT_NEAR(x2.peakImpedance(), 2.0 * base.peakImpedance(),
                0.01 * base.peakImpedance());
}

TEST(PackageModel, StateSpaceDcConsistency)
{
    const auto m = reference();
    // At DC with I = 10 A: v_die = Vdd - R_s * I.
    auto sim = PdnSim(m);
    sim.trimToCurrent(0.0);
    double v = 0.0;
    for (int i = 0; i < 200000; ++i)
        v = sim.step(10.0);
    EXPECT_NEAR(v, 1.0 - 0.5e-3 * 10.0, 1e-9);
}

TEST(PdnSim, TrimSetsOperatingPoint)
{
    PdnSim sim(reference());
    sim.trimToCurrent(8.0);
    // Holding the trim current, the voltage must stay at nominal.
    for (int i = 0; i < 1000; ++i)
        EXPECT_NEAR(sim.step(8.0), 1.0, 1e-9);
    EXPECT_NEAR(sim.vddSetPoint(), 1.0 + 0.5e-3 * 8.0, 1e-12);
}

TEST(PdnSim, StepUpDipsVoltage)
{
    PdnSim sim(reference());
    sim.trimToCurrent(5.0);
    double vmin = 1.0;
    // Long enough for the bulk-capacitor pole to develop the full DC
    // drop (the resonance rings early around the shallower package-
    // loop level, so the approach to DC is from above).
    for (int i = 0; i < 5000; ++i)
        vmin = std::min(vmin, sim.step(50.0));
    EXPECT_LE(vmin, 1.0 - 0.5e-3 * 45.0 + 1e-4); // reaches the DC drop
    EXPECT_LT(vmin, 0.98);
}

TEST(PdnSim, StepDownRaisesVoltage)
{
    PdnSim sim(reference());
    sim.trimToCurrent(50.0);
    double vmax = 0.0;
    for (int i = 0; i < 500; ++i)
        vmax = std::max(vmax, sim.step(5.0));
    EXPECT_GT(vmax, 1.0); // voltage-high overshoot
}

TEST(PdnSim, ResetRestoresTrimState)
{
    PdnSim sim(reference());
    sim.trimToCurrent(5.0);
    for (int i = 0; i < 100; ++i)
        sim.step(40.0);
    sim.reset();
    EXPECT_NEAR(sim.step(5.0), 1.0, 1e-9);
}

TEST(PdnSim, RunMatchesStep)
{
    PdnSim a(reference()), b(reference());
    a.trimToCurrent(5.0);
    b.trimToCurrent(5.0);
    std::vector<double> trace{5, 30, 30, 5, 50, 5, 5, 20};
    const auto vs = a.run(trace);
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_DOUBLE_EQ(vs[i], b.step(trace[i]));
}

TEST(PdnSim, StepManyMatchesStepBitExact)
{
    // stepMany is the batched back-end of trace replay: it must
    // reproduce per-cycle step() exactly (same discretised arithmetic
    // in the same order), for any chunking of the trace.
    PdnSim a(reference()), b(reference());
    a.trimToCurrent(5.0);
    b.trimToCurrent(5.0);

    vguard::Rng rng(77);
    std::vector<double> amps(1000);
    for (double &x : amps)
        x = 5.0 + 45.0 * rng.uniform();

    std::vector<double> va(amps.size()), vb(amps.size());
    for (size_t i = 0; i < amps.size(); ++i)
        va[i] = a.step(amps[i]);

    const size_t chunks[] = {1, 3, 64, 256};
    size_t ci = 0, off = 0;
    while (off < amps.size()) {
        const size_t n = std::min(chunks[ci++ % 4], amps.size() - off);
        b.stepMany(amps.data() + off, n, vb.data() + off);
        off += n;
    }
    for (size_t i = 0; i < amps.size(); ++i)
        EXPECT_EQ(va[i], vb[i]) << "cycle " << i;
}

TEST(PdnSim, StepPathsAllocationFreeAfterWarmup)
{
    PdnSim sim(reference());
    sim.trimToCurrent(5.0);
    std::vector<double> amps(512), volts(512);
    for (size_t i = 0; i < amps.size(); ++i)
        amps[i] = 5.0 + static_cast<double>(i % 50);
    // First call sizes the state-space scratch buffers.
    sim.stepMany(amps.data(), amps.size(), volts.data());

    const std::uint64_t before =
        gAllocCount.load(std::memory_order_relaxed);
    for (int r = 0; r < 16; ++r)
        sim.stepMany(amps.data(), amps.size(), volts.data());
    for (int i = 0; i < 1000; ++i)
        sim.step(20.0);
    const std::uint64_t delta =
        gAllocCount.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(delta, 0u)
        << "stepMany/step must not allocate per call after warm-up";
}

TEST(Impulse, SumEqualsMinusDcResistance)
{
    const auto h = impulseResponse(reference());
    double sum = 0.0;
    for (double v : h)
        sum += v;
    EXPECT_NEAR(sum, -0.5e-3, 1e-8);
}

TEST(Impulse, FirstTapNegative)
{
    const auto h = impulseResponse(reference());
    ASSERT_FALSE(h.empty());
    EXPECT_LT(h[0], 0.0);
}

TEST(Impulse, DecaysToZero)
{
    const auto h = impulseResponse(reference());
    double tail = 0.0;
    for (size_t i = h.size() - 10; i < h.size(); ++i)
        tail = std::max(tail, std::fabs(h[i]));
    double peak = 0.0;
    for (double v : h)
        peak = std::max(peak, std::fabs(v));
    EXPECT_LT(tail, 1e-5 * peak);
}

TEST(Impulse, RingsAtResonantPeriod)
{
    // The kernel should change sign with a period near the package
    // resonant period (ringing).
    const auto m = reference();
    const auto h = impulseResponse(m);
    // Find the first two zero crossings after the initial dip.
    size_t first = 0, second = 0;
    for (size_t i = 1; i < h.size(); ++i) {
        if (h[i - 1] < 0 && h[i] >= 0 && first == 0) {
            first = i;
        } else if (first != 0 && h[i - 1] > 0 && h[i] <= 0) {
            second = i;
            break;
        }
    }
    ASSERT_GT(first, 0u);
    ASSERT_GT(second, first);
    const double halfPeriod = static_cast<double>(second - first);
    EXPECT_NEAR(halfPeriod, m.resonantPeriodCycles() / 2.0,
                m.resonantPeriodCycles() * 0.25);
}

TEST(Impulse, StepResponseIsKernelPrefixSum)
{
    const auto m = reference();
    const auto h = impulseResponse(m);
    const auto s = stepResponse(m, 200);
    double acc = 0.0;
    for (size_t i = 0; i < 200; ++i) {
        acc += h[i];
        EXPECT_NEAR(s[i], acc, 1e-12) << "i=" << i;
    }
}

TEST(Impulse, ConvolverMatchesStateSpace)
{
    // The paper's convolution methodology (Fig. 7) must agree with
    // direct state-space stepping.
    const auto m = reference();
    PdnSim sim(m);
    sim.trimToCurrent(5.0);
    Convolver conv(impulseResponse(m), sim.vddSetPoint(), 5.0);

    vguard::Rng rng(123);
    double maxErr = 0.0;
    for (int t = 0; t < 3000; ++t) {
        const double amps = 5.0 + 45.0 * rng.uniform();
        const double vs = sim.step(amps);
        const double vc = conv.step(amps);
        maxErr = std::max(maxErr, std::fabs(vs - vc));
    }
    EXPECT_LT(maxErr, 1e-6);
}

TEST(Impulse, ConvolverResetRestoresBias)
{
    const auto m = reference();
    Convolver conv(impulseResponse(m), 1.0, 10.0);
    for (int i = 0; i < 50; ++i)
        conv.step(60.0);
    conv.reset();
    // At the bias current the deviation is the DC drop of the bias.
    const double v = conv.step(10.0);
    EXPECT_NEAR(v, 1.0 - 0.5e-3 * 10.0, 1e-7);
}

TEST(TargetImpedance, CalibrationMeetsBandExactly)
{
    TargetImpedanceSpec spec;
    spec.iMin = 8.0;
    spec.iMax = 55.0;
    const auto res = calibrateTargetImpedance(spec);
    EXPECT_GT(res.zTargetOhms, spec.rDc);
    // Worst-case extremes must be inside (but near) the band.
    EXPECT_GE(res.worstDipV, 0.95 - 1e-4);
    EXPECT_LE(res.worstPeakV, 1.05 + 1e-4);
    const double slack = std::min(res.worstDipV - 0.95,
                                  1.05 - res.worstPeakV);
    EXPECT_LT(slack, 5e-3); // the binding side is within 5 mV of edge
}

TEST(TargetImpedance, DoubleImpedanceViolatesBand)
{
    TargetImpedanceSpec spec;
    spec.iMin = 8.0;
    spec.iMax = 55.0;
    const auto res = calibrateTargetImpedance(spec);
    const auto m2 = PackageModel::design(spec.f0Hz, 2.0 * res.zTargetOhms,
                                         spec.rDc, spec.rDamp,
                                         spec.clockHz, spec.vNominal);
    double vMin, vMax;
    worstCaseExtremes(m2, spec.iMin, spec.iMax, vMin, vMax);
    EXPECT_TRUE(vMin < 0.95 || vMax > 1.05);
}

TEST(TargetImpedance, WorstCaseBeatsResonantSquareWave)
{
    // The bang-bang bound must dominate (be at least as bad as) the
    // resonant square wave the paper uses.
    const auto m = reference();
    double vMin, vMax;
    worstCaseExtremes(m, 8.0, 55.0, vMin, vMax);

    PdnSim sim(m);
    sim.trimToCurrent(8.0);
    const auto wave = vguard::linsys::resonantSquareWave(
        20 * m.resonantPeriodCycles(), m.resonantPeriodCycles() / 2, 8.0,
        55.0);
    double swMin = 2.0, swMax = 0.0;
    for (double i : wave) {
        const double v = sim.step(i);
        swMin = std::min(swMin, v);
        swMax = std::max(swMax, v);
    }
    EXPECT_LE(vMin, swMin + 1e-9);
    EXPECT_GE(vMax, swMax - 1e-9);
    // ... and the square wave should come close (within 25 %) of it.
    EXPECT_LT((swMin - vMin) / (1.0 - vMin), 0.25);
}

TEST(TargetImpedance, RejectsBadCurrentRange)
{
    TargetImpedanceSpec spec;
    spec.iMin = 10.0;
    spec.iMax = 10.0;
    EXPECT_EXIT(calibrateTargetImpedance(spec),
                ::testing::ExitedWithCode(1), "iMax");
}

TEST(Itrs, TrendsDownward)
{
    for (const auto &map :
         {ItrsRoadmap::highPerformance(), ItrsRoadmap::costPerformance()}) {
        const auto &e = map.entries();
        ASSERT_GE(e.size(), 5u);
        for (size_t i = 1; i < e.size(); ++i)
            EXPECT_LT(e[i].zTargetOhms, e[i - 1].zTargetOhms)
                << "year " << e[i].year;
    }
}

TEST(Itrs, HalvingPeriodInPaperRange)
{
    // "target impedance must drop rapidly, at roughly 2x every 3-5
    // years"
    EXPECT_GE(ItrsRoadmap::highPerformance().halvingPeriodYears(), 3.0);
    EXPECT_LE(ItrsRoadmap::highPerformance().halvingPeriodYears(), 5.0);
}

TEST(Itrs, CostPerfGapShrinks)
{
    const auto hp = ItrsRoadmap::highPerformance().entries();
    const auto cp = ItrsRoadmap::costPerformance().entries();
    ASSERT_EQ(hp.size(), cp.size());
    const double firstRatio = cp.front().zTargetOhms / hp.front().zTargetOhms;
    const double lastRatio = cp.back().zTargetOhms / hp.back().zTargetOhms;
    EXPECT_GT(firstRatio, 1.0);
    EXPECT_GT(lastRatio, 1.0);
    EXPECT_LT(lastRatio, firstRatio); // shrinking gap
}

TEST(Itrs, NormalisedToHighPerf2001)
{
    const auto hp = ItrsRoadmap::highPerformance().entries();
    EXPECT_DOUBLE_EQ(hp.front().zRelative, 1.0);
}

// Property sweep: packages across the paper's impedance multiples stay
// physically sane — stable, passive (DC resistance unchanged) and with
// monotonically increasing worst-case swing.
class ImpedanceSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ImpedanceSweep, StableAndConsistent)
{
    const double scale = GetParam();
    const auto m = PackageModel::paperReference(1e-3, scale);
    EXPECT_LT(m.discrete().spectralRadiusEstimate(), 1.0);
    EXPECT_NEAR(m.impedanceMag(0.0), 0.5e-3, 1e-9);
    EXPECT_NEAR(m.peakImpedance(), scale * 1e-3, scale * 1e-3 * 1e-3);

    const auto h = impulseResponse(m);
    const auto wc = vguard::linsys::bangBangWorstCase(h, 8.0, 55.0);
    EXPECT_LT(wc.minOutput, 0.0);
    EXPECT_GT(wc.maxOutput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Scales, ImpedanceSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0, 6.0));

} // namespace
