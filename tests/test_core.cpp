/**
 * @file
 * Tests for src/core — the paper's contribution: threshold sensor,
 * actuators, controller, the control-theoretic threshold solver, the
 * coupled VoltageSim, and the experiment harness. Includes the
 * headline property: with solved thresholds the controller eliminates
 * voltage emergencies on the dI/dt stressmark.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/actuator.hpp"
#include "core/controller.hpp"
#include "core/experiments.hpp"
#include "core/sensor.hpp"
#include "core/threshold_solver.hpp"
#include "core/voltage_sim.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

namespace {

using namespace vguard;
using namespace vguard::core;

// ------------------------------------------------------------- sensor

TEST(Sensor, ThreeLevels)
{
    SensorConfig sc;
    sc.vLow = 0.97;
    sc.vHigh = 1.03;
    sc.delayCycles = 0;
    ThresholdSensor s(sc);
    EXPECT_EQ(s.observe(0.96), VoltageLevel::Low);
    EXPECT_EQ(s.observe(1.00), VoltageLevel::Normal);
    EXPECT_EQ(s.observe(1.04), VoltageLevel::High);
}

TEST(Sensor, DelayShiftsReadings)
{
    SensorConfig sc;
    sc.vLow = 0.97;
    sc.vHigh = 1.03;
    sc.delayCycles = 2;
    sc.vNominal = 1.0; // the delay line's fill
    ThresholdSensor s(sc);
    s.observe(0.90); // t=0 (reading: fill value 1.0)
    s.observe(1.00); // t=1
    EXPECT_EQ(s.observe(1.00), VoltageLevel::Low); // sees t=0's 0.90
    EXPECT_NEAR(s.lastReading(), 0.90, 1e-12);
}

TEST(Sensor, ZeroDelaySeesCurrentCycle)
{
    SensorConfig sc;
    sc.vLow = 0.97;
    sc.vHigh = 1.03;
    sc.delayCycles = 0;
    ThresholdSensor s(sc);
    EXPECT_EQ(s.observe(0.5), VoltageLevel::Low);
}

TEST(Sensor, NoiseIsBounded)
{
    SensorConfig sc;
    sc.vLow = 0.0;
    sc.vHigh = 2.0;
    sc.delayCycles = 0;
    sc.noiseMagnitude = 0.02;
    ThresholdSensor s(sc);
    for (int i = 0; i < 5000; ++i) {
        s.observe(1.0);
        EXPECT_LE(std::fabs(s.lastReading() - 1.0), 0.02);
    }
}

TEST(Sensor, NoiseIsDeterministicPerSeed)
{
    SensorConfig sc;
    sc.vLow = 0.0;
    sc.vHigh = 2.0;
    sc.noiseMagnitude = 0.01;
    sc.seed = 77;
    ThresholdSensor a(sc), b(sc);
    for (int i = 0; i < 100; ++i) {
        a.observe(1.0);
        b.observe(1.0);
        EXPECT_DOUBLE_EQ(a.lastReading(), b.lastReading());
    }
}

TEST(Sensor, UniformNoiseStaysUniform)
{
    // The paper's bounded Section-4.5 error model: hard bound and
    // ~sqrt(1/3) * bound standard deviation (distinguishes uniform
    // from a sigma=bound Gaussian).
    SensorConfig sc;
    sc.vLow = 0.0;
    sc.vHigh = 2.0;
    sc.delayCycles = 0;
    sc.noiseMagnitude = 0.02;
    ThresholdSensor s(sc);
    double sumSq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        s.observe(1.0);
        const double e = s.lastReading() - 1.0;
        ASSERT_LE(std::fabs(e), 0.02);
        sumSq += e * e;
    }
    EXPECT_NEAR(std::sqrt(sumSq / n), 0.02 / std::sqrt(3.0), 0.001);
}

TEST(Sensor, RejectsInvertedThresholds)
{
    SensorConfig sc;
    sc.vLow = 1.05;
    sc.vHigh = 0.95;
    EXPECT_EXIT(ThresholdSensor{sc}, ::testing::ExitedWithCode(1),
                "vLow");
}

// NaN passes `vLow >= vHigh` and `noiseMagnitude < 0`: a NaN vLow
// never reads Low and a NaN noise magnitude runs noiseless. A delay
// of UINT_MAX wraps the delay line's size to zero.
TEST(SensorDeathTest, RejectsNonFiniteAndOverflowingConfigs)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    SensorConfig sc;
    sc.vLow = 0.95;
    sc.vHigh = 1.05;

    SensorConfig bad = sc;
    bad.vLow = nan;
    EXPECT_DEATH(ThresholdSensor{bad}, "check failed");
    bad = sc;
    bad.vHigh = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(ThresholdSensor{bad}, "check failed");
    bad = sc;
    bad.noiseMagnitude = nan;
    EXPECT_DEATH(ThresholdSensor{bad}, "check failed");
    bad = sc;
    bad.delayCycles = std::numeric_limits<unsigned>::max();
    EXPECT_DEATH(ThresholdSensor{bad}, "check failed");
    bad.delayCycles = kMaxSensorDelayCycles + 1;
    EXPECT_DEATH(ThresholdSensor{bad}, "check failed");

    // The bound itself is accepted.
    bad.delayCycles = kMaxSensorDelayCycles;
    ThresholdSensor longest(bad);
    EXPECT_EQ(longest.observe(0.9), VoltageLevel::Normal);
}

// ----------------------------------------------------------- actuator

TEST(Actuator, Names)
{
    EXPECT_STREQ(actuatorName(ActuatorKind::Fu), "FU");
    EXPECT_STREQ(actuatorName(ActuatorKind::FuDl1Il1), "FU/DL1/IL1");
}

TEST(Actuator, LowGatesControlledUnits)
{
    cpu::OoOCore core(cpu::CpuConfig{}, workloads::busyKernel());
    Actuator act(ActuatorKind::FuDl1);
    act.apply(VoltageLevel::Low, core);
    EXPECT_TRUE(core.gates().fu);
    EXPECT_TRUE(core.gates().dl1);
    EXPECT_FALSE(core.gates().il1);
    EXPECT_EQ(act.gatedCycles(), 1u);
    EXPECT_EQ(act.lowTriggers(), 1u);
}

TEST(Actuator, HighPhantomFires)
{
    cpu::OoOCore core(cpu::CpuConfig{}, workloads::busyKernel());
    Actuator act(ActuatorKind::Fu);
    act.apply(VoltageLevel::High, core);
    EXPECT_FALSE(core.gates().fu);
    EXPECT_EQ(act.phantomCycles(), 1u);
    EXPECT_EQ(act.highTriggers(), 1u);
}

TEST(Actuator, NormalReleasesEverything)
{
    cpu::OoOCore core(cpu::CpuConfig{}, workloads::busyKernel());
    Actuator act(ActuatorKind::Ideal);
    act.apply(VoltageLevel::Low, core);
    act.apply(VoltageLevel::Normal, core);
    EXPECT_FALSE(core.gates().any());
}

TEST(Actuator, TriggerCountsEdgeOnly)
{
    cpu::OoOCore core(cpu::CpuConfig{}, workloads::busyKernel());
    Actuator act(ActuatorKind::Ideal);
    for (int i = 0; i < 5; ++i)
        act.apply(VoltageLevel::Low, core);
    EXPECT_EQ(act.lowTriggers(), 1u);
    EXPECT_EQ(act.gatedCycles(), 5u);
}

TEST(VoltageSimDeathTest, RunsOnce)
{
    // A run's stats are its components' counters when it ends, so a
    // sim that has run, stepped a cycle or begun a sensed replay
    // refuses another run.
    RunSpec rs;
    rs.controllerEnabled = false;
    const VoltageSimConfig open = makeSimConfig(rs);
    const isa::Program prog = workloads::busyKernel(100000);
    // A low threshold above nominal: every reading is Low.
    VoltageSimConfig closed = open;
    SensorConfig sc;
    sc.vLow = 1.5;
    sc.vHigh = 2.0;
    sc.delayCycles = 0;
    closed.sensor = sc;

    // The one run reports its own actuation: it gates every cycle
    // after a single trigger.
    const VoltageSimResult r = VoltageSim(closed, prog).run(1000);
    ASSERT_EQ(r.cycles, 1000u);
    EXPECT_EQ(r.gatedCycles, r.cycles);
    EXPECT_EQ(r.lowTriggers, 1u);

    EXPECT_DEATH(
        {
            VoltageSim sim(open, prog);
            sim.run(100);
            sim.run(100);
        },
        "check failed");
    EXPECT_DEATH(
        {
            VoltageSim sim(open, prog);
            CapturedTrace trace;
            sim.run(100, ~0ull, &trace);
            sim.runReplay(trace);
        },
        "check failed");
    EXPECT_DEATH(
        {
            VoltageSim sim(open, prog);
            sim.step();
            sim.run(100);
        },
        "check failed");

    // The sensed replay reads Low on its first cycle and aborts inside
    // its first block: the cycle count has not moved, but the PDN and
    // the sensor have stepped.
    CapturedTrace trace;
    VoltageSim(open, prog).run(1000, ~0ull, &trace);
    EXPECT_FALSE(VoltageSim(closed, prog).runSensedReplay(trace).has_value());
    EXPECT_DEATH(
        {
            VoltageSim sim(closed, prog);
            (void)sim.runSensedReplay(trace);
            sim.run(100);
        },
        "check failed");
}

// ------------------------------------------------------------- solver

ThresholdSpec
solverSpec(unsigned delay, double zScale = 2.0)
{
    const auto &range = referenceCurrentRange();
    ThresholdSpec spec;
    spec.zPeakOhms = referenceTarget().zTargetOhms * zScale;
    spec.iMin = range.progMin;
    spec.iMax = range.progMax;
    spec.iGate = range.gatedMin;
    spec.iPhantom = range.phantomMax;
    spec.iTrim = range.gatedMin;
    spec.delayCycles = delay;
    return spec;
}

TEST(Solver, ThresholdsInsideBand)
{
    const auto th = solveThresholds(solverSpec(1));
    EXPECT_TRUE(th.feasibleLow);
    EXPECT_TRUE(th.feasibleHigh);
    EXPECT_GT(th.vLow, 0.95);
    EXPECT_LT(th.vLow, 1.0);
    EXPECT_GT(th.vHigh, 1.0);
    EXPECT_LE(th.vHigh, 1.05);
}

TEST(Solver, WindowShrinksWithDelay)
{
    // Paper Table 3's headline shape.
    double prev = 1e9;
    for (unsigned d : {0u, 2u, 4u, 6u}) {
        const auto th = solveThresholds(solverSpec(d));
        ASSERT_TRUE(th.feasibleLow) << "delay " << d;
        EXPECT_LE(th.safeWindowV(), prev + 1e-6) << "delay " << d;
        prev = th.safeWindowV();
    }
}

TEST(Solver, LowThresholdRisesWithDelay)
{
    const auto t0 = solveThresholds(solverSpec(0));
    const auto t6 = solveThresholds(solverSpec(6));
    EXPECT_GT(t6.vLow, t0.vLow + 0.005);
}

TEST(Solver, ErrorTightensThresholds)
{
    auto spec = solverSpec(2);
    const auto clean = solveThresholds(spec);
    spec.sensorError = 0.015;
    const auto noisy = solveThresholds(spec);
    EXPECT_GT(noisy.vLow, clean.vLow + 0.010);
}

TEST(Solver, SolvedThresholdsSurviveClosedLoopCheck)
{
    const auto spec = solverSpec(3);
    const auto th = solveThresholds(spec);
    double vMin, vMax;
    closedLoopExtremes(spec, th.vLow, th.vHigh, vMin, vMax);
    EXPECT_GE(vMin, 0.95 - 1e-9);
    EXPECT_LE(vMax, 1.05 + 1e-9);
}

TEST(Solver, LooseThresholdsFailClosedLoopCheck)
{
    const auto spec = solverSpec(3);
    double vMin, vMax;
    // Thresholds at the very band edges cannot protect with delay.
    closedLoopExtremes(spec, 0.9501, 1.0499, vMin, vMax);
    EXPECT_LT(vMin, 0.95);
}

TEST(Solver, HigherImpedanceNeedsTighterLowThreshold)
{
    const auto cheap = solveThresholds(solverSpec(2, 3.0));
    const auto good = solveThresholds(solverSpec(2, 1.5));
    EXPECT_GT(cheap.vLow, good.vLow);
}

TEST(Solver, RejectsBadCurrents)
{
    auto spec = solverSpec(0);
    spec.iMax = spec.iMin;
    EXPECT_EXIT(solveThresholds(spec), ::testing::ExitedWithCode(1),
                "iMax");
}

// The scenarios size their delay lines d + 1, which UINT_MAX wraps.
TEST(SolverDeathTest, RejectsOverflowingDelayAndNonFiniteError)
{
    auto spec = solverSpec(0);
    spec.delayCycles = std::numeric_limits<unsigned>::max();
    EXPECT_DEATH(solveThresholds(spec), "check failed");
    spec = solverSpec(0);
    spec.sensorError = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(solveThresholds(spec), "check failed");
    spec = solverSpec(0);
    spec.iGate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(solveThresholds(spec), "check failed");
}

// A RunSpec enters at makeSimConfig: a NaN sensor error would reach
// referenceThresholds' lround() key before any sensor could refuse it.
TEST(RunSpecDeathTest, MakeSimConfigRejectsMalformedSpecs)
{
    RunSpec rs;
    rs.sensorError = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(makeSimConfig(rs), "check failed");
    rs = RunSpec{};
    rs.sensorError = -0.005;
    EXPECT_DEATH(makeSimConfig(rs), "check failed");
    rs = RunSpec{};
    rs.impedanceScale = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(makeSimConfig(rs), "check failed");
    rs = RunSpec{};
    rs.delayCycles = std::numeric_limits<unsigned>::max();
    EXPECT_DEATH(makeSimConfig(rs), "check failed");
}

// --------------------------------------------------------- VoltageSim

TEST(VoltageSim, UncontrolledStressmarkBreachesAt200)
{
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.controllerEnabled = false;
    rs.maxCycles = 60000;
    const auto &cal = referenceStressmark();
    const auto res = runWorkload(
        workloads::StressmarkBuilder::build(cal.params), rs);
    EXPECT_GT(res.emergencyCycles(), 0u);
    EXPECT_LT(res.minV, 0.95);
}

TEST(VoltageSim, ControllerEliminatesEmergencies)
{
    // The paper's central claim, checked across sensor delays.
    const auto &cal = referenceStressmark();
    const auto prog = workloads::StressmarkBuilder::build(cal.params);
    for (unsigned d : {0u, 2u, 5u}) {
        RunSpec rs;
        rs.impedanceScale = 2.0;
        rs.delayCycles = d;
        rs.maxCycles = 60000;
        const auto res = runWorkload(prog, rs);
        EXPECT_EQ(res.emergencyCycles(), 0u) << "delay " << d;
        EXPECT_GE(res.minV, 0.95) << "delay " << d;
        EXPECT_LE(res.maxV, 1.05) << "delay " << d;
        EXPECT_GT(res.gatedCycles, 0u) << "delay " << d;
    }
}

TEST(VoltageSim, SpecSafeUncontrolledAt200)
{
    for (const char *name : {"ammp", "galgel", "gcc"}) {
        RunSpec rs;
        rs.impedanceScale = 2.0;
        rs.controllerEnabled = false;
        rs.maxCycles = 50000;
        const auto res =
            runWorkload(workloads::buildSpecProxy(name), rs);
        EXPECT_EQ(res.emergencyCycles(), 0u) << name;
    }
}

TEST(VoltageSim, GatingReducesCurrentDuringLowPhases)
{
    // With the controller on, minimum voltage improves vs uncontrolled.
    const auto &cal = referenceStressmark();
    const auto prog = workloads::StressmarkBuilder::build(cal.params);
    RunSpec off;
    off.impedanceScale = 3.0;
    off.controllerEnabled = false;
    off.maxCycles = 40000;
    RunSpec on = off;
    on.controllerEnabled = true;
    on.delayCycles = 1;
    const auto roff = runWorkload(prog, off);
    const auto ron = runWorkload(prog, on);
    EXPECT_GT(ron.minV, roff.minV + 0.005);
    EXPECT_LT(ron.maxV, roff.maxV - 0.005);
}

TEST(VoltageSim, HistogramAccumulates)
{
    RunSpec rs;
    rs.impedanceScale = 1.0;
    rs.controllerEnabled = false;
    rs.maxCycles = 5000;
    const auto res = runWorkload(workloads::busyKernel(), rs);
    EXPECT_EQ(res.voltageHist.total(), res.cycles);
    EXPECT_GT(res.cycles, 0u);
}

TEST(VoltageSim, EnergyAccountingSane)
{
    RunSpec rs;
    rs.impedanceScale = 1.0;
    rs.controllerEnabled = false;
    rs.maxCycles = 10000;
    const auto res = runWorkload(workloads::busyKernel(), rs);
    // E = avgP * time; time = cycles / 3 GHz.
    const double t = res.cycles / 3e9;
    EXPECT_NEAR(res.energyJ, res.avgPowerW * t, 1e-9);
    EXPECT_GT(res.avgPowerW, 10.0);
    EXPECT_LT(res.avgPowerW, 65.0);
}

TEST(VoltageSim, MaxInstsLimitsWork)
{
    RunSpec rs;
    rs.impedanceScale = 1.0;
    rs.controllerEnabled = false;
    rs.maxCycles = 100000;
    rs.maxInsts = 2000;
    const auto res = runWorkload(workloads::busyKernel(), rs);
    EXPECT_GE(res.committed, 2000u);
    EXPECT_LT(res.committed, 2100u); // one cycle of overshoot at most
}

TEST(VoltageSim, TraceSamplesExposeControllerAction)
{
    const auto &cal = referenceStressmark();
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = 1;
    VoltageSim sim(makeSimConfig(rs),
                   workloads::StressmarkBuilder::build(cal.params));
    bool sawGated = false;
    double vMin = 2.0;
    for (int i = 0; i < 60000; ++i) {
        const auto s = sim.step();
        sawGated |= s.gated;
        vMin = std::min(vMin, s.volts);
    }
    EXPECT_TRUE(sawGated);
    EXPECT_GE(vMin, 0.95);
}

// -------------------------------------------------------- experiments

TEST(Experiments, CurrentRangeOrdering)
{
    const auto &r = referenceCurrentRange();
    EXPECT_LT(r.gatedMin, r.progMin);
    EXPECT_LT(r.progMin, r.progMax);
    EXPECT_LT(r.progMax, r.phantomMax);
}

TEST(Experiments, TargetImpedanceAboveDc)
{
    EXPECT_GT(referenceTarget().zTargetOhms, 0.5e-3);
    EXPECT_LT(referenceTarget().zTargetOhms, 50e-3);
}

TEST(Experiments, PackageScalesWithImpedance)
{
    const auto p1 = pdn::PackageModel(referencePackage(1.0));
    const auto p2 = pdn::PackageModel(referencePackage(2.0));
    EXPECT_NEAR(p2.peakImpedance(), 2.0 * p1.peakImpedance(),
                0.02 * p1.peakImpedance());
}

TEST(Experiments, ThresholdSpecDesignsTheReferencePackage)
{
    for (const double s : {1.0, 2.0, 3.0, 4.0}) {
        const ThresholdSpec spec = referenceThresholdSpec(s, 2);
        const pdn::PackageParams solved =
            pdn::PackageModel::design(spec.f0Hz, spec.zPeakOhms, spec.rDc,
                                      spec.rDamp, spec.clockHz,
                                      spec.vNominal)
                .params();
        const pdn::PackageParams ref = referencePackage(s);
        EXPECT_EQ(solved.rVrm, ref.rVrm) << "scale " << s;
        EXPECT_EQ(solved.rPkg, ref.rPkg) << "scale " << s;
        EXPECT_EQ(solved.rEsr, ref.rEsr) << "scale " << s;
        EXPECT_EQ(solved.lPkg, ref.lPkg) << "scale " << s;
        EXPECT_EQ(solved.cDie, ref.cDie) << "scale " << s;
        EXPECT_EQ(solved.cBulk, ref.cBulk) << "scale " << s;
        EXPECT_EQ(solved.vNominal, ref.vNominal) << "scale " << s;
        EXPECT_EQ(solved.clockHz, ref.clockHz) << "scale " << s;
    }
}

TEST(Experiments, ReferenceThresholdsSolveTheReferenceSpec)
{
    for (const double s : {1.0, 2.0, 3.0, 4.0}) {
        const Thresholds &cached = referenceThresholds(s, 2);
        const Thresholds solved =
            solveThresholds(referenceThresholdSpec(s, 2));
        EXPECT_EQ(cached.vLow, solved.vLow) << "scale " << s;
        EXPECT_EQ(cached.vHigh, solved.vHigh) << "scale " << s;
        EXPECT_EQ(cached.feasibleLow, solved.feasibleLow) << "scale " << s;
        EXPECT_EQ(cached.feasibleHigh, solved.feasibleHigh)
            << "scale " << s;
    }
}

TEST(Experiments, ThresholdsCached)
{
    const auto &a = referenceThresholds(2.0, 1);
    const auto &b = referenceThresholds(2.0, 1);
    EXPECT_EQ(&a, &b); // same cached object
}

TEST(Experiments, CompareControlledSpecCheap)
{
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = 1;
    rs.maxCycles = 30000;
    const auto cmp =
        compareControlled(workloads::buildSpecProxy("gzip"), rs);
    // SPEC-class work should be nearly free to control.
    EXPECT_LT(std::fabs(cmp.perfLossPct), 2.0);
    EXPECT_LT(std::fabs(cmp.energyIncreasePct), 2.0);
    EXPECT_EQ(cmp.controlled.emergencyCycles(), 0u);
}

TEST(Experiments, CompareControlledStressmarkCostly)
{
    const auto &cal = referenceStressmark();
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = 5;
    rs.maxCycles = 30000;
    const auto cmp = compareControlled(
        workloads::StressmarkBuilder::build(cal.params), rs);
    EXPECT_GT(cmp.perfLossPct, 2.0); // visible, unlike SPEC
    EXPECT_EQ(cmp.controlled.emergencyCycles(), 0u);
}

TEST(Experiments, CycleBudgetEnv)
{
    unsetenv("VGUARD_CYCLES");
    EXPECT_EQ(cycleBudget(1234), 1234u);
    setenv("VGUARD_CYCLES", "777", 1);
    EXPECT_EQ(cycleBudget(1234), 777u);
    // Malformed values fall back instead of wrapping ("-5" used to be
    // 2^64 - 5 cycles) or dropping trailing text ("10abc" was 10).
    for (const char *bad : {"-5", "10abc", ""}) {
        setenv("VGUARD_CYCLES", bad, 1);
        EXPECT_EQ(cycleBudget(1234), 1234u) << "'" << bad << "'";
    }
    unsetenv("VGUARD_CYCLES");
}

} // namespace
