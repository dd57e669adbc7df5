/**
 * @file
 * Differential harness for the lane-batched PDN backend.
 *
 * The contract under test is *bit-identity*, not closeness: the
 * batched engine follows DiscreteStateSpaceN::stepBlock2's canonical
 * FP summation order term for term through elementwise SIMD ops, so
 * every lane must reproduce the scalar golden reference — PdnSim and
 * the scalar PdnBackend — byte for byte, for every package preset,
 * lane count (including non-powers-of-two that exercise the padding
 * tail), block size, and lane order. All assertions are EXPECT_EQ on
 * doubles (0 ULP); if a platform ever needs a looser bound, that bound
 * must be pinned here, not silently widened.
 *
 * Labeled `backend` (ctest -L backend); CI also runs the label under
 * ASan/UBSan and in the TSan campaign job.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "core/replay_sweep.hpp"
#include "core/threshold_solver.hpp"
#include "core/voltage_sim.hpp"
#include "linsys/worst_case.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/pdn_sim.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "workloads/kernels.hpp"

using namespace vguard;
using namespace vguard::core;
using pdn::BackendKind;
using pdn::LaneConfig;
using pdn::PackageModel;
using pdn::PdnSim;

namespace {

/** The package presets every suite cycles through: the paper's 50 MHz
    reference at several impedances, plus detuned resonances. */
std::vector<LaneConfig>
presetLanes()
{
    auto lane = [](double f0, double zPeak, double iTrim) {
        return LaneConfig{PackageModel::design(f0, zPeak).params(),
                          iTrim};
    };
    return {
        lane(50e6, 1e-3, 0.0),   lane(50e6, 2e-3, 10.0),
        lane(100e6, 1.5e-3, 25.0), lane(200e6, 2e-3, 5.0),
        lane(50e6, 4e-3, 10.0),
    };
}

/** First @p k presets, cycling when k exceeds the preset count. */
std::vector<LaneConfig>
lanesFor(size_t k)
{
    const auto presets = presetLanes();
    std::vector<LaneConfig> lanes;
    lanes.reserve(k);
    for (size_t i = 0; i < k; ++i)
        lanes.push_back(presets[i % presets.size()]);
    return lanes;
}

/** Resonant square wave + seeded noise: rich spectral content with
    excursions large enough to exercise the resonance. */
std::vector<double>
noisyTrace(size_t len, unsigned periodCycles, uint64_t seed)
{
    auto trace =
        linsys::resonantSquareWave(len, periodCycles / 2, 5.0, 45.0);
    Rng rng(seed);
    for (double &a : trace)
        a += rng.uniform(-2.0, 2.0);
    return trace;
}

/** Run @p amps through a backend of @p kind in blocks of
    @p blockCycles; returns the cycle-major voltage matrix. */
std::vector<double>
runShared(BackendKind kind, const std::vector<LaneConfig> &lanes,
          const std::vector<double> &amps, size_t blockCycles)
{
    const auto backend = pdn::makeBackend(kind, lanes);
    const size_t k = backend->lanes();
    std::vector<double> volts(amps.size() * k);
    size_t done = 0;
    while (done < amps.size()) {
        const size_t chunk = std::min(blockCycles, amps.size() - done);
        backend->stepShared(amps.data() + done, chunk,
                            volts.data() + done * k);
        done += chunk;
    }
    return volts;
}

/** EXPECT every element equal, reporting the first mismatch by
    (cycle, lane); memcmp first so the pass path is cheap. */
void
expectBitIdentical(const std::vector<double> &golden,
                   const std::vector<double> &actual, size_t k,
                   const std::string &what)
{
    ASSERT_EQ(golden.size(), actual.size()) << what;
    if (std::memcmp(golden.data(), actual.data(),
                    golden.size() * sizeof(double)) == 0)
        return;
    for (size_t i = 0; i < golden.size(); ++i)
        ASSERT_EQ(golden[i], actual[i])
            << what << ": first divergence at cycle " << i / k
            << " lane " << i % k;
    FAIL() << what << ": memcmp differs but elements match (NaN?)";
}

} // namespace

// ---------------------------------------------------------- shared trace

TEST(BackendDiff, SharedTraceBitExactAcrossLaneCountsAndBlocks)
{
    const auto amps = noisyTrace(6000, 60, 0xd1ff);
    for (const size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
        const auto lanes = lanesFor(k);
        // Golden: raw PdnSim::stepMany per lane in one unblocked pass.
        std::vector<double> golden(amps.size() * k);
        std::vector<double> row(amps.size());
        for (size_t lane = 0; lane < k; ++lane) {
            PdnSim sim(PackageModel(lanes[lane].package));
            sim.trimToCurrent(lanes[lane].iTrim);
            sim.stepMany(amps.data(), amps.size(), row.data());
            for (size_t cyc = 0; cyc < amps.size(); ++cyc)
                golden[cyc * k + lane] = row[cyc];
        }
        for (const size_t block : {size_t{1}, size_t{3}, size_t{17},
                                   size_t{256}, size_t{4096}}) {
            const auto batched =
                runShared(BackendKind::Batched, lanes, amps, block);
            expectBitIdentical(golden, batched, k,
                               "K=" + std::to_string(k) + " block=" +
                                   std::to_string(block));
        }
        // Scalar backend must equal the raw-PdnSim golden too (it IS
        // the reference implementation behind the interface).
        const auto scalar =
            runShared(BackendKind::Scalar, lanes, amps, 256);
        expectBitIdentical(golden, scalar, k,
                           "scalar backend K=" + std::to_string(k));
    }
}

TEST(BackendDiff, PerCycleStepMatchesScalar)
{
    const auto lanes = presetLanes();
    const size_t k = lanes.size();
    const auto scalar = pdn::makeScalarBackend(lanes);
    const auto batched = pdn::makeBatchedBackend(lanes);

    for (size_t lane = 0; lane < k; ++lane)
        ASSERT_EQ(scalar->vddSetPoint(lane), batched->vddSetPoint(lane));

    Rng rng(0x5eed);
    std::vector<double> amps(k), vs(k), vb(k);
    for (size_t cyc = 0; cyc < 2000; ++cyc) {
        for (size_t lane = 0; lane < k; ++lane)
            amps[lane] = rng.uniform(0.0, 50.0);
        scalar->stepPerLane(amps.data(), 1, vs.data());
        batched->stepPerLane(amps.data(), 1, vb.data());
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(vs[lane], vb[lane])
                << "cycle " << cyc << " lane " << lane;
    }
}

TEST(BackendDiff, LanePermutationInvariance)
{
    const auto amps = noisyTrace(3000, 60, 0xbead);
    auto lanes = lanesFor(7);
    const auto base = runShared(BackendKind::Batched, lanes, amps, 256);

    // Rotate the lane list; lane i of the rotated run must equal lane
    // (i + 3) % 7 of the base run exactly.
    std::rotate(lanes.begin(), lanes.begin() + 3, lanes.end());
    const auto rotated =
        runShared(BackendKind::Batched, lanes, amps, 256);
    for (size_t cyc = 0; cyc < amps.size(); ++cyc)
        for (size_t lane = 0; lane < 7; ++lane)
            ASSERT_EQ(rotated[cyc * 7 + lane],
                      base[cyc * 7 + (lane + 3) % 7])
                << "cycle " << cyc << " lane " << lane;
}

TEST(BackendDiff, LanePaddingInvariance)
{
    // A 5-lane batch (pack width 4 ⇒ 3 padding lanes) must produce the
    // same first five columns as an 8-lane batch sharing those lanes:
    // padding lanes may never feed back into real ones.
    const auto amps = noisyTrace(3000, 60, 0xfade);
    const auto lanes8 = lanesFor(8);
    const std::vector<LaneConfig> lanes5(lanes8.begin(),
                                         lanes8.begin() + 5);
    const auto got5 = runShared(BackendKind::Batched, lanes5, amps, 256);
    const auto got8 = runShared(BackendKind::Batched, lanes8, amps, 256);
    for (size_t cyc = 0; cyc < amps.size(); ++cyc)
        for (size_t lane = 0; lane < 5; ++lane)
            ASSERT_EQ(got5[cyc * 5 + lane], got8[cyc * 8 + lane])
                << "cycle " << cyc << " lane " << lane;
}

// ------------------------------------------------- FP summation order

/**
 * Regression pin for the canonical summation order: output()/next()
 * and stepBlock2 share one order, and this test keeps it that way.
 * The alternating ±large trace makes the accumulations
 * cancellation-heavy, so *any* reassociation, a swapped term, or an
 * FMA contraction shifts low-order bits and fails the EXPECT_EQs
 * below.
 */
TEST(BackendDiff, StepBlockSummationOrderPinned)
{
    const PackageModel model = PackageModel::design(50e6, 2e-3);

    std::vector<double> amps(4096);
    Rng rng(0xacc);
    for (size_t i = 0; i < amps.size(); ++i)
        amps[i] = (i % 2 ? 1.0 : -1.0) * rng.uniform(30.0, 50.0) +
                  rng.uniform(-1e-6, 1e-6);

    // The trim operating point: regulator set point and DC state.
    PdnSim trimmed(model);
    trimmed.trimToCurrent(10.0);
    const double vdd = trimmed.vddSetPoint();

    // stepBlock2 vs the per-cycle output()+next() pair of the same
    // discretisation: documented bit-identical. (PdnSim::step is
    // stepBlock2 over one cycle, so comparing with it would pin
    // nothing.)
    const linsys::DiscreteStateSpaceN dss = model.discrete();
    std::vector<double> xBlock = trimmed.state();
    std::vector<double> xCycle = trimmed.state();
    std::vector<double> blockV(amps.size());
    dss.stepBlock2(xBlock, vdd, amps.data(), amps.size(), blockV.data());
    std::vector<double> u{vdd, 0.0};
    for (size_t cyc = 0; cyc < amps.size(); ++cyc) {
        u[1] = amps[cyc];
        ASSERT_EQ(blockV[cyc], dss.output(xCycle, u)) << "cycle " << cyc;
        dss.next(xCycle, u);
    }

    // And the batched kernel at K=1 equals both.
    const std::vector<LaneConfig> one{{model.params(), 10.0}};
    const auto batched = runShared(BackendKind::Batched, one, amps, 512);
    for (size_t cyc = 0; cyc < amps.size(); ++cyc)
        ASSERT_EQ(batched[cyc], blockV[cyc]) << "cycle " << cyc;
}

// ------------------------------------------------- threshold solver

TEST(BackendDiff, ThresholdSolverBatchedMatchesScalar)
{
    ThresholdSpec spec;
    spec.iMin = 5.0;
    spec.iMax = 45.0;

    for (const double zPeak : {1.5e-3, 2.5e-3}) {
        for (const unsigned delay : {0u, 2u}) {
            spec.zPeakOhms = zPeak;
            spec.delayCycles = delay;

            spec.engine = BackendKind::Scalar;
            double sMin, sMax;
            closedLoopExtremes(spec, 0.96, 1.04, sMin, sMax);

            spec.engine = BackendKind::Batched;
            double bMin, bMax;
            closedLoopExtremes(spec, 0.96, 1.04, bMin, bMax);

            EXPECT_EQ(sMin, bMin) << "zPeak=" << zPeak << " d=" << delay;
            EXPECT_EQ(sMax, bMax) << "zPeak=" << zPeak << " d=" << delay;
        }
    }

    // One full solve: identical thresholds, bit for bit.
    spec.zPeakOhms = 2e-3;
    spec.delayCycles = 1;
    spec.engine = BackendKind::Scalar;
    const Thresholds scalar = solveThresholds(spec);
    spec.engine = BackendKind::Batched;
    const Thresholds batched = solveThresholds(spec);
    EXPECT_EQ(scalar.vLow, batched.vLow);
    EXPECT_EQ(scalar.vHigh, batched.vHigh);
    EXPECT_EQ(scalar.feasibleLow, batched.feasibleLow);
    EXPECT_EQ(scalar.feasibleHigh, batched.feasibleHigh);
}

// ------------------------------------------------- replay sweep

TEST(BackendDiff, ReplaySweepMatchesRunReplay)
{
    const auto program = workloads::phasedKernel(400);
    RunSpec spec;
    spec.controllerEnabled = false;
    spec.maxCycles = 20000;

    // Capture once, directly (no cache dependence in this test).
    const VoltageSimConfig baseCfg = makeSimConfig(spec);
    CapturedTrace trace;
    {
        VoltageSim sim(baseCfg, program);
        sim.run(spec.maxCycles, spec.maxInsts, &trace);
    }
    const double iTrim =
        power::WattchModel(baseCfg.power, baseCfg.cpu).minCurrent();

    const std::vector<double> scales{1.0, 2.0, 4.0};
    std::vector<SweepLane> lanes;
    for (const double s : scales)
        lanes.push_back({referencePackage(s), iTrim, baseCfg.band,
                         baseCfg.histLo, baseCfg.histHi,
                         baseCfg.histBins});

    const auto swept = replaySweep(trace.ampsData(), trace.cycles(),
                                   lanes, BackendKind::Batched);
    const auto sweptScalar = replaySweep(
        trace.ampsData(), trace.cycles(), lanes, BackendKind::Scalar);

    for (size_t i = 0; i < scales.size(); ++i) {
        RunSpec laneSpec = spec;
        laneSpec.impedanceScale = scales[i];
        VoltageSim sim(makeSimConfig(laneSpec), program);
        const VoltageSimResult ref = sim.runReplay(trace);

        EXPECT_EQ(ref.cycles, swept[i].cycles) << "scale " << scales[i];
        EXPECT_EQ(ref.minV, swept[i].minV) << "scale " << scales[i];
        EXPECT_EQ(ref.maxV, swept[i].maxV) << "scale " << scales[i];
        EXPECT_EQ(ref.lowEmergencyCycles, swept[i].lowEmergencyCycles)
            << "scale " << scales[i];
        EXPECT_EQ(ref.highEmergencyCycles, swept[i].highEmergencyCycles)
            << "scale " << scales[i];
        ASSERT_EQ(ref.voltageHist.bins(), swept[i].voltageHist.bins());
        for (size_t b = 0; b < ref.voltageHist.bins(); ++b)
            EXPECT_EQ(ref.voltageHist.count(b),
                      swept[i].voltageHist.count(b))
                << "scale " << scales[i] << " bin " << b;

        // Batched and scalar sweeps agree field for field.
        EXPECT_EQ(swept[i].minV, sweptScalar[i].minV);
        EXPECT_EQ(swept[i].maxV, sweptScalar[i].maxV);
        EXPECT_EQ(swept[i].lowEmergencyCycles,
                  sweptScalar[i].lowEmergencyCycles);
        EXPECT_EQ(swept[i].highEmergencyCycles,
                  sweptScalar[i].highEmergencyCycles);
    }
}

// ------------------------------------------------ per-lane traces

namespace {

/** Run per-lane traces through stepPerLane in blocks of
    @p blockCycles; @p traces is cycle-major like the kernel input. */
std::vector<double>
runPerLane(BackendKind kind, const std::vector<LaneConfig> &lanes,
           const std::vector<double> &traces, size_t blockCycles)
{
    const auto backend = pdn::makeBackend(kind, lanes);
    const size_t k = backend->lanes();
    const size_t cycles = traces.size() / k;
    std::vector<double> volts(traces.size());
    size_t done = 0;
    while (done < cycles) {
        const size_t chunk = std::min(blockCycles, cycles - done);
        backend->stepPerLane(traces.data() + done * k, chunk,
                             volts.data() + done * k);
        done += chunk;
    }
    return volts;
}

/** Cycle-major per-lane traces, one distinct noisy trace per lane. */
std::vector<double>
perLaneTraces(size_t cycles, size_t k)
{
    std::vector<std::vector<double>> rows;
    for (size_t lane = 0; lane < k; ++lane)
        rows.push_back(
            noisyTrace(cycles, 40 + 8 * static_cast<unsigned>(lane),
                       0xfadedull + lane));
    std::vector<double> out(cycles * k);
    for (size_t cyc = 0; cyc < cycles; ++cyc)
        for (size_t lane = 0; lane < k; ++lane)
            out[cyc * k + lane] = rows[lane][cyc];
    return out;
}

} // namespace

TEST(BackendDiff, PerLaneTracesBitExactAcrossLaneCountsAndBlocks)
{
    for (const size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
        const auto lanes = lanesFor(k);
        const auto traces = perLaneTraces(6000, k);
        const size_t cycles = traces.size() / k;

        // Golden: raw PdnSim::stepMany per lane in one unblocked pass.
        std::vector<double> golden(traces.size());
        std::vector<double> col(cycles), row(cycles);
        for (size_t lane = 0; lane < k; ++lane) {
            PdnSim sim(PackageModel(lanes[lane].package));
            sim.trimToCurrent(lanes[lane].iTrim);
            for (size_t cyc = 0; cyc < cycles; ++cyc)
                col[cyc] = traces[cyc * k + lane];
            sim.stepMany(col.data(), cycles, row.data());
            for (size_t cyc = 0; cyc < cycles; ++cyc)
                golden[cyc * k + lane] = row[cyc];
        }

        for (const size_t blk : {1u, 3u, 17u, 256u, 4096u}) {
            expectBitIdentical(
                golden, runPerLane(BackendKind::Scalar, lanes, traces, blk),
                k, "scalar k=" + std::to_string(k) + " blk=" +
                       std::to_string(blk));
            expectBitIdentical(
                golden,
                runPerLane(BackendKind::Batched, lanes, traces, blk), k,
                "batched k=" + std::to_string(k) + " blk=" +
                    std::to_string(blk));
        }
    }
}

TEST(BackendDiff, PerLaneStepMatchesPerCycleStream)
{
    // Contract: stepPerLane(n) is bit-identical to n one-cycle
    // stepPerLane calls, the shape every per-cycle caller uses.
    const size_t k = 5;
    const auto lanes = lanesFor(k);
    const auto traces = perLaneTraces(3000, k);
    const size_t cycles = traces.size() / k;

    for (const BackendKind kind :
         {BackendKind::Scalar, BackendKind::Batched}) {
        const auto blocked = pdn::makeBackend(kind, lanes);
        const auto cyclic = pdn::makeBackend(kind, lanes);
        std::vector<double> vBlk(traces.size()), vCyc(traces.size());

        size_t done = 0;
        Rng rng(0x5eed);
        while (done < cycles) {
            const size_t chunk = std::min<size_t>(
                1 + static_cast<size_t>(rng.below(200)),
                cycles - done);
            blocked->stepPerLane(traces.data() + done * k, chunk,
                                 vBlk.data() + done * k);
            for (size_t cyc = 0; cyc < chunk; ++cyc)
                cyclic->stepPerLane(traces.data() + (done + cyc) * k, 1,
                                    vCyc.data() + (done + cyc) * k);
            done += chunk;
        }
        expectBitIdentical(vBlk, vCyc, k,
                           kind == BackendKind::Scalar ? "scalar"
                                                       : "batched");
    }
}

// ---------------------------------------------- entry-point checks
//
// Configurations that would sail straight into the math (a negative
// band inverts the emergency window; non-finite trim poisons every
// lane) must die in VGUARD_CHECK at the entry point.

namespace {

/**
 * Every path that accounts a rail takes its band and histogram through
 * core::RailTally, so each must refuse the same bad values: the
 * VoltageSim ctor, replaySweep and runChips.
 */
void
expectEveryRailPathRejects(double band, double histLo, double histHi)
{
    const pdn::PackageParams pkg = PackageModel::design(50e6, 2e-3).params();

    VoltageSimConfig cfg;
    cfg.package = pkg;
    cfg.band = band;
    cfg.histLo = histLo;
    cfg.histHi = histHi;
    const isa::Program program = workloads::phasedKernel(400);
    EXPECT_DEATH({ VoltageSim sim(cfg, program); }, "check failed");

    const std::vector<double> amps{10.0, 20.0, 30.0};
    const std::vector<SweepLane> lanes{
        {pkg, 5.0, band, histLo, histHi}};
    EXPECT_DEATH(replaySweep(amps.data(), amps.size(), lanes,
                             BackendKind::Batched),
                 "check failed");

    ChipSpec chip;
    chip.package = pkg;
    chip.iTrim = 5.0;
    chip.band = band;
    chip.histLo = histLo;
    chip.histHi = histHi;
    chip.cores.resize(1);
    EXPECT_DEATH(runChips({chip}, 1), "check failed");
}

} // namespace

TEST(BackendDiffDeathTest, ReplaySweepRejectsNegativeBand)
{
    // A negative band inverts the window; a NaN or infinite one makes
    // the edges NaN/inf, so no cycle would ever count.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double band : {-0.05, nan, inf})
        expectEveryRailPathRejects(band, 0.90, 1.10);
}

TEST(BackendDiffDeathTest, ReplaySweepRejectsNonFiniteTrim)
{
    const std::vector<double> amps{10.0, 20.0, 30.0};
    std::vector<SweepLane> lanes{
        {PackageModel::design(50e6, 2e-3).params(),
         std::numeric_limits<double>::quiet_NaN()}};
    EXPECT_DEATH(replaySweep(amps.data(), amps.size(), lanes,
                             BackendKind::Scalar),
                 "check failed");
}

TEST(BackendDiffDeathTest, ReplaySweepRejectsInvertedHistogramRange)
{
    // An infinite edge sends every sample to one bin.
    const double inf = std::numeric_limits<double>::infinity();
    expectEveryRailPathRejects(0.05, 1.10, 0.90);
    expectEveryRailPathRejects(0.05, -inf, 1.10);
    expectEveryRailPathRejects(0.05, 0.90, inf);
}

TEST(BackendDiffDeathTest, BackendFactoriesRejectDegeneratePackages)
{
    // PackageModel's constructor is the one PackageParams check, so a
    // non-finite field dies the same way on every path that builds a
    // rail: a bare PdnSim, the VoltageSim ctor, both backend factories
    // and runChips.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const isa::Program program = workloads::phasedKernel(400);
    const std::vector<std::pair<double pdn::PackageParams::*, double>>
        bad = {{&pdn::PackageParams::lPkg, nan},
               {&pdn::PackageParams::rEsr, nan},
               {&pdn::PackageParams::cDie, inf},
               {&pdn::PackageParams::vNominal, nan},
               {&pdn::PackageParams::clockHz, inf}};
    for (size_t i = 0; i < bad.size(); ++i) {
        SCOPED_TRACE("degenerate field " + std::to_string(i));
        pdn::PackageParams pkg = referencePackage(2.0);
        pkg.*bad[i].first = bad[i].second;

        EXPECT_DEATH({ PdnSim sim{PackageModel(pkg)}; }, "check failed");

        VoltageSimConfig cfg;
        cfg.package = pkg;
        EXPECT_DEATH({ VoltageSim sim(cfg, program); }, "check failed");

        for (const BackendKind kind :
             {BackendKind::Scalar, BackendKind::Batched})
            EXPECT_DEATH(pdn::makeBackend(kind, {{pkg, 5.0}}),
                         "check failed");

        ChipSpec chip;
        chip.package = pkg;
        chip.iTrim = 5.0;
        chip.cores.resize(1);
        EXPECT_DEATH(runChips({chip}, 1), "check failed");
    }

    for (const BackendKind kind :
         {BackendKind::Scalar, BackendKind::Batched}) {
        {
            std::vector<LaneConfig> lanes = lanesFor(2);
            lanes[1].iTrim = std::numeric_limits<double>::infinity();
            EXPECT_DEATH(pdn::makeBackend(kind, lanes), "check failed");
        }
        {
            std::vector<LaneConfig> lanes = lanesFor(2);
            lanes[0].package.vNominal = 0.0;
            EXPECT_DEATH(pdn::makeBackend(kind, lanes), "check failed");
        }
        {
            std::vector<LaneConfig> lanes = lanesFor(3);
            lanes[2].package.lPkg =
                std::numeric_limits<double>::quiet_NaN();
            EXPECT_DEATH(pdn::makeBackend(kind, lanes), "check failed");
        }
        EXPECT_DEATH(pdn::makeBackend(kind, {}), "check failed");
    }
}

// ------------------------------------------------- golden mini sweep

namespace {

/** Deterministic JSONL for a synthetic 5-package impedance sweep. */
std::string
miniSweepJsonl(BackendKind kind)
{
    const auto amps = noisyTrace(8192, 60, 42);
    const std::vector<double> zPeaks{1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3};
    std::vector<SweepLane> lanes;
    for (const double z : zPeaks)
        lanes.push_back({PackageModel::design(50e6, z).params(), 5.0});

    const auto results =
        replaySweep(amps.data(), amps.size(), lanes, kind);

    std::string out;
    for (size_t i = 0; i < lanes.size(); ++i) {
        JsonWriter w;
        w.beginObject();
        w.field("zPeakOhms", zPeaks[i]);
        w.field("cycles", results[i].cycles);
        w.field("minV", results[i].minV);
        w.field("maxV", results[i].maxV);
        w.field("lowEmergencyCycles", results[i].lowEmergencyCycles);
        w.field("highEmergencyCycles", results[i].highEmergencyCycles);
        w.key("hist").beginArray();
        for (size_t b = 0; b < results[i].voltageHist.bins(); ++b)
            w.value(results[i].voltageHist.count(b));
        w.endArray();
        w.endObject();
        out += w.take();
        out += '\n';
    }
    return out;
}

} // namespace

/**
 * The checked-in mini-sweep golden is produced by the *batched*
 * backend and must match the scalar rendering byte for byte — a
 * platform or codegen change that nudges any lane shows up as a diff
 * here. Regenerate deliberately with
 *   VGUARD_UPDATE_GOLDEN=1 ./tests/test_backend_diff \
 *       --gtest_filter=BackendDiff.MiniImpedanceSweepGolden
 */
TEST(BackendDiff, MiniImpedanceSweepGolden)
{
    const std::string goldenPath =
        std::string(VGUARD_GOLDEN_DIR) + "/mini_impedance_sweep.jsonl";
    const std::string batched = miniSweepJsonl(BackendKind::Batched);
    const std::string scalar = miniSweepJsonl(BackendKind::Scalar);
    EXPECT_EQ(batched, scalar)
        << "batched and scalar sweeps render different bytes";

    if (std::getenv("VGUARD_UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath;
        out << batched;
        GTEST_SKIP() << "golden updated: " << goldenPath;
    }

    std::ifstream in(goldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << goldenPath
        << " — generate with VGUARD_UPDATE_GOLDEN=1";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();

    if (expected != batched) {
        std::istringstream ea(expected), aa(batched);
        std::string el, al;
        int line = 1;
        while (std::getline(ea, el) && std::getline(aa, al) && el == al)
            ++line;
        ADD_FAILURE() << "golden mismatch at line " << line
                      << "\n  expected: " << el
                      << "\n  actual:   " << al;
    }
    SUCCEED();
}
