/**
 * @file
 * Parameterised property sweeps across module configuration spaces:
 * cache geometries, branch-history depths, PDN impedance/frequency
 * grids and closed-loop safety of solved thresholds. These pin down
 * invariants rather than point behaviours.
 */

#include <cmath>
#include <cstddef>
#include <tuple>

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "core/threshold_solver.hpp"
#include "cpu/branch_pred.hpp"
#include "cpu/cache.hpp"
#include "linsys/worst_case.hpp"
#include "pdn/impulse.hpp"
#include "pdn/package_model.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/pdn_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace vguard;
using namespace vguard::cpu;

// --------------------------------------------------- cache properties

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t,
                                                 uint32_t>>
{
};

TEST_P(CacheGeometry, InclusionOfRecentLines)
{
    // Property: the most recently touched `ways` distinct lines of any
    // set always hit.
    const auto [size, ways, line] = GetParam();
    Cache c("t", CacheConfig{size, ways, line, 1});
    const uint32_t sets = size / (ways * line);

    Rng rng(size ^ ways);
    for (int trial = 0; trial < 200; ++trial) {
        const uint32_t set = static_cast<uint32_t>(rng.below(sets));
        // Touch `ways` distinct tags within one set, then re-touch:
        // all must hit.
        for (uint32_t w = 0; w < ways; ++w) {
            const uint64_t addr =
                (static_cast<uint64_t>(w + 1 + trial) * sets + set) *
                line;
            c.access(addr, false);
        }
        for (uint32_t w = 0; w < ways; ++w) {
            const uint64_t addr =
                (static_cast<uint64_t>(w + 1 + trial) * sets + set) *
                line;
            EXPECT_TRUE(c.access(addr, false).hit)
                << "way " << w << " trial " << trial;
        }
    }
}

TEST_P(CacheGeometry, MissCountBoundedByCompulsory)
{
    // Property: touching N distinct lines once then re-touching them
    // all (working set <= capacity) incurs exactly N misses.
    const auto [size, ways, line] = GetParam();
    Cache c("t", CacheConfig{size, ways, line, 1});
    const uint32_t lines = size / line;
    for (uint32_t i = 0; i < lines; ++i)
        c.access(static_cast<uint64_t>(i) * line, false);
    EXPECT_EQ(c.stats().misses, lines);
    for (uint32_t i = 0; i < lines; ++i)
        c.access(static_cast<uint64_t>(i) * line, false);
    EXPECT_EQ(c.stats().misses, lines); // fully resident
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(1024u, 1u, 64u),
                      std::make_tuple(2048u, 2u, 64u),
                      std::make_tuple(4096u, 4u, 32u),
                      std::make_tuple(8192u, 2u, 128u),
                      std::make_tuple(65536u, 2u, 64u)));

// ------------------------------------------------ predictor properties

class HistoryDepth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HistoryDepth, LearnsShortPeriodicPatterns)
{
    // Property: any strictly periodic direction pattern with period <=
    // history depth is eventually predicted near-perfectly by the
    // combined predictor.
    CpuConfig cfg;
    cfg.historyBits = GetParam();
    BranchPredictor bp(cfg);
    isa::StaticInst si{isa::Opcode::BNE, isa::kNoReg, isa::intReg(1),
                       isa::kNoReg, 0, 3};

    const unsigned period = std::min(GetParam(), 6u);
    auto pattern = [&](unsigned t) { return (t % period) == 0; };

    for (unsigned t = 0; t < 6000; ++t)
        bp.predictAndUpdate(99, si, pattern(t), 3);
    const uint64_t before = bp.stats().condMispredicts;
    for (unsigned t = 6000; t < 7000; ++t)
        bp.predictAndUpdate(99, si, pattern(t), 3);
    EXPECT_LT(bp.stats().condMispredicts - before, 30u)
        << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(Depths, HistoryDepth,
                         ::testing::Values(4u, 8u, 12u, 15u));

// ----------------------------------------------------- PDN properties

class PdnGrid
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(PdnGrid, PassivityAndWorstCaseDominance)
{
    const auto [f0Mhz, zScale] = GetParam();
    const auto m = pdn::PackageModel::design(f0Mhz * 1e6,
                                             zScale * 1e-3);

    // DC resistance preserved, discrete model stable.
    EXPECT_NEAR(m.impedanceMag(0.0), 0.5e-3, 1e-9);
    EXPECT_LT(m.discrete().spectralRadiusEstimate(), 1.0);

    // Worst-case dominance: random admissible inputs never exceed the
    // bang-bang bound.
    const auto h = pdn::impulseResponse(m);
    const auto wc = linsys::bangBangWorstCase(h, 10.0, 40.0);
    pdn::PdnSim sim(m);
    sim.trimToCurrent(10.0);
    const double vdd = sim.vddSetPoint();
    Rng rng(static_cast<uint64_t>(f0Mhz * 1000 + zScale));
    double vMin = 2.0, vMax = 0.0;
    for (int t = 0; t < 20000; ++t) {
        const double amps =
            rng.chance(0.5) ? 10.0 : (rng.chance(0.5) ? 40.0 : 25.0);
        const double v = sim.step(amps);
        vMin = std::min(vMin, v);
        vMax = std::max(vMax, v);
    }
    // Bound accounting: sim trims so Vdd = vNom + rDc*10; the bound is
    // relative to the same reference.
    EXPECT_GE(vMin, vdd + wc.minOutput - 1e-9);
    EXPECT_LE(vMax, vdd + wc.maxOutput + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PdnGrid,
    ::testing::Combine(::testing::Values(25.0, 50.0, 100.0),
                       ::testing::Values(1.5, 3.0, 6.0)));

// ------------------------------------------ threshold solver property

class SolverGrid
    : public ::testing::TestWithParam<std::tuple<unsigned, double>>
{
};

TEST_P(SolverGrid, SolvedThresholdsAlwaysSafeInClosedLoop)
{
    // The headline guarantee, swept over (delay, impedance) pairs:
    // whatever the solver returns as feasible must survive its own
    // adversarial closed-loop verification with margin intact.
    const auto [delay, zScale] = GetParam();
    const auto &range = core::referenceCurrentRange();
    core::ThresholdSpec spec;
    spec.zPeakOhms = core::referenceTarget().zTargetOhms * zScale;
    spec.iMin = range.progMin;
    spec.iMax = range.progMax;
    spec.iGate = range.gatedMin;
    spec.iPhantom = range.phantomMax;
    spec.iTrim = range.gatedMin;
    spec.delayCycles = delay;
    const auto th = core::solveThresholds(spec);
    if (!th.feasibleLow || !th.feasibleHigh)
        GTEST_SKIP() << "infeasible configuration (expected at "
                        "aggressive corners)";
    double vMin, vMax;
    core::closedLoopExtremes(spec, th.vLow, th.vHigh, vMin, vMax);
    EXPECT_GE(vMin, 0.95 - 1e-9);
    EXPECT_LE(vMax, 1.05 + 1e-9);
    EXPECT_GT(th.safeWindowV(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverGrid,
    ::testing::Combine(::testing::Values(0u, 2u, 4u, 6u),
                       ::testing::Values(1.5, 2.0, 3.0)));

// --------------------------------------- batched-backend properties

/**
 * Randomized invariants of the lane-batched PDN backend over seeded
 * package/trim draws (see tests/test_backend_diff.cpp for the
 * preset-grid differential suite). Each seed draws a lane count
 * K ∈ [1, 8], K random packages and a random trace, then asserts the
 * structural properties that make batching safe to use anywhere:
 * per-lane independence, order independence, and padding isolation.
 */
class BatchedBackend : public ::testing::TestWithParam<uint64_t>
{
  protected:
    struct Draw
    {
        std::vector<pdn::LaneConfig> lanes;
        std::vector<double> amps;
    };

    static Draw
    draw(uint64_t seed)
    {
        Rng rng(seed);
        Draw d;
        const size_t k = 1 + rng.below(8);
        for (size_t i = 0; i < k; ++i) {
            const double f0 = rng.uniform(30e6, 150e6);
            const double zPeak = rng.uniform(0.8e-3, 4e-3);
            d.lanes.push_back(
                {pdn::PackageModel::design(f0, zPeak).params(),
                 rng.uniform(0.0, 30.0)});
        }
        d.amps.resize(500 + rng.below(3000));
        for (double &a : d.amps)
            a = rng.uniform(0.0, 50.0);
        return d;
    }

    static std::vector<double>
    runBatch(const std::vector<pdn::LaneConfig> &lanes,
             const std::vector<double> &amps)
    {
        const auto backend = pdn::makeBatchedBackend(lanes);
        std::vector<double> volts(amps.size() * lanes.size());
        backend->stepShared(amps.data(), amps.size(), volts.data());
        return volts;
    }
};

TEST_P(BatchedBackend, IdenticalLanesEqualScalarRuns)
{
    // Property: a batch of K copies of one scenario behaves exactly
    // like K independent scalar runs of it — lanes never interact.
    const Draw d = draw(GetParam());
    const std::vector<pdn::LaneConfig> copies(d.lanes.size(),
                                              d.lanes[0]);
    const auto volts = runBatch(copies, d.amps);

    pdn::PdnSim sim(pdn::PackageModel(d.lanes[0].package));
    sim.trimToCurrent(d.lanes[0].iTrim);
    std::vector<double> ref(d.amps.size());
    sim.stepMany(d.amps.data(), d.amps.size(), ref.data());

    const size_t k = copies.size();
    for (size_t cyc = 0; cyc < d.amps.size(); ++cyc)
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(volts[cyc * k + lane], ref[cyc])
                << "cycle " << cyc << " lane " << lane;
}

TEST_P(BatchedBackend, PermutationInvariance)
{
    // Property: lane order is bookkeeping, not arithmetic — permuting
    // the lane list permutes the output columns and nothing else.
    const Draw d = draw(GetParam());
    const auto base = runBatch(d.lanes, d.amps);

    Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
    std::vector<size_t> perm(d.lanes.size());
    for (size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    for (size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.below(i)]);

    std::vector<pdn::LaneConfig> shuffled;
    for (const size_t p : perm)
        shuffled.push_back(d.lanes[p]);
    const auto got = runBatch(shuffled, d.amps);

    const size_t k = d.lanes.size();
    for (size_t cyc = 0; cyc < d.amps.size(); ++cyc)
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(got[cyc * k + lane], base[cyc * k + perm[lane]])
                << "cycle " << cyc << " lane " << lane;
}

TEST_P(BatchedBackend, PaddingInvariance)
{
    // Property: appending lanes (changing how the batch divides into
    // SIMD packs, and which lane pads the tail) never perturbs the
    // lanes already present.
    const Draw d = draw(GetParam());
    const auto base = runBatch(d.lanes, d.amps);

    auto extended = d.lanes;
    extended.push_back(d.lanes[0]);
    extended.push_back(
        {pdn::PackageModel::design(80e6, 2.2e-3).params(), 12.0});
    const auto got = runBatch(extended, d.amps);

    const size_t k = d.lanes.size();
    const size_t ke = extended.size();
    for (size_t cyc = 0; cyc < d.amps.size(); ++cyc)
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(got[cyc * ke + lane], base[cyc * k + lane])
                << "cycle " << cyc << " lane " << lane;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedBackend,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u));

// --------------------------------------- multicore chip properties

/**
 * Randomized invariants of the shared-rail chip path over seeded
 * chip draws (see tests/test_multicore.cpp for the structured
 * differential suite). Each seed draws 1–4 chips with random core
 * counts (including 1), random phase offsets, occasional parked
 * cores and an optional governor, then asserts that the batched
 * backend matches scalar exactly, that the run is deterministic and
 * that open chips run the same beside a governed chip as alone.
 */
class MulticoreChip : public ::testing::TestWithParam<uint64_t>
{
  protected:
    struct Draw
    {
        std::vector<core::CapturedTrace> traces;
        std::vector<core::ChipSpec> chips;
        uint64_t cycles = 0;
    };

    static Draw
    draw(uint64_t seed)
    {
        Rng rng(seed);
        Draw d;
        const size_t nChips = 1 + rng.below(4);
        // Traces outlive the specs (ChipSpec stores pointers); one
        // per chip plus a shared zero-length trace for parked cores.
        d.traces.resize(nChips + 1);
        for (size_t c = 0; c < nChips; ++c) {
            core::CapturedTrace &t = d.traces[c];
            t.amps.resize(200 + rng.below(1500));
            for (double &a : t.amps)
                a = rng.uniform(0.0, 50.0);
        }
        for (size_t c = 0; c < nChips; ++c) {
            core::ChipSpec chip;
            const size_t nCores = 1 + rng.below(8);
            const double s = 1.0 / static_cast<double>(nCores);
            chip.package = pdn::PackageModel::design(
                               rng.uniform(30e6, 150e6),
                               rng.uniform(0.8e-3, 4e-3) * s,
                               0.5e-3 * s, 0.25e-3 * s)
                               .params();
            chip.iTrim = rng.uniform(0.0, 10.0) *
                         static_cast<double>(nCores);
            for (size_t i = 0; i < nCores; ++i) {
                core::CoreSlot slot;
                // One in eight cores is parked (zero-length trace).
                slot.trace = rng.below(8) == 0 ? &d.traces[nChips]
                                               : &d.traces[c];
                slot.phaseOffset = rng.below(2000);
                slot.iGate = rng.uniform(0.0, 5.0);
                slot.iPhantom = rng.uniform(40.0, 60.0);
                chip.cores.push_back(slot);
            }
            if (rng.chance(0.5)) {
                core::SensorConfig sc;
                sc.vLow = 0.96;
                sc.vHigh = 1.04;
                sc.delayCycles = 1 + rng.below(4);
                sc.noiseMagnitude = rng.uniform(0.0, 0.01);
                sc.seed = rng.below(1u << 20);
                chip.sensor = sc;
                if (rng.chance(0.5)) {
                    core::ChipGovernorConfig g;
                    g.kp = rng.uniform(0.1, 2.0);
                    g.ki = rng.uniform(0.0, 0.1);
                    chip.governor = g;
                }
            }
            d.chips.push_back(std::move(chip));
        }
        d.cycles = 500 + rng.below(2000);
        return d;
    }
};

TEST_P(MulticoreChip, BatchedMatchesScalarExactly)
{
    const Draw d = draw(GetParam());
    const auto scalar =
        core::runChips(d.chips, d.cycles, pdn::BackendKind::Scalar);
    const auto batched =
        core::runChips(d.chips, d.cycles, pdn::BackendKind::Batched);
    ASSERT_EQ(scalar.size(), batched.size());
    for (size_t c = 0; c < scalar.size(); ++c) {
        ASSERT_EQ(scalar[c].minV, batched[c].minV) << "chip " << c;
        ASSERT_EQ(scalar[c].maxV, batched[c].maxV) << "chip " << c;
        ASSERT_EQ(scalar[c].lowEmergencyCycles,
                  batched[c].lowEmergencyCycles)
            << "chip " << c;
        ASSERT_EQ(scalar[c].highEmergencyCycles,
                  batched[c].highEmergencyCycles)
            << "chip " << c;
        ASSERT_EQ(scalar[c].gateGrants, batched[c].gateGrants)
            << "chip " << c;
        ASSERT_EQ(scalar[c].gateDenials, batched[c].gateDenials)
            << "chip " << c;
        for (size_t b = 0; b < scalar[c].voltageHist.bins(); ++b)
            ASSERT_EQ(scalar[c].voltageHist.count(b),
                      batched[c].voltageHist.count(b))
                << "chip " << c << " bin " << b;
    }
}

TEST_P(MulticoreChip, RunsAreDeterministic)
{
    // Property: the sensor noise streams are seeded, so an identical
    // second run reproduces every counter and extremum exactly.
    const Draw d = draw(GetParam());
    const auto a =
        core::runChips(d.chips, d.cycles, pdn::BackendKind::Batched);
    const auto b =
        core::runChips(d.chips, d.cycles, pdn::BackendKind::Batched);
    for (size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c].minV, b[c].minV) << "chip " << c;
        ASSERT_EQ(a[c].maxV, b[c].maxV) << "chip " << c;
        ASSERT_EQ(a[c].lowEmergencyCycles, b[c].lowEmergencyCycles);
        ASSERT_EQ(a[c].highEmergencyCycles, b[c].highEmergencyCycles);
        ASSERT_EQ(a[c].gateGrants, b[c].gateGrants);
        ASSERT_EQ(a[c].gateDenials, b[c].gateDenials);
        ASSERT_EQ(a[c].gateFairness, b[c].gateFairness);
        for (size_t i = 0; i < a[c].cores.size(); ++i) {
            ASSERT_EQ(a[c].cores[i].gatedCycles,
                      b[c].cores[i].gatedCycles);
            ASSERT_EQ(a[c].cores[i].phantomCycles,
                      b[c].cores[i].phantomCycles);
        }
    }
}

TEST_P(MulticoreChip, OpenChipsUnmovedByAGovernedNeighbour)
{
    // Property: lanes are arithmetically independent, so a governed
    // chip joining the run (which makes it step one cycle at a time)
    // leaves every open chip's result unchanged, field for field.
    const Draw d = draw(GetParam());
    std::vector<core::ChipSpec> open = d.chips;
    for (core::ChipSpec &chip : open) {
        chip.sensor.reset();
        chip.governor.reset();
    }

    core::ChipSpec governed = d.chips.front();
    core::SensorConfig sc;
    sc.vLow = 0.96;
    sc.vHigh = 1.04;
    sc.delayCycles = 1;
    governed.sensor = sc;
    governed.governor = core::ChipGovernorConfig{};

    // The governed chip takes a seed-dependent lane, so open chips
    // shift lanes (and pack slots) between the two runs.
    const size_t at = GetParam() % (open.size() + 1);
    std::vector<core::ChipSpec> mixed = open;
    mixed.insert(mixed.begin() + static_cast<std::ptrdiff_t>(at),
                 governed);

    const auto alone = core::runChips(open, d.cycles);
    const auto beside = core::runChips(mixed, d.cycles);
    ASSERT_EQ(beside.size(), alone.size() + 1);
    for (size_t c = 0; c < alone.size(); ++c) {
        const core::ChipResult &a = alone[c];
        const core::ChipResult &b = beside[c < at ? c : c + 1];
        ASSERT_EQ(a.cycles, b.cycles) << "chip " << c;
        ASSERT_EQ(a.minV, b.minV) << "chip " << c;
        ASSERT_EQ(a.maxV, b.maxV) << "chip " << c;
        ASSERT_EQ(a.lowEmergencyCycles, b.lowEmergencyCycles)
            << "chip " << c;
        ASSERT_EQ(a.highEmergencyCycles, b.highEmergencyCycles)
            << "chip " << c;
        ASSERT_EQ(a.voltageHist.underflow(), b.voltageHist.underflow())
            << "chip " << c;
        ASSERT_EQ(a.voltageHist.overflow(), b.voltageHist.overflow())
            << "chip " << c;
        for (size_t bin = 0; bin < a.voltageHist.bins(); ++bin)
            ASSERT_EQ(a.voltageHist.count(bin),
                      b.voltageHist.count(bin))
                << "chip " << c << " bin " << bin;
        ASSERT_EQ(a.gateGrants, b.gateGrants) << "chip " << c;
        ASSERT_EQ(a.gateDenials, b.gateDenials) << "chip " << c;
        ASSERT_EQ(a.gateFairness, b.gateFairness) << "chip " << c;
        ASSERT_EQ(a.cores.size(), b.cores.size()) << "chip " << c;
        for (size_t i = 0; i < a.cores.size(); ++i) {
            ASSERT_EQ(a.cores[i].gatedCycles, b.cores[i].gatedCycles);
            ASSERT_EQ(a.cores[i].phantomCycles,
                      b.cores[i].phantomCycles);
            ASSERT_EQ(a.cores[i].gateRequests, b.cores[i].gateRequests);
            ASSERT_EQ(a.cores[i].gateDenials, b.cores[i].gateDenials);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MulticoreChip,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u));

} // namespace
