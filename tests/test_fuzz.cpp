/**
 * @file
 * Randomised pipeline fuzzing: generate structured random VRISC
 * programs (arithmetic, memory traffic, counted loops, calls) and
 * assert end-to-end invariants of the out-of-order core against the
 * pure functional executor:
 *
 *  - the core halts (no deadlock/livelock) and commits exactly the
 *    dynamic instruction count the executor retires;
 *  - architectural state matches between a plain run and a run with
 *    aggressive random gating/phantom/throttle interference (the
 *    controller must never corrupt execution);
 *  - activity accounting stays consistent with the aggregate stats.
 */

#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "fuzz_inputs.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/package_model.hpp"
#include "util/rng.hpp"

namespace {

using namespace vguard;
using namespace vguard::isa;
using fuzz::randomProgram;

// Dynamic instruction count of the reference executor.
uint64_t
referenceCount(const Program &p, uint64_t guard = 5'000'000)
{
    Executor ex(p);
    while (!ex.halted() && ex.instsExecuted() < guard)
        ex.step();
    EXPECT_TRUE(ex.halted()) << "reference executor did not halt";
    return ex.instsExecuted();
}

class FuzzSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzSweep, CoreCommitsExactlyTheDynamicStream)
{
    const Program p = randomProgram(GetParam());
    const uint64_t expect = referenceCount(p);

    cpu::OoOCore core(cpu::CpuConfig{}, p);
    while (!core.halted() && core.now() < 20'000'000)
        core.cycle();
    ASSERT_TRUE(core.halted()) << "core deadlocked (seed "
                               << GetParam() << ")";
    EXPECT_EQ(core.stats().committed, expect);
    EXPECT_EQ(core.stats().dispatched, core.stats().committed);
}

TEST_P(FuzzSweep, RandomInterferencePreservesExecution)
{
    const Program p = randomProgram(GetParam());
    const uint64_t expect = referenceCount(p);

    cpu::OoOCore core(cpu::CpuConfig{}, p);
    fuzz::RandomInterference interference(GetParam() ^ 0xabcdef);
    while (!core.halted() && core.now() < 40'000'000) {
        interference.apply(core);
        core.cycle();
    }
    ASSERT_TRUE(core.halted()) << "interfered core deadlocked (seed "
                               << GetParam() << ")";
    // Gating must stall, never drop or duplicate instructions.
    EXPECT_EQ(core.stats().committed, expect);
}

TEST_P(FuzzSweep, ActivitySumsMatchStats)
{
    const Program p = randomProgram(GetParam());
    cpu::OoOCore core(cpu::CpuConfig{}, p);
    uint64_t fetched = 0, committed = 0, dispatched = 0;
    while (!core.halted() && core.now() < 20'000'000) {
        const auto &av = core.cycle();
        fetched += av.fetched;
        committed += av.committed;
        dispatched += av.dispatched;
        EXPECT_LE(av.committed, core.config().commitWidth);
        EXPECT_LE(av.dispatched, core.config().decodeWidth);
        EXPECT_LE(av.fetched, core.config().fetchWidth);
    }
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(fetched, core.stats().fetched);
    EXPECT_EQ(committed, core.stats().committed);
    EXPECT_EQ(dispatched, core.stats().dispatched);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89, 144, 233));

// ----------------------------------------------- PDN backend fuzzing

/**
 * Fuzz lane for the batched PDN backend (ISSUE 6): random trace
 * lengths, lane counts and — the part unit grids under-cover — random
 * *block boundaries*, pushed through both backends. Asserts exact
 * agreement everywhere; out-of-bounds lane padding or scratch misuse
 * surfaces under the ASan/UBSan CI runs of this suite.
 */
class BackendFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BackendFuzz, RandomTracesAndBlockBoundariesNeverDiverge)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 7);

    const size_t k = 1 + rng.below(9);
    std::vector<pdn::LaneConfig> lanes;
    for (size_t i = 0; i < k; ++i)
        lanes.push_back({pdn::PackageModel::design(
                             rng.uniform(30e6, 150e6),
                             rng.uniform(0.8e-3, 4e-3))
                             .params(),
                         rng.uniform(0.0, 30.0)});

    std::vector<double> amps(1 + rng.below(5000));
    for (double &a : amps)
        a = rng.uniform(0.0, 60.0);

    // Scalar reference: one unblocked pass.
    const auto scalar = pdn::makeScalarBackend(lanes);
    std::vector<double> ref(amps.size() * k);
    scalar->stepShared(amps.data(), amps.size(), ref.data());

    // Batched: the same trace fed in randomly-sized chunks (state must
    // carry across stepShared calls exactly).
    const auto batched = pdn::makeBatchedBackend(lanes);
    std::vector<double> got(amps.size() * k);
    size_t done = 0;
    while (done < amps.size()) {
        const size_t chunk =
            std::min<size_t>(1 + rng.below(300), amps.size() - done);
        batched->stepShared(amps.data() + done, chunk,
                            got.data() + done * k);
        done += chunk;
    }

    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], got[i])
            << "cycle " << i / k << " lane " << i % k;

    // Interleave one-cycle per-lane steps on both, continuing from
    // the streamed state — the two entry points must compose.
    std::vector<double> cur(k), vs(k), vb(k);
    for (size_t cyc = 0; cyc < 64; ++cyc) {
        for (size_t lane = 0; lane < k; ++lane)
            cur[lane] = rng.uniform(0.0, 60.0);
        scalar->stepPerLane(cur.data(), 1, vs.data());
        batched->stepPerLane(cur.data(), 1, vb.data());
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(vs[lane], vb[lane])
                << "post-stream cycle " << cyc << " lane " << lane;
    }
}

TEST_P(BackendFuzz, PerLaneTracesAndBlockBoundariesNeverDiverge)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 11);

    const size_t k = 1 + rng.below(9);
    std::vector<pdn::LaneConfig> lanes;
    for (size_t i = 0; i < k; ++i)
        lanes.push_back({pdn::PackageModel::design(
                             rng.uniform(30e6, 150e6),
                             rng.uniform(0.8e-3, 4e-3))
                             .params(),
                         rng.uniform(0.0, 30.0)});

    // Cycle-major per-lane traces: every lane gets its own stream.
    const size_t cycles = 1 + rng.below(5000);
    std::vector<double> amps(cycles * k);
    for (double &a : amps)
        a = rng.uniform(0.0, 60.0);

    // Scalar reference: one cycle per call (the per-cycle callers'
    // shape).
    const auto scalar = pdn::makeScalarBackend(lanes);
    std::vector<double> ref(amps.size());
    for (size_t cyc = 0; cyc < cycles; ++cyc)
        scalar->stepPerLane(amps.data() + cyc * k, 1,
                            ref.data() + cyc * k);

    // Batched stepPerLane fed in randomly-sized chunks (state must
    // carry across calls exactly).
    const auto batched = pdn::makeBatchedBackend(lanes);
    std::vector<double> got(amps.size());
    size_t done = 0;
    while (done < cycles) {
        const size_t chunk =
            std::min<size_t>(1 + rng.below(300), cycles - done);
        batched->stepPerLane(amps.data() + done * k, chunk,
                             got.data() + done * k);
        done += chunk;
    }

    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], got[i])
            << "cycle " << i / k << " lane " << i % k;

    // Interleave one-cycle per-lane and shared steps on both
    // backends, continuing from the streamed state — they must
    // compose.
    std::vector<double> cur(k), vs(k), vb(k);
    for (size_t round = 0; round < 16; ++round) {
        for (size_t lane = 0; lane < k; ++lane)
            cur[lane] = rng.uniform(0.0, 60.0);
        scalar->stepPerLane(cur.data(), 1, vs.data());
        batched->stepPerLane(cur.data(), 1, vb.data());
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(vs[lane], vb[lane])
                << "post-stream round " << round << " lane " << lane;

        const double shared = rng.uniform(0.0, 60.0);
        scalar->stepShared(&shared, 1, vs.data());
        batched->stepShared(&shared, 1, vb.data());
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(vs[lane], vb[lane])
                << "post-stream shared round " << round << " lane "
                << lane;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

} // namespace
