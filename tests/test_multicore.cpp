/**
 * @file
 * Many-core shared-PDN simulation suite (ctest label `multicore`).
 *
 * The contracts under test mirror the backend differential harness:
 *
 *  - a 1-core open-loop chip reproduces single-core
 *    VoltageSim::runReplay bookkeeping bit-identically (the N=1
 *    acceptance bar);
 *  - the batched shared-rail backend matches the scalar golden
 *    reference exactly across core counts {1..8, 16};
 *  - chip order is bookkeeping, not arithmetic (permutation
 *    invariance at chip granularity);
 *  - zero-length traces park a core at its gate current;
 *  - a grant-everything governor is bit-identical to no governor, a
 *    restrictive one actually denies and stays deterministic;
 *  - the governor grants every requester its budget covers, else the
 *    top max(budget, 1) by (EWMA descending, index ascending), the
 *    set a stable sort picks, and allocates nothing once warm;
 *  - a traced run emits a `chip.arbitrate` instant for requests from
 *    cores past the 64-bit masks' reach;
 *  - two checked-in mini chip sweep goldens (regenerable with
 *    VGUARD_UPDATE_GOLDEN=1) pin the whole pipeline's bytes: one of
 *    open-loop chips, one of sensed, governed and noisy-sensed chips
 *    beside an open one, down to every core's actuation counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "core/voltage_sim.hpp"
#include "linsys/worst_case.hpp"
#include "obs/tracing.hpp"
#include "pdn/package_model.hpp"
#include "power/wattch.hpp"
#include "util/json_parse.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "workloads/kernels.hpp"

// Counts allocations for the warm-arbitration guard.
#include "alloc_count.hpp"

using namespace vguard;
using namespace vguard::core;
using pdn::BackendKind;
using pdn::PackageModel;

namespace {

/** Resonant square wave + seeded noise (test_backend_diff idiom). */
CapturedTrace
noisyTrace(size_t len, unsigned periodCycles, uint64_t seed)
{
    CapturedTrace t;
    t.amps =
        linsys::resonantSquareWave(len, periodCycles / 2, 5.0, 45.0);
    Rng rng(seed);
    for (double &a : t.amps)
        a += rng.uniform(-2.0, 2.0);
    return t;
}

/**
 * An N-core chip over one shared trace: package impedance scaled by
 * 1/N and trim scaled by N so the chip stays electrically comparable
 * across core counts; offsets spread per @p stagger cycles.
 */
ChipSpec
chipOf(const CapturedTrace &trace, size_t nCores, size_t stagger,
       double zPeak = 2e-3)
{
    ChipSpec chip;
    // Impedance AND resistance scale 1/N (an N-core package has N×
    // the pads), keeping droop depth comparable across core counts.
    const double s = 1.0 / static_cast<double>(nCores);
    chip.package = PackageModel::design(50e6, zPeak * s, 0.5e-3 * s,
                                        0.25e-3 * s)
                       .params();
    chip.iTrim = 5.0 * static_cast<double>(nCores);
    for (size_t i = 0; i < nCores; ++i)
        chip.cores.push_back({&trace, i * stagger, 2.0, 55.0});
    return chip;
}

/** Field-for-field exact equality of two chip results. */
void
expectChipsEqual(const ChipResult &a, const ChipResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.minV, b.minV) << what;
    EXPECT_EQ(a.maxV, b.maxV) << what;
    EXPECT_EQ(a.lowEmergencyCycles, b.lowEmergencyCycles) << what;
    EXPECT_EQ(a.highEmergencyCycles, b.highEmergencyCycles) << what;
    EXPECT_EQ(a.gateGrants, b.gateGrants) << what;
    EXPECT_EQ(a.gateDenials, b.gateDenials) << what;
    EXPECT_EQ(a.gateFairness, b.gateFairness) << what;
    ASSERT_EQ(a.voltageHist.bins(), b.voltageHist.bins()) << what;
    for (size_t i = 0; i < a.voltageHist.bins(); ++i)
        ASSERT_EQ(a.voltageHist.count(i), b.voltageHist.count(i))
            << what << " bin " << i;
    EXPECT_EQ(a.voltageHist.underflow(), b.voltageHist.underflow())
        << what;
    EXPECT_EQ(a.voltageHist.overflow(), b.voltageHist.overflow())
        << what;
    ASSERT_EQ(a.cores.size(), b.cores.size()) << what;
    for (size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].gatedCycles, b.cores[i].gatedCycles)
            << what << " core " << i;
        EXPECT_EQ(a.cores[i].phantomCycles, b.cores[i].phantomCycles)
            << what << " core " << i;
        EXPECT_EQ(a.cores[i].gateRequests, b.cores[i].gateRequests)
            << what << " core " << i;
        EXPECT_EQ(a.cores[i].gateDenials, b.cores[i].gateDenials)
            << what << " core " << i;
    }
}

/** Closed-loop sensor tuned to the synthetic traces' droop depth. */
SensorConfig
testSensor()
{
    SensorConfig sc;
    sc.vLow = 0.96;
    sc.vHigh = 1.04;
    sc.delayCycles = 1;
    return sc;
}

} // namespace

// --------------------------------------------------- N = 1 identity

TEST(Multicore, SingleCoreChipMatchesRunReplayBitIdentically)
{
    const auto program = workloads::phasedKernel(400);
    RunSpec spec;
    spec.controllerEnabled = false;
    spec.maxCycles = 20000;

    const VoltageSimConfig cfg = makeSimConfig(spec);
    CapturedTrace trace;
    {
        VoltageSim sim(cfg, program);
        sim.run(spec.maxCycles, spec.maxInsts, &trace);
    }

    VoltageSim ref(cfg, program);
    const VoltageSimResult golden = ref.runReplay(trace);

    ChipSpec chip;
    chip.package = cfg.package;
    chip.iTrim =
        power::WattchModel(cfg.power, cfg.cpu).minCurrent();
    chip.band = cfg.band;
    chip.histLo = cfg.histLo;
    chip.histHi = cfg.histHi;
    chip.histBins = cfg.histBins;
    chip.cores.push_back({&trace, 0, 0.0, 0.0});

    for (const BackendKind kind :
         {BackendKind::Scalar, BackendKind::Batched}) {
        const auto res =
            runChips({chip}, trace.cycles(), kind);
        ASSERT_EQ(res.size(), 1u);
        const ChipResult &r = res[0];
        EXPECT_EQ(golden.cycles, r.cycles);
        EXPECT_EQ(golden.minV, r.minV);
        EXPECT_EQ(golden.maxV, r.maxV);
        EXPECT_EQ(golden.lowEmergencyCycles, r.lowEmergencyCycles);
        EXPECT_EQ(golden.highEmergencyCycles, r.highEmergencyCycles);
        ASSERT_EQ(golden.voltageHist.bins(), r.voltageHist.bins());
        // memcmp over the raw bin counts: the acceptance bar is
        // byte-equality, not closeness.
        std::vector<uint64_t> gBins(golden.voltageHist.bins()),
            rBins(r.voltageHist.bins());
        for (size_t b = 0; b < gBins.size(); ++b) {
            gBins[b] = golden.voltageHist.count(b);
            rBins[b] = r.voltageHist.count(b);
        }
        EXPECT_EQ(std::memcmp(gBins.data(), rBins.data(),
                              gBins.size() * sizeof(uint64_t)),
                  0)
            << "histogram bytes diverge";
    }
}

// ------------------------------------- scalar vs batched shared rail

TEST(Multicore, BatchedMatchesScalarAcrossCoreCounts)
{
    const CapturedTrace trace = noisyTrace(6000, 60, 0xc0de);
    for (const size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 16u}) {
        // Three chips per run so lane packing sees a partial pack too.
        std::vector<ChipSpec> chips;
        chips.push_back(chipOf(trace, n, 17));
        chips.push_back(chipOf(trace, n, 0));
        chips.push_back(chipOf(trace, std::max<size_t>(n / 2, 1), 31,
                               3e-3));
        const auto scalar =
            runChips(chips, 4000, BackendKind::Scalar);
        const auto batched =
            runChips(chips, 4000, BackendKind::Batched);
        ASSERT_EQ(scalar.size(), batched.size());
        for (size_t c = 0; c < scalar.size(); ++c)
            expectChipsEqual(scalar[c], batched[c],
                             "N=" + std::to_string(n) + " chip " +
                                 std::to_string(c));
    }
}

TEST(Multicore, ClosedLoopBatchedMatchesScalar)
{
    const CapturedTrace trace = noisyTrace(4000, 60, 0xfeed);
    for (const size_t n : {1u, 2u, 4u, 8u}) {
        std::vector<ChipSpec> chips;
        chips.push_back(chipOf(trace, n, 13));
        chips.back().sensor = testSensor();
        chips.push_back(chipOf(trace, n, 0));
        chips.back().sensor = testSensor();
        chips.back().governor = ChipGovernorConfig{};
        const auto scalar =
            runChips(chips, 3000, BackendKind::Scalar);
        const auto batched =
            runChips(chips, 3000, BackendKind::Batched);
        for (size_t c = 0; c < scalar.size(); ++c)
            expectChipsEqual(scalar[c], batched[c],
                             "closed N=" + std::to_string(n) +
                                 " chip " + std::to_string(c));
    }
}

// -------------------------------------------- structural invariants

TEST(Multicore, ChipPermutationInvariance)
{
    const CapturedTrace trace = noisyTrace(3000, 60, 0xabba);
    std::vector<ChipSpec> chips;
    chips.push_back(chipOf(trace, 1, 0));
    chips.push_back(chipOf(trace, 2, 30));
    chips.push_back(chipOf(trace, 4, 15));
    chips.push_back(chipOf(trace, 3, 7, 3e-3));
    chips.push_back(chipOf(trace, 8, 8));

    const auto base = runChips(chips, 2500, BackendKind::Batched);

    std::vector<size_t> perm{3, 0, 4, 2, 1};
    std::vector<ChipSpec> shuffled;
    for (const size_t p : perm)
        shuffled.push_back(chips[p]);
    const auto got = runChips(shuffled, 2500, BackendKind::Batched);

    for (size_t i = 0; i < perm.size(); ++i)
        expectChipsEqual(got[i], base[perm[i]],
                         "perm slot " + std::to_string(i));
}

TEST(Multicore, ZeroLengthTraceParksCoreAtGateCurrent)
{
    const CapturedTrace trace = noisyTrace(2000, 60, 0x9a9a);
    const CapturedTrace empty;  // no amps: a parked core
    // A parked core and a core replaying a constant-iGate trace are
    // the same current source, so the two chips must agree exactly.
    CapturedTrace constant;
    constant.amps.assign(500, 2.0);

    ChipSpec parked = chipOf(trace, 2, 20);
    parked.cores.push_back({&empty, 0, 2.0, 55.0});
    ChipSpec replayed = chipOf(trace, 2, 20);
    replayed.cores.push_back({&constant, 0, 2.0, 55.0});

    const auto a = runChips({parked}, 1500, BackendKind::Batched);
    const auto b = runChips({replayed}, 1500, BackendKind::Batched);
    expectChipsEqual(a[0], b[0], "parked vs constant trace");

    // Closed loop: the parked core never requests actuation.
    ChipSpec closed = parked;
    closed.sensor = testSensor();
    const auto c = runChips({closed}, 1500, BackendKind::Batched);
    EXPECT_EQ(c[0].cores[2].gateRequests, 0u);
    EXPECT_EQ(c[0].cores[2].gatedCycles, 0u);
    EXPECT_EQ(c[0].cores[2].phantomCycles, 0u);
}

TEST(MulticoreDeathTest, SensedChipRefusesBadNoiseMagnitude)
{
    // The rail's sensor runs noise-free, so the chip itself must
    // refuse a NaN or negative reading error, as each per-core sensor
    // once did: NaN would run silently noiseless.
    const CapturedTrace trace = noisyTrace(200, 60, 0x0badu);
    ChipSpec chip = chipOf(trace, 2, 0);
    chip.sensor = testSensor();
    for (const double e : {std::nan(""), -0.001}) {
        chip.sensor->noiseMagnitude = e;
        EXPECT_DEATH(runChips({chip}, 1), "noise");
    }
}

// ------------------------------------------------------ governor

TEST(Multicore, GrantAllGovernorMatchesNoGovernorBitIdentically)
{
    const CapturedTrace trace = noisyTrace(4000, 60, 0xbead);
    ChipSpec plain = chipOf(trace, 6, 0);
    plain.sensor = testSensor();

    ChipSpec governed = plain;
    // vRef pinned far above anything the rail can reach makes the
    // proportional term saturate the budget at N every cycle, so the
    // governor grants everything the sensors ask for.
    ChipGovernorConfig g;
    g.vRefFrac = 2.0;
    g.kp = 1.0;
    g.ki = 0.0;
    governed.governor = g;

    const auto a = runChips({plain}, 3000, BackendKind::Batched);
    const auto b = runChips({governed}, 3000, BackendKind::Batched);
    expectChipsEqual(a[0], b[0], "grant-all governor");
    EXPECT_EQ(b[0].gateDenials, 0u);
}

TEST(Multicore, RestrictiveGovernorDeniesAndStaysDeterministic)
{
    const CapturedTrace trace = noisyTrace(4000, 60, 0x50da);
    ChipSpec governed = chipOf(trace, 8, 0);  // synced: worst case
    governed.sensor = testSensor();
    ChipGovernorConfig g;
    g.kp = 0.25;  // budget ~2 of 8 at a full-band droop
    g.ki = 0.01;
    governed.governor = g;

    const auto a = runChips({governed}, 3000, BackendKind::Batched);
    ASSERT_EQ(a[0].cores.size(), 8u);
    // Synced cores trip together, so a 2-of-8 budget must deny.
    EXPECT_GT(a[0].gateDenials, 0u);
    EXPECT_GT(a[0].gateGrants, 0u);
    EXPECT_GT(a[0].gateFairness, 0.0);
    EXPECT_LE(a[0].gateFairness, 1.0);

    // Determinism: an identical second sim reproduces every field.
    const auto b = runChips({governed}, 3000, BackendKind::Batched);
    expectChipsEqual(a[0], b[0], "governor determinism");
}

// ------------------------------------------- governor arbitration

namespace {

/**
 * A governor whose EWMAs equal @p amps (alpha 1) and whose budget is
 * round(kp · err · N) clamped to [0, N], with the rail @p errBands
 * emergency bands below the setpoint (no integral term).
 */
ChipGovernor
governorAt(const std::vector<double> &amps, double kp, double errBands)
{
    ChipGovernorConfig cfg;
    cfg.kp = kp;
    cfg.ki = 0.0;
    cfg.vRefFrac = 1.0;
    cfg.ewmaAlpha = 1.0;
    ChipGovernor g(cfg, amps.size(), 1.0, 0.05);
    g.observe(1.0 - errBands * 0.05, amps.data());
    return g;
}

/** The indices @p g grants for @p req. */
std::vector<size_t>
grantsOf(ChipGovernor &g, const std::vector<uint8_t> &req)
{
    std::vector<uint8_t> grant;
    g.arbitrate(req, grant);
    EXPECT_EQ(grant.size(), req.size());
    std::vector<size_t> out;
    for (size_t i = 0; i < grant.size(); ++i)
        if (grant[i])
            out.push_back(i);
    return out;
}

} // namespace

TEST(ChipGovernor, NoRequestersNoGrants)
{
    ChipGovernor g = governorAt({3.0, 1.0, 2.0, 5.0}, 1.0, 1.0);
    EXPECT_EQ(g.budget(), 4u);
    EXPECT_TRUE(grantsOf(g, {0, 0, 0, 0}).empty());
}

TEST(ChipGovernor, CoveringBudgetGrantsExactlyTheRequesters)
{
    ChipGovernor g = governorAt({3.0, 9.0, 2.0, 5.0, 1.0}, 1.0, 1.0);
    EXPECT_EQ(g.budget(), 5u);
    EXPECT_EQ(grantsOf(g, {1, 0, 1, 1, 0}),
              (std::vector<size_t>{0, 2, 3}));
    // A budget of exactly the requester count covers them too.
    ChipGovernor h = governorAt({3.0, 9.0, 2.0, 5.0}, 0.5, 1.0);
    EXPECT_EQ(h.budget(), 2u);
    EXPECT_EQ(grantsOf(h, {0, 1, 1, 0}), (std::vector<size_t>{1, 2}));
}

TEST(ChipGovernor, ZeroBudgetGrantsTheHighestEwmaRequester)
{
    // The rail above the setpoint drives the budget to 0, and the
    // governor still grants one slot. Core 1 draws most but does not
    // ask, so the slot goes to core 3.
    ChipGovernor g = governorAt({3.0, 9.0, 2.0, 5.0, 4.0}, 1.0, -1.0);
    EXPECT_EQ(g.budget(), 0u);
    EXPECT_EQ(grantsOf(g, {1, 0, 1, 1, 1}), (std::vector<size_t>{3}));
}

TEST(ChipGovernor, EqualEwmasGoToTheLowestIndex)
{
    ChipGovernor g = governorAt({4.0, 4.0, 4.0, 4.0, 4.0, 4.0}, 1.0 / 3.0,
                                1.0);
    EXPECT_EQ(g.budget(), 2u);
    EXPECT_EQ(grantsOf(g, {0, 1, 0, 1, 1, 1}),
              (std::vector<size_t>{1, 3}));
}

TEST(ChipGovernor, SmallerBudgetGoesToTheHighestEwmaSet)
{
    ChipGovernor g = governorAt({6.0, 1.0, 8.0, 3.0, 7.0, 2.0, 9.0, 5.0},
                                0.375, 1.0);
    EXPECT_EQ(g.budget(), 3u);
    // Core 6 draws most but does not ask; of the asking cores 2, 4
    // and 0 draw most.
    EXPECT_EQ(grantsOf(g, {1, 1, 1, 1, 1, 1, 0, 1}),
              (std::vector<size_t>{0, 2, 4}));

    // Seeded draws with many equal EWMAs: the grants are the prefix a
    // stable sort of the requesters by EWMA descending picks.
    Rng rng(0xa4b17);
    for (int draw = 0; draw < 300; ++draw) {
        const size_t n = 1 + rng.below(80);
        std::vector<double> amps(n);
        for (double &a : amps)
            a = static_cast<double>(rng.below(6));
        std::vector<uint8_t> req(n);
        std::vector<size_t> order;
        for (size_t i = 0; i < n; ++i) {
            req[i] = rng.chance(0.6);
            if (req[i])
                order.push_back(i);
        }
        ChipGovernor h = governorAt(amps, rng.uniform(0.0, 1.5),
                                    rng.uniform(-0.5, 1.5));
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return amps[a] > amps[b];
                         });
        const size_t slots =
            std::min(std::max<size_t>(h.budget(), 1), order.size());
        order.resize(slots);
        std::sort(order.begin(), order.end());
        EXPECT_EQ(grantsOf(h, req), order) << "draw " << draw;
    }
}

TEST(ChipGovernor, WarmArbitrationAllocatesNothing)
{
    const size_t n = 64;
    std::vector<double> amps(n);
    for (size_t i = 0; i < n; ++i)
        amps[i] = static_cast<double>((i * 37) % 64);
    ChipGovernor g = governorAt(amps, 0.5, 1.0);
    ASSERT_EQ(g.budget(), 32u);  // binding: every core asks
    const std::vector<uint8_t> req(n, 1);
    std::vector<uint8_t> grant;
    g.arbitrate(req, grant);  // sizes the grant vector

    const std::uint64_t before =
        gAllocCount.load(std::memory_order_relaxed);
    size_t granted = 0;
    for (int r = 0; r < 1000; ++r) {
        g.arbitrate(req, grant);
        granted += static_cast<size_t>(
            std::count(grant.begin(), grant.end(), 1));
    }
    const std::uint64_t delta =
        gAllocCount.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(granted, 1000u * 32u);
    EXPECT_EQ(delta, 0u) << "warm arbitrate must not allocate";
}

// ------------------------------------------------- arbitration trace

TEST(Multicore, ArbitrateInstantCountsCoresPastTheMasks)
{
    // Cores 0-63 are parked at no draw and cores 64-69 run on a
    // package sized for six, so every request comes from a core the
    // 64-bit masks cannot show.
    const CapturedTrace trace = noisyTrace(4000, 60, 0x70c0);
    ChipSpec chip = chipOf(trace, 6, 0);
    chip.cores.insert(chip.cores.begin(), 64, CoreSlot{});
    chip.sensor = testSensor();

    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    const auto res = runChips({chip}, 3000, BackendKind::Batched);
    tracer.disable();
    const JsonValue doc =
        parseJsonOrDie(tracer.chromeJson(), "chip trace");
    tracer.reset();

    size_t instants = 0, allSix = 0;
    for (const JsonValue &ev :
         doc.at("traceEvents", "chip trace").items) {
        const JsonValue *name = ev.find("name");
        if (!name || name->str != "chip.arbitrate")
            continue;
        ++instants;
        const JsonValue &args = ev.at("args", "chip.arbitrate");
        EXPECT_EQ(args.at("req_mask", "args").number, 0.0);
        EXPECT_EQ(args.at("grants", "args").number,
                  args.at("requests", "args").number);
        allSix += args.at("requests", "args").number == 6.0;
    }
    EXPECT_GT(res[0].cores[64].gateRequests, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_GT(allSix, 0u);
}

// ------------------------------------------------- golden mini sweep

namespace {

/** Deterministic JSONL for a small cores × alignment chip sweep. */
std::string
miniChipSweepJsonl(BackendKind kind)
{
    const CapturedTrace trace = noisyTrace(8192, 60, 42);
    std::vector<ChipSpec> chips;
    std::vector<std::string> labels;
    for (const size_t n : {1u, 2u, 4u}) {
        for (const bool synced : {true, false}) {
            chips.push_back(chipOf(trace, n, synced ? 0 : 60 / n));
            labels.push_back(std::to_string(n) +
                             (synced ? ":synced" : ":staggered"));
        }
    }

    const auto results = runChips(chips, 8192, kind);

    std::string out;
    for (size_t i = 0; i < results.size(); ++i) {
        JsonWriter w;
        w.beginObject();
        w.field("config", labels[i]);
        w.field("cycles", results[i].cycles);
        w.field("minV", results[i].minV);
        w.field("maxV", results[i].maxV);
        w.field("lowEmergencyCycles", results[i].lowEmergencyCycles);
        w.field("highEmergencyCycles",
                results[i].highEmergencyCycles);
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

/**
 * Check @p actual against the checked-in golden @p file, or rewrite
 * the golden when VGUARD_UPDATE_GOLDEN is set.
 */
void
expectGolden(const std::string &file, const std::string &actual)
{
    const std::string goldenPath =
        std::string(VGUARD_GOLDEN_DIR) + "/" + file;
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
    const std::string expected = buf.str();

    if (expected != actual) {
        std::istringstream ea(expected), aa(actual);
        std::string el, al;
        int line = 1;
        while (std::getline(ea, el) && std::getline(aa, al) && el == al)
            ++line;
        ADD_FAILURE() << "golden mismatch at line " << line
                      << "\n  expected: " << el
                      << "\n  actual:   " << al;
    }
}

} // namespace

/**
 * Byte-pinned golden of the chip sweep, produced by the batched
 * backend and cross-checked against the scalar rendering. Regenerate
 * deliberately with
 *   VGUARD_UPDATE_GOLDEN=1 ./tests/test_multicore \
 *       --gtest_filter=Multicore.MiniChipSweepGolden
 */
TEST(Multicore, MiniChipSweepGolden)
{
    const std::string batched = miniChipSweepJsonl(BackendKind::Batched);
    const std::string scalar = miniChipSweepJsonl(BackendKind::Scalar);
    EXPECT_EQ(batched, scalar)
        << "batched and scalar chip sweeps render different bytes";
    expectGolden("mini_chip_sweep.jsonl", batched);
}

namespace {

/**
 * Deterministic JSONL for a closed-loop chip sweep: cores ×
 * alignment, every chip sensed, half of them governed, plus one
 * open-loop chip sharing the run and two chips whose sensors read
 * with noise. Each line carries the rail tally, the control counters
 * and every core's actuation counters.
 */
std::string
miniGovernedChipSweepJsonl(BackendKind kind)
{
    const CapturedTrace trace = noisyTrace(8192, 60, 42);
    ChipGovernorConfig restrictive;
    restrictive.kp = 0.25;
    restrictive.ki = 0.01;

    std::vector<ChipSpec> chips;
    std::vector<std::string> labels;
    bool govern = true;
    for (const size_t n : {1u, 2u, 4u}) {
        for (const bool synced : {true, false}) {
            chips.push_back(chipOf(trace, n, synced ? 0 : 30 / n, 3e-3));
            chips.back().sensor = testSensor();
            if (govern)
                chips.back().governor = restrictive;
            labels.push_back(std::to_string(n) +
                             (synced ? ":synced" : ":staggered") +
                             (govern ? ":governed" : ":sensed"));
            govern = !govern;
        }
        // Alternate which alignment is governed per core count.
        govern = !govern;
    }
    chips.push_back(chipOf(trace, 2, 0, 3e-3));
    labels.push_back("2:synced:open");

    // Noisy sensors: every core reads the rail with its own 5 mV error
    // stream, on a governed chip and on a sensed chip whose middle
    // core is parked.
    const CapturedTrace empty;
    SensorConfig noisy = testSensor();
    noisy.noiseMagnitude = 0.005;
    noisy.seed = 0x5eed1;
    chips.push_back(chipOf(trace, 4, 0, 3e-3));
    chips.back().sensor = noisy;
    chips.back().governor = restrictive;
    labels.push_back("4:synced:governed:noisy");
    noisy.seed = 0x5eed2;
    chips.push_back(chipOf(trace, 3, 5, 3e-3));
    chips.back().cores[1].trace = &empty;
    chips.back().sensor = noisy;
    labels.push_back("3:parked:sensed:noisy");

    const auto results = runChips(chips, 8192, kind);

    std::string out;
    for (size_t i = 0; i < results.size(); ++i) {
        const ChipResult &r = results[i];
        JsonWriter w;
        w.beginObject();
        w.field("config", labels[i]);
        w.field("cycles", r.cycles);
        w.field("minV", r.minV);
        w.field("maxV", r.maxV);
        w.field("lowEmergencyCycles", r.lowEmergencyCycles);
        w.field("highEmergencyCycles", r.highEmergencyCycles);
        w.key("hist").beginArray();
        for (size_t b = 0; b < r.voltageHist.bins(); ++b)
            w.value(r.voltageHist.count(b));
        w.endArray();
        w.field("gateGrants", r.gateGrants);
        w.field("gateDenials", r.gateDenials);
        w.field("gateFairness", r.gateFairness);
        w.key("cores").beginArray();
        for (const CoreStats &cs : r.cores) {
            w.beginObject();
            w.field("gated", cs.gatedCycles);
            w.field("phantom", cs.phantomCycles);
            w.field("requests", cs.gateRequests);
            w.field("denials", cs.gateDenials);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        out += w.take();
        out += '\n';
    }
    return out;
}

} // namespace

/**
 * Byte-pinned golden of closed-loop chips (sensors, governors and
 * an open chip in one run), cross-checked against the scalar
 * rendering. Regenerate deliberately with
 *   VGUARD_UPDATE_GOLDEN=1 ./tests/test_multicore \
 *       --gtest_filter=Multicore.MiniGovernedChipSweepGolden
 */
TEST(Multicore, MiniGovernedChipSweepGolden)
{
    const std::string batched =
        miniGovernedChipSweepJsonl(BackendKind::Batched);
    const std::string scalar =
        miniGovernedChipSweepJsonl(BackendKind::Scalar);
    EXPECT_EQ(batched, scalar)
        << "batched and scalar governed sweeps render different bytes";
    expectGolden("mini_governed_chip_sweep.jsonl", batched);
}
