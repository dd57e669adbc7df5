/**
 * @file
 * Tests for the open-loop trace-replay fast path (core/trace_cache):
 * replayed results must be bit-identical to full-core runs at any
 * block size, concurrent first calls on one cache key must collapse
 * to a single capture, campaign artifacts must stay byte-identical
 * across thread counts and with the cache toggled off, the committed
 * golden mini-campaign must be unchanged with the cache force-enabled,
 * and back-to-back VoltageSim::run() calls must continue the PDN
 * state exactly like one long run.
 *
 * Labeled `campaign` so the suite runs under TSan via
 *   cmake -B build-tsan -DVGUARD_SANITIZE=thread
 *   ctest --test-dir build-tsan -L campaign
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "core/trace_store.hpp"
#include "core/voltage_sim.hpp"
#include "pdn/package_model.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

namespace {

using namespace vguard;
using namespace vguard::core;

/** Every scalar + histogram field must match bit for bit. */
void
expectSameSim(const VoltageSimResult &a, const VoltageSimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.lowEmergencyCycles, b.lowEmergencyCycles);
    EXPECT_EQ(a.highEmergencyCycles, b.highEmergencyCycles);
    EXPECT_EQ(a.energyJ, b.energyJ); // bit-exact, same FP order
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    EXPECT_EQ(a.minV, b.minV);
    EXPECT_EQ(a.maxV, b.maxV);
    ASSERT_EQ(a.voltageHist.bins(), b.voltageHist.bins());
    for (size_t i = 0; i < a.voltageHist.bins(); ++i)
        EXPECT_EQ(a.voltageHist.count(i), b.voltageHist.count(i));
}

// ------------------------------------------------------------- key

// ------------------------------------------------------- env knobs

/**
 * Regression tests for the strict VGUARD_TRACE_CACHE /
 * VGUARD_TRACE_CACHE_MB parsing bugfix. The old code fed the env text
 * to strtoull semantics: "-5" wrapped to a near-2^64 MB budget,
 * "10abc" silently dropped its tail, and any non-"0" toggle text
 * counted as "on". All of those must now be rejected (the singleton
 * then logs a warning and keeps its default).
 */
TEST(TraceCacheEnv, StrictSizeParsing)
{
    size_t mb = 0;
    EXPECT_TRUE(parseTraceCacheMb("0", mb));
    EXPECT_EQ(mb, 0u);
    EXPECT_TRUE(parseTraceCacheMb("1024", mb));
    EXPECT_EQ(mb, 1024u);
    EXPECT_TRUE(parseTraceCacheMb("9999999", mb));
    EXPECT_EQ(mb, 9999999u);

    mb = 77;
    EXPECT_FALSE(parseTraceCacheMb("", mb));
    EXPECT_FALSE(parseTraceCacheMb("-5", mb));
    EXPECT_FALSE(parseTraceCacheMb("+5", mb));
    EXPECT_FALSE(parseTraceCacheMb("10abc", mb));
    EXPECT_FALSE(parseTraceCacheMb("abc10", mb));
    EXPECT_FALSE(parseTraceCacheMb(" 10", mb));
    EXPECT_FALSE(parseTraceCacheMb("10 ", mb));
    EXPECT_FALSE(parseTraceCacheMb("1e3", mb));
    EXPECT_FALSE(parseTraceCacheMb("0x10", mb));
    // Over the 7-digit cap: would overflow the MB→byte conversion.
    EXPECT_FALSE(parseTraceCacheMb("18446744073709551615", mb));
    EXPECT_FALSE(parseTraceCacheMb("10000000", mb));
    EXPECT_EQ(mb, 77u) << "rejected text must leave the value alone";
}

TEST(TraceCacheEnv, StrictEnableParsing)
{
    bool on = false;
    EXPECT_TRUE(parseTraceCacheEnabled("1", on));
    EXPECT_TRUE(on);
    EXPECT_TRUE(parseTraceCacheEnabled("on", on));
    EXPECT_TRUE(on);
    EXPECT_TRUE(parseTraceCacheEnabled("true", on));
    EXPECT_TRUE(on);
    EXPECT_TRUE(parseTraceCacheEnabled("0", on));
    EXPECT_FALSE(on);
    on = true;
    EXPECT_TRUE(parseTraceCacheEnabled("off", on));
    EXPECT_FALSE(on);
    on = true;
    EXPECT_TRUE(parseTraceCacheEnabled("false", on));
    EXPECT_FALSE(on);

    on = true;
    EXPECT_FALSE(parseTraceCacheEnabled("", on));
    EXPECT_FALSE(parseTraceCacheEnabled("maybe", on));
    EXPECT_FALSE(parseTraceCacheEnabled("ON", on));
    EXPECT_FALSE(parseTraceCacheEnabled("True", on));
    EXPECT_FALSE(parseTraceCacheEnabled("yes", on));
    EXPECT_FALSE(parseTraceCacheEnabled("2", on));
    EXPECT_TRUE(on) << "rejected text must leave the value alone";
}

TEST(TraceKey, DistinguishesEveryComponent)
{
    const Machine m = referenceMachine();
    const isa::Program pa = workloads::buildSpecProxy("gzip");
    const isa::Program pb = workloads::buildSpecProxy("swim");

    const std::string base = traceKey(pa, m.cpu, m.power, 1000, ~0ull);
    EXPECT_EQ(base, traceKey(pa, m.cpu, m.power, 1000, ~0ull));

    EXPECT_NE(base, traceKey(pb, m.cpu, m.power, 1000, ~0ull));
    EXPECT_NE(base, traceKey(pa, m.cpu, m.power, 1001, ~0ull));
    EXPECT_NE(base, traceKey(pa, m.cpu, m.power, 1000, 500));

    cpu::CpuConfig cpu2 = m.cpu;
    cpu2.issueWidth += 1;
    EXPECT_NE(base, traceKey(pa, cpu2, m.power, 1000, ~0ull));

    power::PowerConfig pw2 = m.power;
    pw2.gatedFrac *= 1.5;
    EXPECT_NE(base, traceKey(pa, m.cpu, pw2, 1000, ~0ull));
}

// ---------------------------------------------------- replay identity

/**
 * Full-core open-loop run with capture, then replays at several block
 * sizes (1 = the per-cycle path, 7 = a misaligned block, the default,
 * and one bigger than the whole trace). Everything — scalars,
 * histogram, stats snapshot, emergency-event log — must be
 * byte-identical.
 */
TEST(TraceReplay, MatchesFullRunStateSpace)
{
    RunSpec rs;
    rs.controllerEnabled = false;
    rs.maxCycles = 4000;
    const VoltageSimConfig cfg = makeSimConfig(rs);
    const isa::Program prog = workloads::buildSpecProxy("ammp");

    CapturedTrace trace;
    VoltageSim full(cfg, prog);
    const VoltageSimResult ref =
        full.run(rs.maxCycles, rs.maxInsts, &trace);
    ASSERT_EQ(trace.amps.size(), ref.cycles);
    ASSERT_EQ(trace.activity.size(), trace.amps.size());
    EXPECT_EQ(trace.committed, ref.committed);

    for (size_t block :
         {size_t{1}, size_t{7}, VoltageSim::kBlockCycles,
          size_t{100000}}) {
        VoltageSim sim(cfg, prog);
        const VoltageSimResult rep = sim.runReplay(trace, block);
        expectSameSim(ref, rep);
        EXPECT_EQ(ref.stats.json(), rep.stats.json())
            << "block=" << block;
        EXPECT_EQ(ref.events.jsonl(), rep.events.jsonl())
            << "block=" << block;
    }
}

TEST(TraceReplay, ReusableAcrossPackages)
{
    // The point of excluding the package from the key: one capture
    // replayed against a different impedance must equal that package's
    // own full-core run.
    RunSpec rs;
    rs.controllerEnabled = false;
    rs.maxCycles = 3000;
    rs.impedanceScale = 1.0;
    const isa::Program prog = workloads::buildSpecProxy("mcf");

    CapturedTrace trace;
    VoltageSim capSim(makeSimConfig(rs), prog);
    capSim.run(rs.maxCycles, rs.maxInsts, &trace);

    RunSpec other = rs;
    other.impedanceScale = 3.0;
    const VoltageSimConfig otherCfg = makeSimConfig(other);
    VoltageSim fullOther(otherCfg, prog);
    const VoltageSimResult ref = fullOther.run(other.maxCycles);
    VoltageSim repOther(otherCfg, prog);
    const VoltageSimResult rep = repOther.runReplay(trace);
    expectSameSim(ref, rep);
    EXPECT_EQ(ref.stats.json(), rep.stats.json());
    EXPECT_EQ(ref.events.jsonl(), rep.events.jsonl());
}

// --------------------------------------------- cache concurrency

TEST(TraceCacheConcurrency, ConcurrentFirstCallsCaptureOnce)
{
    TraceCache &tc = TraceCache::instance();
    tc.setEnabled(true);
    // A configured persistent store would serve this key from disk
    // (a hit instead of the capture this test counts) — disable it.
    TraceStore::instance().configure("", 0);
    // Warm the shared experiment caches first (the power-virus trace
    // seeded by referenceCurrentRange() counts as a capture), so the
    // deltas below belong to this test's key alone.
    referenceCurrentRange();

    const isa::Program prog = workloads::buildSpecProxy("gzip");
    RunSpec rs;
    rs.controllerEnabled = false;
    rs.maxCycles = 1717; // fresh key: no other test uses this limit

    const uint64_t capBefore = tc.captures();
    const uint64_t hitBefore = tc.hits();

    std::vector<VoltageSimResult> results(8);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t)
        threads.emplace_back(
            [&, t] { results[t] = runWorkload(prog, rs); });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(tc.captures() - capBefore, 1u)
        << "concurrent first calls must collapse to one capture";
    EXPECT_EQ(tc.hits() - hitBefore, 7u);

    // Capturer and replayers alike must equal a cache-bypassing run.
    tc.setEnabled(false);
    const VoltageSimResult full = runWorkload(prog, rs);
    tc.setEnabled(true);
    for (const auto &r : results) {
        expectSameSim(full, r);
        EXPECT_EQ(full.stats.json(), r.stats.json());
        EXPECT_EQ(full.events.jsonl(), r.events.jsonl());
    }
}

// ------------------------------------------------ campaign determinism

/**
 * Open-loop-heavy mix: two programs x three packages share one trace
 * key per program (the cross-package reuse case), plus one
 * closed-loop job the cache must leave alone.
 */
std::vector<CampaignJob>
openLoopJobs()
{
    std::vector<CampaignJob> jobs;
    for (const char *name : {"gzip", "swim"})
        for (double scale : {1.0, 2.0, 3.0}) {
            RunSpec rs;
            rs.impedanceScale = scale;
            rs.controllerEnabled = false;
            rs.maxCycles = 2503; // fresh cache key for this test
            jobs.push_back({std::string(name) + "-s" +
                                std::to_string(static_cast<int>(scale)),
                            workloads::buildSpecProxy(name), rs, false});
        }
    RunSpec ctl;
    ctl.controllerEnabled = true;
    ctl.delayCycles = 2;
    ctl.maxCycles = 2503;
    jobs.push_back(
        {"gzip-ctl", workloads::buildSpecProxy("gzip"), ctl, false});
    return jobs;
}

TEST(TraceCacheCampaign, ByteIdenticalAcrossThreadsAndCacheToggle)
{
    TraceCache &tc = TraceCache::instance();
    tc.setEnabled(true);
    // Store hits would replace the captures this test counts below.
    TraceStore::instance().configure("", 0);
    // Warm the lazy experiment caches (the virus-trace put counts as a
    // capture) so the deltas below belong to this campaign's keys.
    referenceCurrentRange();
    const uint64_t capBefore = tc.captures();
    const uint64_t hitBefore = tc.hits();

    CampaignEngine::Options base;
    base.campaignSeed = 0xabcdef;

    std::vector<CampaignResult> results;
    for (unsigned threads : {1u, 2u, 8u}) {
        CampaignEngine::Options o = base;
        o.threads = threads;
        results.push_back(CampaignEngine(o).run(openLoopJobs()));
    }
    for (size_t r = 1; r < results.size(); ++r) {
        EXPECT_EQ(results[r].jsonl(), results[0].jsonl());
        EXPECT_EQ(results[r].mergedStats.json(),
                  results[0].mergedStats.json());
        EXPECT_EQ(results[r].eventsJsonl(), results[0].eventsJsonl());
    }

    // Two distinct keys (gzip/swim at 2503 cycles); the other 16
    // open-loop legs replayed — proof the fast path actually engaged.
    EXPECT_EQ(tc.captures() - capBefore, 2u);
    EXPECT_EQ(tc.hits() - hitBefore, 16u);

    // Cache off: every leg is a fresh full-core run — same bytes.
    tc.setEnabled(false);
    CampaignEngine::Options o = base;
    o.threads = 2;
    const CampaignResult off = CampaignEngine(o).run(openLoopJobs());
    tc.setEnabled(true);
    EXPECT_EQ(off.jsonl(), results[0].jsonl());
    EXPECT_EQ(off.mergedStats.json(), results[0].mergedStats.json());
    EXPECT_EQ(off.eventsJsonl(), results[0].eventsJsonl());
}

// --------------------------------------------------- golden (cache on)

TEST(TraceCacheGolden, MiniCampaignUnchangedWithCacheEnabled)
{
    if (std::getenv("VGUARD_UPDATE_GOLDEN"))
        GTEST_SKIP() << "golden being regenerated by test_campaign";

    // Same pinned mini-campaign as Golden.MiniCampaignJsonl, with the
    // trace cache force-enabled: replaying the uncontrolled leg must
    // not move a byte of the committed artifact.
    TraceCache &tc = TraceCache::instance();
    tc.setEnabled(true);

    const auto cal = workloads::StressmarkBuilder::calibrate(
        pdn::PackageModel(referencePackage(2.0)).resonantPeriodCycles(),
        referenceMachine().cpu);
    const auto stress = workloads::StressmarkBuilder::build(cal.params);

    RunSpec uncontrolled;
    uncontrolled.impedanceScale = 2.0;
    uncontrolled.controllerEnabled = false;
    uncontrolled.maxCycles = 3000;

    RunSpec ideal = uncontrolled;
    ideal.controllerEnabled = true;
    ideal.delayCycles = 2;
    ideal.actuator = ActuatorKind::Ideal;

    RunSpec noisy = ideal;
    noisy.sensorError = 0.005;
    noisy.actuator = ActuatorKind::FuDl1Il1;

    std::vector<CampaignJob> jobs{
        {"stressmark-uncontrolled", stress, uncontrolled, false},
        {"stressmark-ideal-d2", stress, ideal, false},
        {"stressmark-noisy-fu3-d2", stress, noisy, false},
    };

    CampaignEngine::Options o;
    o.threads = 2;
    o.campaignSeed = 0xc0ffee;
    const std::string actual =
        CampaignEngine(o).run(std::move(jobs)).jsonl();

    const std::string goldenPath =
        std::string(VGUARD_GOLDEN_DIR) + "/mini_campaign.jsonl";
    std::ifstream in(goldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << goldenPath
        << " — generate with VGUARD_UPDATE_GOLDEN=1 ./test_campaign";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), actual);
}

// ----------------------------------- back-to-back run() continuity

/**
 * Two run(N) calls on one sim must continue the PDN state exactly
 * where the first left off: per-cycle voltages (pinned via exact
 * histogram-count sums, min/max and emergency counts) match a single
 * run(2N) on a fresh sim.
 */
TEST(RunContinuity, BackToBackRunsMatchOneLongRunStateSpace)
{
    RunSpec rs;
    rs.controllerEnabled = false;
    const VoltageSimConfig cfg = makeSimConfig(rs);
    const isa::Program prog = workloads::phasedKernel(400);
    const uint64_t half = 1500; // not a multiple of any block size

    VoltageSim split(cfg, prog);
    const VoltageSimResult r1 = split.run(half);
    const VoltageSimResult r2 = split.run(half);
    ASSERT_EQ(r1.cycles, half);
    ASSERT_EQ(r2.cycles, half);

    VoltageSim whole(cfg, prog);
    const VoltageSimResult full = whole.run(2 * half);
    ASSERT_EQ(full.cycles, 2 * half);

    // Exact per-cycle voltage agreement, observed through integer
    // aggregates (bin counts bucket every cycle's exact voltage).
    ASSERT_EQ(full.voltageHist.bins(), r1.voltageHist.bins());
    for (size_t i = 0; i < full.voltageHist.bins(); ++i)
        EXPECT_EQ(full.voltageHist.count(i),
                  r1.voltageHist.count(i) + r2.voltageHist.count(i))
            << "bin " << i;
    EXPECT_EQ(full.minV, std::min(r1.minV, r2.minV));
    EXPECT_EQ(full.maxV, std::max(r1.maxV, r2.maxV));
    EXPECT_EQ(full.lowEmergencyCycles,
              r1.lowEmergencyCycles + r2.lowEmergencyCycles);
    EXPECT_EQ(full.highEmergencyCycles,
              r1.highEmergencyCycles + r2.highEmergencyCycles);
    // committed is cumulative core state, energy a split FP sum.
    EXPECT_EQ(full.committed, r2.committed);
    EXPECT_NEAR(full.energyJ, r1.energyJ + r2.energyJ,
                1e-12 * full.energyJ);
}

} // namespace
