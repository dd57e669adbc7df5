/**
 * @file
 * Tests for the trace-replay fast paths (core/trace_cache):
 * replayed results must be bit-identical to full-core runs at any
 * block size, concurrent first calls on one cache key must collapse
 * to a single capture, campaign artifacts must stay byte-identical
 * across thread counts and with the cache toggled off, and the
 * committed golden mini-campaign must be unchanged with the cache
 * force-enabled.
 *
 * The passive closed loop (VoltageSim::runSensedReplay behind
 * runWorkload) must serve passive legs and give up on acting ones at
 * their first non-Normal cycle, with results, stats and events equal
 * to the full closed loop's; the hit-only lookup must never capture
 * and never expose a half-written trace.
 *
 * Labeled `campaign` so the suite runs under TSan via
 *   cmake -B build-tsan -DVGUARD_SANITIZE=thread
 *   ctest --test-dir build-tsan -L campaign
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
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
#include "fuzz_inputs.hpp"
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

/** expectSameSim plus the actuation counts, stats and events. */
void
expectSameRun(const VoltageSimResult &a, const VoltageSimResult &b)
{
    expectSameSim(a, b);
    EXPECT_EQ(a.gatedCycles, b.gatedCycles);
    EXPECT_EQ(a.phantomCycles, b.phantomCycles);
    EXPECT_EQ(a.lowTriggers, b.lowTriggers);
    EXPECT_EQ(a.highTriggers, b.highTriggers);
    EXPECT_EQ(a.stats.json(), b.stats.json());
    EXPECT_EQ(a.events.jsonl(), b.events.jsonl());
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

TEST(TraceCacheConcurrency, FindNeverSeesAPartialTrace)
{
    TraceCache &tc = TraceCache::instance();
    tc.setEnabled(true);
    TraceStore::instance().configure("", 0);

    // A synthetic trace, long enough that a reader racing the capture
    // would catch it half-written if find() did not synchronize.
    const std::string key = "find-race-test-key";
    const size_t n = 200000;
    const auto capture = [&] {
        CapturedTrace t;
        for (size_t i = 0; i < n; ++i) {
            t.amps.push_back(static_cast<double>(i));
            t.activity.emplace_back();
        }
        t.committed = n / 2;
        return t;
    };
    const auto complete = [&](const CapturedTrace *t) {
        if (t->cycles() != n || t->committed != n / 2)
            return false;
        for (size_t i = 0; i < n; i += 997)
            if (t->ampsData()[i] != static_cast<double>(i))
                return false;
        return true;
    };

    EXPECT_EQ(tc.find(key), nullptr);
    std::atomic<bool> done{false};
    size_t seen = 0;
    bool allComplete = true;
    std::thread reader([&] {
        while (!done.load()) {
            if (const CapturedTrace *t = tc.find(key)) {
                ++seen;
                allComplete = allComplete && complete(t);
            }
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < 8; ++w)
        writers.emplace_back([&] {
            CapturedTrace own;
            tc.fetchOrCapture(key, own, capture);
        });
    for (auto &t : writers)
        t.join();
    done.store(true);
    reader.join();

    EXPECT_TRUE(allComplete) << seen << " lookups hit";
    const CapturedTrace *t = tc.find(key);
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(complete(t));
}

// ---------------------------------------------------- byte budget

/**
 * Over the byte budget every fetch still returns a trace of its own:
 * the first call on a key keeps the capture it ran, each later call
 * captures afresh, and each fetch counts one miss and no hit. With the
 * cache off a fetch only captures. The budget is read once, when the
 * cache singleton is built, so the checks run in a fresh process with
 * VGUARD_TRACE_CACHE_MB=0: a threadsafe-style death test re-executes
 * this binary for its statement.
 */
TEST(TraceCacheBudget, EveryFetchReturnsATraceAndCountsOnce)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    setenv("VGUARD_TRACE_CACHE_MB", "0", 1);
    EXPECT_EXIT(
        {
            TraceStore::instance().configure("", 0);
            TraceCache &tc = TraceCache::instance();
            std::atomic<uint64_t> runs{0};
            const auto capture = [&] {
                ++runs;
                CapturedTrace t;
                t.amps.assign(64, 1.5);
                t.activity.resize(64);
                t.committed = 32;
                return t;
            };
            const auto fetchOwn = [&](const char *key) {
                CapturedTrace own;
                const CapturedTrace &t =
                    tc.fetchOrCapture(key, own, capture);
                return &t == &own && t.cycles() == 64 && t.committed == 32;
            };
            std::atomic<unsigned> owned{0};
            std::vector<std::thread> threads;
            for (int i = 0; i < 8; ++i)
                threads.emplace_back([&] { owned += fetchOwn("budget"); });
            for (auto &t : threads)
                t.join();
            std::fprintf(stderr,
                         "owned %u runs %llu captures %llu hits %llu "
                         "misses %llu evicts %llu entries %zu\n",
                         owned.load(),
                         static_cast<unsigned long long>(runs.load()),
                         static_cast<unsigned long long>(tc.captures()),
                         static_cast<unsigned long long>(tc.hits()),
                         static_cast<unsigned long long>(tc.misses()),
                         static_cast<unsigned long long>(tc.evicts()),
                         tc.entries());
            bool ok = owned == 8 && runs == 8 && tc.captures() == 8 &&
                      tc.hits() == 0 && tc.misses() == 8 &&
                      tc.evicts() == 1 && tc.entries() == 0 &&
                      tc.bytes() == 0 && !tc.find("budget");

            tc.setEnabled(false);
            ok = ok && fetchOwn("off") && runs == 9 &&
                 tc.captures() == 8 && tc.misses() == 8;
            std::exit(ok ? 0 : 1);
        },
        testing::ExitedWithCode(0), "");
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    unsetenv("VGUARD_TRACE_CACHE_MB");
}

// ------------------------------------------------- passive closed loop

/** Closed-loop spec of the passive-loop tests. */
RunSpec
closedSpec(unsigned delay, double error, ActuatorKind actuator,
           uint64_t cycles)
{
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = delay;
    rs.sensorError = error;
    rs.actuator = actuator;
    rs.maxCycles = cycles;
    return rs;
}

/** Open-loop trace of (program, spec's limits), captured directly. */
CapturedTrace
captureOpenLoop(const isa::Program &prog, RunSpec rs)
{
    rs.controllerEnabled = false;
    CapturedTrace t;
    VoltageSim sim(makeSimConfig(rs), prog);
    sim.run(rs.maxCycles, rs.maxInsts, &t);
    return t;
}

/**
 * The first cycle whose sensor level is not Normal in the closed loop
 * of (prog, rs), or rs.maxCycles if none: the actuator acts from the
 * next cycle, so the core reports gating or phantom firing one cycle
 * after that level.
 */
uint64_t
firstActingCycle(const isa::Program &prog, const RunSpec &rs,
                 bool &gatedFirst)
{
    VoltageSim sim(makeSimConfig(rs), prog);
    for (uint64_t c = 0; c < rs.maxCycles && !sim.halted(); ++c) {
        const TraceSample s = sim.step();
        if (s.gated || s.phantom) {
            gatedFirst = s.gated;
            return c - 1;
        }
    }
    return rs.maxCycles;
}

/**
 * The sensed replay serves a leg whose sensor stays Normal and gives
 * up on one that acts, exactly at its first non-Normal cycle: limited
 * to that cycle the leg still replays, one cycle later it does not,
 * and the full loop then reports the single trigger the actuator
 * counted on that last cycle.
 */
TEST(PassiveClosedLoop, SensedReplayServesPassiveAndAbortsAtFirstAct)
{
    const uint64_t cycles = 3000;
    size_t passive = 0, acting = 0, lowEdge = 0;
    for (const auto &name : workloads::emergencySetNames()) {
        const isa::Program prog = workloads::buildSpecProxy(name);
        for (const double error : {0.0, 0.020}) {
            const RunSpec rs =
                closedSpec(2, error, ActuatorKind::Ideal, cycles);
            const VoltageSimConfig cfg = makeSimConfig(rs);
            bool gatedFirst = false;
            const uint64_t f = firstActingCycle(prog, rs, gatedFirst);
            SCOPED_TRACE(name + " error " + std::to_string(error) +
                         " first act " + std::to_string(f));

            VoltageSim full(cfg, prog);
            const VoltageSimResult ref = full.run(cycles);
            VoltageSim rep(cfg, prog);
            const std::optional<VoltageSimResult> got =
                rep.runSensedReplay(captureOpenLoop(prog, rs));
            if (f >= ref.cycles) {
                ++passive;
                EXPECT_EQ(ref.lowTriggers + ref.highTriggers, 0u);
                ASSERT_TRUE(got.has_value());
                expectSameRun(ref, *got);
                continue;
            }
            ++acting;
            EXPECT_FALSE(got.has_value());

            // Up to the acting cycle the leg is still passive.
            RunSpec upTo = rs;
            upTo.maxCycles = f;
            VoltageSim fullUpTo(cfg, prog);
            const VoltageSimResult refUpTo = fullUpTo.run(f);
            VoltageSim repUpTo(cfg, prog);
            const std::optional<VoltageSimResult> gotUpTo =
                repUpTo.runSensedReplay(captureOpenLoop(prog, upTo));
            ASSERT_TRUE(gotUpTo.has_value());
            expectSameRun(refUpTo, *gotUpTo);

            // One cycle more: the last cycle acts, so the replay gives
            // up, and the full loop counts one trigger and one cycle.
            RunSpec edge = rs;
            edge.maxCycles = f + 1;
            VoltageSim repEdge(cfg, prog);
            EXPECT_FALSE(
                repEdge.runSensedReplay(captureOpenLoop(prog, edge))
                    .has_value());
            VoltageSim fullEdge(cfg, prog);
            const VoltageSimResult refEdge = fullEdge.run(f + 1);
            EXPECT_EQ(refEdge.lowTriggers, gatedFirst ? 1u : 0u);
            EXPECT_EQ(refEdge.highTriggers, gatedFirst ? 0u : 1u);
            EXPECT_EQ(refEdge.gatedCycles + refEdge.phantomCycles, 1u);
            lowEdge += gatedFirst ? 1 : 0;
        }
    }
    EXPECT_GT(passive, 0u) << "no passive leg: the replay never served";
    EXPECT_GT(acting, 0u) << "no acting leg: the abort never ran";
    EXPECT_GT(lowEdge, 0u) << "no leg first acted on a Low reading";
}

/**
 * The last-cycle edge through runWorkload: with the open-loop trace
 * warm, a leg whose last cycle is its first non-Normal one falls back
 * to the full loop and reports lowTriggers 1, as the cold path does.
 */
TEST(PassiveClosedLoop, LastCycleActFallsBackToFullLoop)
{
    TraceCache &tc = TraceCache::instance();
    tc.setEnabled(true);
    TraceStore::instance().configure("", 0);

    const isa::Program prog = workloads::buildSpecProxy("swim");
    RunSpec rs = closedSpec(2, 0.020, ActuatorKind::Ideal, 3000);
    bool gatedFirst = false;
    const uint64_t f = firstActingCycle(prog, rs, gatedFirst);
    ASSERT_LT(f, rs.maxCycles) << "20 mV legs act within a few cycles";
    ASSERT_TRUE(gatedFirst);
    rs.maxCycles = f + 1;

    RunSpec open = rs;
    open.controllerEnabled = false;
    runWorkload(prog, open);
    ASSERT_NE(tc.find(openLoopKey(prog, rs)), nullptr);

    const VoltageSimResult warm = runWorkload(prog, rs);
    tc.setEnabled(false);
    const VoltageSimResult off = runWorkload(prog, rs);
    tc.setEnabled(true);
    EXPECT_EQ(warm.cycles, f + 1);
    EXPECT_EQ(warm.lowTriggers, 1u);
    EXPECT_EQ(warm.gatedCycles, 1u);
    expectSameRun(off, warm);
}

TEST(PassiveClosedLoop, ColdCacheMakesNoCaptures)
{
    TraceCache &tc = TraceCache::instance();
    tc.setEnabled(true);
    TraceStore::instance().configure("", 0);
    const isa::Program prog = workloads::buildSpecProxy("gcc");
    const RunSpec rs = closedSpec(1, 0.0, ActuatorKind::Ideal, 2111);
    // Warm the shared experiment caches (thresholds, the virus trace)
    // so the counts below belong to the closed-loop run alone.
    makeSimConfig(rs);
    const std::string key = openLoopKey(prog, rs);
    ASSERT_EQ(tc.find(key), nullptr);

    const uint64_t captures = tc.captures();
    const uint64_t hits = tc.hits();
    const uint64_t misses = tc.misses();
    const size_t entries = tc.entries();
    runWorkload(prog, rs);
    EXPECT_EQ(tc.captures(), captures);
    EXPECT_EQ(tc.hits(), hits);
    EXPECT_EQ(tc.misses(), misses);
    EXPECT_EQ(tc.entries(), entries);
    EXPECT_EQ(tc.find(key), nullptr);
}

/**
 * compareControlled and a plain closed-loop runWorkload over SPEC-8
 * proxies and random programs x delays 0-6 x sensor error 0/5/20 mV x
 * the four actuators: with the cache warm (passive legs replayed) and
 * with it off (every leg on the full core) every result field, stats
 * snapshot and event log must match.
 */
TEST(PassiveClosedLoop, MatchesFullLoopAcrossDelaysErrorsActuators)
{
    TraceCache &tc = TraceCache::instance();
    TraceStore::instance().configure("", 0);
    std::vector<std::pair<std::string, isa::Program>> programs;
    for (const auto &name : workloads::emergencySetNames())
        programs.emplace_back(name, workloads::buildSpecProxy(name));
    for (const uint64_t seed : {11u, 29u})
        programs.emplace_back("random" + std::to_string(seed),
                              fuzz::randomProgram(seed));

    size_t passive = 0, acting = 0;
    for (const auto &[name, prog] : programs)
        for (unsigned delay = 0; delay <= 6; ++delay)
            for (const double error : {0.0, 0.005, 0.020})
                for (const ActuatorKind act :
                     {ActuatorKind::Ideal, ActuatorKind::Fu,
                      ActuatorKind::FuDl1, ActuatorKind::FuDl1Il1}) {
                    const RunSpec rs =
                        closedSpec(delay, error, act, 2000);
                    SCOPED_TRACE(name + " d" + std::to_string(delay) +
                                 " e" + std::to_string(error) + " " +
                                 actuatorName(act));
                    tc.setEnabled(false);
                    const Comparison cmpOff = compareControlled(prog, rs);
                    const VoltageSimResult plainOff =
                        runWorkload(prog, rs);
                    tc.setEnabled(true);
                    const Comparison cmpWarm =
                        compareControlled(prog, rs);
                    const VoltageSimResult plainWarm =
                        runWorkload(prog, rs);

                    expectSameRun(cmpOff.baseline, cmpWarm.baseline);
                    expectSameRun(cmpOff.controlled, cmpWarm.controlled);
                    EXPECT_EQ(cmpOff.perfLossPct, cmpWarm.perfLossPct);
                    EXPECT_EQ(cmpOff.energyIncreasePct,
                              cmpWarm.energyIncreasePct);
                    expectSameRun(plainOff, plainWarm);

                    const VoltageSimResult &c = cmpWarm.controlled;
                    (c.lowTriggers + c.highTriggers == 0 ? passive
                                                         : acting)++;
                }
    EXPECT_GT(passive, 0u);
    EXPECT_GT(acting, 0u);
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

    const auto &cal = referenceStressmark();
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

} // namespace
