/**
 * @file
 * Tests for the parallel campaign engine: the determinism property
 * (thread count never changes results or JSONL bytes), the
 * thread-safety of the shared experiment caches (single solver
 * invocation per key under concurrent first calls), per-run seed
 * derivation, index-order job claiming, capture-first dispatch
 * order, CLI parsing, and a committed golden-trace regression that
 * pins the stressmark mini-campaign byte-for-byte.
 *
 * Run the `campaign` ctest label under TSan via
 *   cmake -B build-tsan -DVGUARD_SANITIZE=thread
 *   ctest --test-dir build-tsan -L campaign
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "obs/tracing.hpp"
#include "util/json_parse.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

namespace {

using namespace vguard;
using namespace vguard::core;

// ------------------------------------------------------- seed derivation

TEST(SeedDerivation, PureAndDistinct)
{
    // Same (campaignSeed, index) -> same seed, always.
    EXPECT_EQ(deriveRunSeed(42, 0), deriveRunSeed(42, 0));

    // Neighbouring indices and campaign seeds give distinct streams.
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 64; ++i)
        seeds.push_back(deriveRunSeed(42, i));
    for (uint64_t i = 0; i < 64; ++i)
        seeds.push_back(deriveRunSeed(43, i));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end())
        << "derived run seeds must be unique";
}

// ------------------------------------------------------------ JSON writer

TEST(JsonWriter, DeterministicShape)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "a\"b\\c");
    w.field("n", uint64_t{7});
    w.field("x", 0.5);
    w.field("flag", true);
    w.key("arr").beginArray().value(1).value(2).endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"name\":\"a\\\"b\\\\c\",\"n\":7,\"x\":0.5,"
                       "\"flag\":true,\"arr\":[1,2]}");
}

TEST(JsonWriter, NumbersRoundTrip)
{
    // Shortest-form rendering is exact: parsing the text recovers the
    // identical double.
    for (double v : {0.9843523272994703, 1e-30, 3.0, -2.5e17}) {
        const std::string s = JsonWriter::number(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

// -------------------------------------------------------------- CLI

TEST(CampaignCli, ParsesFlagsAndPositionals)
{
    const char *argv[] = {"prog",     "2.5",       "--threads", "8",
                          "--seed=7", "--jsonl",   "out.jsonl", "3"};
    const CampaignCli cli =
        parseCampaignCli(8, const_cast<char **>(argv));
    EXPECT_EQ(cli.options.threads, 8u);
    EXPECT_EQ(cli.options.campaignSeed, 7u);
    EXPECT_EQ(cli.jsonlPath, "out.jsonl");
    ASSERT_EQ(cli.positional.size(), 2u);
    EXPECT_EQ(cli.positional[0], "2.5");
    EXPECT_EQ(cli.positional[1], "3");
}

TEST(CampaignCli, RejectsNegativeValues)
{
    // Regression: strtoull silently wraps "-4" to 2^64 - 4, so a
    // mistyped negative thread count or seed used to be accepted as a
    // huge positive value instead of failing loudly.
    const char *threads[] = {"prog", "--threads", "-4"};
    EXPECT_EXIT(parseCampaignCli(3, const_cast<char **>(threads)),
                ::testing::ExitedWithCode(1), "non-negative");
    const char *seed[] = {"prog", "--seed=-1"};
    EXPECT_EXIT(parseCampaignCli(2, const_cast<char **>(seed)),
                ::testing::ExitedWithCode(1), "non-negative");
}

TEST(CampaignCli, RejectsOutOfRangeAndGarbage)
{
    const char *huge[] = {"prog", "--seed", "99999999999999999999999"};
    EXPECT_EXIT(parseCampaignCli(3, const_cast<char **>(huge)),
                ::testing::ExitedWithCode(1), "out of range");
    const char *text[] = {"prog", "--threads", "many"};
    EXPECT_EXIT(parseCampaignCli(3, const_cast<char **>(text)),
                ::testing::ExitedWithCode(1), "expected a number");
    // Fits uint64_t but not the unsigned thread count: used to
    // truncate to 0 (= every hardware thread) instead of failing.
    const char *wide[] = {"prog", "--threads", "4294967296"};
    EXPECT_EXIT(parseCampaignCli(3, const_cast<char **>(wide)),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(CampaignCli, RejectsUnknownFlags)
{
    // A misspelt flag used to pass as an ignored positional: "--thread
    // 1 --jsonll out.jsonl" ran on every hardware thread, wrote
    // nothing and exited 0.
    const char *typo[] = {"prog", "--thread", "1"};
    EXPECT_EXIT(parseCampaignCli(3, const_cast<char **>(typo)),
                ::testing::ExitedWithCode(1), "unknown option '--thread'");
    const char *inlined[] = {"prog", "--jsonll=x"};
    EXPECT_EXIT(parseCampaignCli(2, const_cast<char **>(inlined)),
                ::testing::ExitedWithCode(1),
                "unknown option '--jsonll=x'");
    // An output the binary does not write is refused as well: Table 3
    // used to accept --jsonl, --stats-json and --events and write none.
    const char *unwritten[] = {"prog", "--jsonl", "x.jsonl"};
    EXPECT_EXIT(parseCampaignCli(3, const_cast<char **>(unwritten),
                                 kTraceOutput),
                ::testing::ExitedWithCode(1),
                "--jsonl: this program does not write it");
    const char *events[] = {"prog", "--events=x.jsonl"};
    EXPECT_EXIT(parseCampaignCli(2, const_cast<char **>(events),
                                 kJsonlOutput | kTraceOutput),
                ::testing::ExitedWithCode(1),
                "--events: this program does not write it");
    const char *written[] = {"prog", "--trace-canonical", "c.jsonl"};
    EXPECT_EQ(parseCampaignCli(3, const_cast<char **>(written),
                               kTraceOutput)
                  .traceCanonicalPath,
              "c.jsonl");
    obs::Tracer::instance().disable();
}

TEST(CampaignCli, AcceptsWhitespaceAndPlusSign)
{
    // Leading whitespace and an explicit '+' remain valid (strtoull
    // semantics) — only the sign that wraps is rejected.
    const char *argv[] = {"prog", "--threads", " +3", "--seed", "\t9"};
    const CampaignCli cli =
        parseCampaignCli(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.options.threads, 3u);
    EXPECT_EQ(cli.options.campaignSeed, 9u);
}

// ------------------------------------------------- determinism property

/** A small mixed campaign: plain + compare jobs, noise + no noise. */
std::vector<CampaignJob>
mixedJobs()
{
    std::vector<CampaignJob> jobs;
    const std::vector<std::string> names{"gzip", "swim", "galgel",
                                         "ammp", "mcf",  "applu"};
    for (size_t i = 0; i < names.size(); ++i) {
        RunSpec rs;
        rs.impedanceScale = 2.0;
        rs.maxCycles = 2000;
        rs.controllerEnabled = (i % 2) == 0;
        rs.delayCycles = 2;
        rs.sensorError = (i % 3 == 0) ? 0.005 : 0.0;
        jobs.push_back({names[i], workloads::buildSpecProxy(names[i]),
                        rs, /*compare=*/i == 1});
    }
    return jobs;
}

void
expectSameSim(const VoltageSimResult &a, const VoltageSimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.lowEmergencyCycles, b.lowEmergencyCycles);
    EXPECT_EQ(a.highEmergencyCycles, b.highEmergencyCycles);
    EXPECT_EQ(a.gatedCycles, b.gatedCycles);
    EXPECT_EQ(a.phantomCycles, b.phantomCycles);
    EXPECT_EQ(a.lowTriggers, b.lowTriggers);
    EXPECT_EQ(a.highTriggers, b.highTriggers);
    EXPECT_EQ(a.energyJ, b.energyJ);       // bit-exact, same FP order
    EXPECT_EQ(a.minV, b.minV);
    EXPECT_EQ(a.maxV, b.maxV);
    ASSERT_EQ(a.voltageHist.bins(), b.voltageHist.bins());
    for (size_t i = 0; i < a.voltageHist.bins(); ++i)
        EXPECT_EQ(a.voltageHist.count(i), b.voltageHist.count(i));
}

TEST(Campaign, ThreadCountIndependent)
{
    CampaignEngine::Options base;
    base.campaignSeed = 0xfeedface;

    std::vector<CampaignResult> results;
    for (unsigned threads : {1u, 2u, 8u}) {
        CampaignEngine::Options o = base;
        o.threads = threads;
        results.push_back(CampaignEngine(o).run(mixedJobs()));
    }

    const std::string jsonl0 = results[0].jsonl();
    for (size_t r = 1; r < results.size(); ++r) {
        ASSERT_EQ(results[r].runs.size(), results[0].runs.size());
        for (size_t i = 0; i < results[0].runs.size(); ++i) {
            const RunResult &a = results[0].runs[i];
            const RunResult &b = results[r].runs[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.spec.noiseSeed, b.spec.noiseSeed);
            expectSameSim(a.sim, b.sim);
            ASSERT_EQ(a.comparison.has_value(),
                      b.comparison.has_value());
            if (a.comparison)
                expectSameSim(a.comparison->baseline,
                              b.comparison->baseline);
        }
        // Aggregates and the serialized artifact, byte for byte.
        EXPECT_EQ(results[r].totalCycles, results[0].totalCycles);
        EXPECT_EQ(results[r].totalEmergencyCycles,
                  results[0].totalEmergencyCycles);
        EXPECT_EQ(results[r].mergedHist.total(),
                  results[0].mergedHist.total());
        EXPECT_EQ(results[r].jsonl(), jsonl0);
    }
}

TEST(Campaign, StatsAndEventsThreadCountIndependent)
{
    // The observability artifacts obey the same determinism contract
    // as the JSONL: merged stats and the campaign-wide event log are
    // byte-identical for any thread count.
    CampaignEngine::Options base;
    base.campaignSeed = 0xfeedface;

    std::vector<CampaignResult> results;
    for (unsigned threads : {1u, 2u, 8u}) {
        CampaignEngine::Options o = base;
        o.threads = threads;
        results.push_back(CampaignEngine(o).run(mixedJobs()));
    }

    const std::string stats0 = results[0].mergedStats.json();
    const std::string events0 = results[0].eventsJsonl();
    EXPECT_FALSE(results[0].mergedStats.empty());
    for (size_t r = 1; r < results.size(); ++r) {
        EXPECT_EQ(results[r].mergedStats.json(), stats0);
        EXPECT_EQ(results[r].eventsJsonl(), events0);
    }

    // The merged aggregate agrees with the headline totals.
    EXPECT_EQ(results[0].mergedStats.counterValue(
                  "pdn.emergencies.count"),
              results[0].totalEmergencyCycles);
    EXPECT_EQ(results[0].mergedStats.counterValue("cpu.cycles"),
              results[0].totalCycles);
}

TEST(Campaign, TracerSamplesPhasesWithoutTouchingArtifacts)
{
    // The tracer's switch turns phase sampling on. With it off the
    // profile stays all zeros; on or off, the JSONL, merged stats and
    // events are the same bytes.
    obs::Tracer &tracer = obs::Tracer::instance();
    CampaignEngine::Options o;
    o.threads = 2;
    tracer.disable();
    tracer.reset();
    const CampaignResult off = CampaignEngine(o).run(mixedJobs());
    EXPECT_NE(off.statsJson().find("\"profile\":" +
                                   obs::PhaseProfile{}.json()),
              std::string::npos);

    tracer.enable();
    const CampaignResult on = CampaignEngine(o).run(mixedJobs());
    tracer.disable();
    EXPECT_GT(tracer.profile().cyclesSampled, 0u);
    tracer.reset();
    EXPECT_EQ(on.jsonl(), off.jsonl());
    EXPECT_EQ(on.mergedStats.json(), off.mergedStats.json());
    EXPECT_EQ(on.eventsJsonl(), off.eventsJsonl());
}

TEST(Campaign, ProfileCountsEveryLegOfACompareJob)
{
    // The profile counts every cycle a sim ran, whatever result the
    // job keeps: a compare job's probe capture and baseline leg too,
    // not just the controlled leg it reports.
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = 2;
    rs.maxCycles = 3000;
    const isa::Program prog = workloads::buildSpecProxy("gzip");
    // Solve the thresholds first: set-up is not a job's cycles.
    referenceThresholds(rs.impedanceScale, rs.delayCycles);
    TraceCache &tc = TraceCache::instance();
    tc.setEnabled(true);
    tc.clear();

    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    CampaignEngine::Options o;
    o.threads = 1;
    const CampaignResult res =
        CampaignEngine(o).run({{"gzip", prog, rs, /*compare=*/true}});
    tracer.disable();
    const obs::PhaseProfile profile = tracer.profile();
    tracer.reset();

    const Comparison &cmp = *res.runs[0].comparison;
    // A passive controlled leg is one sensed replay; an active one
    // would add its abandoned replay's cycles.
    ASSERT_EQ(cmp.controlled.lowTriggers + cmp.controlled.highTriggers,
              0u);
    RunSpec probe = rs;
    probe.controllerEnabled = false;
    const CapturedTrace *probed = tc.find(openLoopKey(prog, probe));
    ASSERT_NE(probed, nullptr);
    EXPECT_EQ(profile.cyclesTotal, probed->cycles() +
                                       cmp.baseline.cycles +
                                       cmp.controlled.cycles);
    EXPECT_EQ(res.totalCycles, cmp.controlled.cycles);
}

TEST(Campaign, StatsJsonShape)
{
    CampaignEngine::Options o;
    o.threads = 2;
    const CampaignResult res = CampaignEngine(o).run(mixedJobs());
    const std::string doc = res.statsJson();
    EXPECT_NE(doc.find("\"campaign\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"profile\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"wall_seconds\":"), std::string::npos);
    EXPECT_NE(doc.find("\"pdn\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"emergencies\":{"), std::string::npos);
}

TEST(Campaign, CliParsesObservabilityFlags)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.disable();
    const char *argv[] = {"prog", "--stats-json", "s.json",
                          "--events=e.jsonl", "--progress"};
    const CampaignCli cli =
        parseCampaignCli(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.statsJsonPath, "s.json");
    EXPECT_EQ(cli.eventsPath, "e.jsonl");
    EXPECT_TRUE(cli.options.progress);
    // The stats document carries the tracer's phase profile.
    EXPECT_TRUE(tracer.enabled()) << "--stats-json enables the tracer";
    tracer.disable();
    tracer.reset();
}

TEST(Campaign, PerRunSeedsAreDerived)
{
    CampaignEngine::Options o;
    o.threads = 2;
    o.campaignSeed = 123;
    const CampaignResult res = CampaignEngine(o).run(mixedJobs());
    for (const RunResult &rr : res.runs)
        EXPECT_EQ(rr.spec.noiseSeed, deriveRunSeed(123, rr.index));
    // No two runs share a noise stream (the old single-constant bug).
    for (size_t i = 1; i < res.runs.size(); ++i)
        EXPECT_NE(res.runs[i].spec.noiseSeed,
                  res.runs[0].spec.noiseSeed);
}

TEST(Campaign, EmptyCampaign)
{
    const CampaignResult res = CampaignEngine().run({});
    EXPECT_TRUE(res.runs.empty());
    EXPECT_EQ(res.totalCycles, 0u);
    // Artifact is just the summary line.
    const std::string text = res.jsonl();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST(Campaign, ForEachCoversEveryIndexOnce)
{
    CampaignEngine::Options o;
    o.threads = 8;
    std::vector<int> hits(257, 0);
    CampaignEngine(o).forEach(hits.size(), [&](size_t i) {
        ++hits[i]; // index-private: no two workers share an i
    });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(Campaign, ForEachPropagatesExceptions)
{
    CampaignEngine::Options o;
    o.threads = 4;
    EXPECT_THROW(CampaignEngine(o).forEach(
                     64,
                     [](size_t i) {
                         if (i == 37)
                             throw std::runtime_error("job 37");
                     }),
                 std::runtime_error);
}

TEST(Campaign, ForEachStartsJobsInIndexOrder)
{
    // Workers claim jobs in index order at any thread count, which
    // run()'s capture-first order relies on: while job 0 holds one of
    // two workers, the other must start 1, 2 and 3 in that order.
    std::mutex m;
    std::condition_variable cv;
    std::vector<size_t> started;
    bool sawJob3 = false;
    const auto position = [&](size_t job) {
        return static_cast<size_t>(
            std::find(started.begin(), started.end(), job) -
            started.begin());
    };
    CampaignEngine::Options o;
    o.threads = 2;
    CampaignEngine(o).forEach(4, [&](size_t i) {
        std::unique_lock<std::mutex> lock(m);
        started.push_back(i);
        cv.notify_all();
        if (i == 0)
            sawJob3 = cv.wait_for(lock, std::chrono::seconds(10), [&] {
                return position(3) < started.size();
            });
    });
    EXPECT_TRUE(sawJob3) << "job 3 never started while job 0 waited";
    ASSERT_EQ(started.size(), 4u);
    EXPECT_LT(position(2), position(3)) << "job 3 started before job 2";
}

TEST(Campaign, CaptureLeadersDispatchFirst)
{
    // Three programs x three scales share one trace key per program;
    // a closed-loop swim job sits ahead of swim's open-loop jobs.
    std::vector<CampaignJob> jobs;
    for (const std::string name : {"gzip", "swim", "mcf"}) {
        const isa::Program prog = workloads::buildSpecProxy(name);
        RunSpec rs;
        rs.controllerEnabled = false;
        rs.maxCycles = 3000;
        if (name == "swim") {
            RunSpec ctl = rs;
            ctl.controllerEnabled = true;
            ctl.delayCycles = 2;
            jobs.push_back({"swim-ctl", prog, ctl, false});
        }
        for (const int pct : {100, 200, 300}) {
            rs.impedanceScale = pct / 100.0;
            jobs.push_back({name + "@" + std::to_string(pct) + "%", prog,
                            rs, false});
        }
    }

    TraceCache::instance().setEnabled(true);
    TraceCache::instance().clear();
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    CampaignEngine::Options o;
    o.threads = 1;
    CampaignEngine(o).run(jobs);
    tracer.disable();
    std::string err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(tracer.chromeJson(), doc, err)) << err;
    tracer.reset();

    // One thread runs the jobs in dispatch order. A run's spans close
    // before its own campaign.run span, so a replay.sensed seen since
    // the previous campaign.run belongs to the next one.
    std::vector<size_t> order;
    std::vector<size_t> sensedRuns;
    bool sensed = false;
    for (const JsonValue &ev : doc.find("traceEvents")->items) {
        const std::string &name = ev.find("name")->str;
        if (name == "replay.sensed")
            sensed = true;
        if (name != "campaign.run")
            continue;
        const size_t index = static_cast<size_t>(
            ev.find("args")->find("index")->number);
        order.push_back(index);
        if (sensed)
            sensedRuns.push_back(index);
        sensed = false;
    }
    // Leaders (each key's first open-loop job: gzip@1, swim@1, mcf@1)
    // first, then the rest, each in submission order.
    EXPECT_EQ(order, (std::vector<size_t>{0, 4, 7, 1, 2, 3, 5, 6, 8, 9}));
    // The closed-loop job runs after swim's capture, so it replays the
    // cached trace through the sensor instead of a cold full loop.
    EXPECT_EQ(sensedRuns, std::vector<size_t>{3});
}

// --------------------------------------------- cache thread-safety smoke

TEST(ThresholdCache, ConcurrentFirstCallsSolveOnce)
{
    // Keys chosen to be fresh for this process (sensorError values no
    // other test uses), so the before/after solver-count delta is
    // exactly the number of distinct keys.
    const double freshError = 0.00123;
    const uint64_t before = thresholdSolveCount();

    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            // Every thread races on the same two keys.
            referenceThresholds(2.0, 1, freshError);
            referenceThresholds(2.0, 3, freshError);
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(thresholdSolveCount() - before, 2u)
        << "concurrent first calls must collapse to one solve per key";

    // And the cached values are consistent on re-read.
    const Thresholds &a = referenceThresholds(2.0, 1, freshError);
    const Thresholds &b = referenceThresholds(2.0, 1, freshError);
    EXPECT_EQ(&a, &b) << "stable reference into the cache";
}

// ------------------------------------------------- golden-trace regression

/**
 * The pinned mini-campaign: 3 stressmark runs (uncontrolled, ideal
 * controller, noisy FU/DL1/IL1 controller) on the 200 % package.
 * Changing simulator behaviour, seed derivation, or JSONL formatting
 * shifts these bytes — which is the point: paper numbers cannot move
 * silently. Regenerate deliberately with
 *   VGUARD_UPDATE_GOLDEN=1 ./tests/test_campaign \
 *       --gtest_filter=Golden.MiniCampaignJsonl
 * and commit the diff with justification.
 */
CampaignResult
miniCampaign()
{
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
    return CampaignEngine(o).run(std::move(jobs));
}

/**
 * Compare @p actual with the committed golden tests/golden/@p file
 * and report the first differing line; with VGUARD_UPDATE_GOLDEN set,
 * rewrite the golden instead and skip.
 */
void
checkGolden(const std::string &file, const std::string &actual)
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
        // Pinpoint the first differing line for a readable failure.
        std::istringstream ea(expected), aa(actual);
        std::string el, al;
        int line = 1;
        while (std::getline(ea, el) && std::getline(aa, al) &&
               el == al)
            ++line;
        ADD_FAILURE() << "golden mismatch at line " << line
                      << "\n  expected: " << el << "\n  actual:   "
                      << al;
    }
}

TEST(Golden, MiniCampaignJsonl)
{
    checkGolden("mini_campaign.jsonl", miniCampaign().jsonl());
}

/**
 * The pinned stats bytes: one job down each path that fills a run's
 * stats snapshot, on one worker so every path is taken for certain —
 *  - open-capture: the first open-loop run of its key captures (and
 *    rings the 200 % package into emergencies);
 *  - open-replay: another package replays that capture, its cpu.* and
 *    power.* entries spliced from the capture;
 *  - compare-gzip: a compare job whose probe and baseline legs
 *    capture and whose passive controlled leg replays the baseline;
 *  - closed-acting: a closed loop whose sensed replay aborts and
 *    whose full loop gates;
 *  - closed-passive: a closed loop that stays Normal, so its sensed
 *    replay of the compare job's probe trace completes.
 * Regenerate deliberately with
 *   VGUARD_UPDATE_GOLDEN=1 ./tests/test_campaign \
 *       --gtest_filter=Golden.MiniStatsJson
 */
TEST(Golden, MiniStatsJson)
{
    const auto &cal = referenceStressmark();
    const auto stress = workloads::StressmarkBuilder::build(cal.params);
    const isa::Program gzip = workloads::buildSpecProxy("gzip");

    // The stressmark first crosses a threshold near cycle 5.5 k.
    RunSpec open;
    open.impedanceScale = 2.0;
    open.controllerEnabled = false;
    open.maxCycles = 8000;
    RunSpec replay = open;
    replay.impedanceScale = 1.5;
    RunSpec acting = open;
    acting.controllerEnabled = true;
    acting.delayCycles = 2;
    RunSpec passive = acting;
    passive.maxCycles = 3000;

    std::vector<CampaignJob> jobs{
        {"open-capture", stress, open, false},
        {"open-replay", stress, replay, false},
        {"compare-gzip", gzip, passive, true},
        {"closed-acting", stress, acting, false},
        {"closed-passive", gzip, passive, false},
    };

    TraceCache::instance().setEnabled(true);
    TraceCache::instance().clear();
    CampaignEngine::Options o;
    o.threads = 1;
    o.campaignSeed = 0x57a75;
    const CampaignResult res = CampaignEngine(o).run(std::move(jobs));

    const auto acted = [](const VoltageSimResult &r) {
        return r.lowTriggers + r.highTriggers > 0;
    };
    ASSERT_EQ(res.runs.size(), 5u);
    EXPECT_GT(res.runs[0].sim.emergencyCycles(), 0u);
    ASSERT_TRUE(res.runs[2].comparison);
    EXPECT_FALSE(acted(res.runs[2].sim));
    EXPECT_TRUE(acted(res.runs[3].sim));
    EXPECT_FALSE(acted(res.runs[4].sim));

    std::string doc = "{\"runs\":[\n";
    for (const RunResult &rr : res.runs) {
        doc += "{\"name\":\"" + rr.name + "\",\"stats\":" +
               rr.sim.stats.json();
        if (rr.comparison)
            doc += ",\"baseline_stats\":" +
                   rr.comparison->baseline.stats.json();
        doc += rr.index + 1 < res.runs.size() ? "},\n" : "}\n";
    }
    doc += "],\n\"merged\":" + res.mergedStats.json() + "}\n";
    checkGolden("mini_stats.json", doc);
}

// ------------------------------------------------------- scaling (smoke)

TEST(Campaign, ParallelSpeedupWhenMultiCore)
{
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 hardware threads to measure "
                        "speedup meaningfully";

    // Fig.-10-style: 32 independent characterisation runs.
    std::vector<CampaignJob> jobs;
    const auto &names = workloads::specBenchmarkNames();
    for (size_t i = 0; i < 32; ++i) {
        RunSpec rs;
        rs.impedanceScale = 1.0;
        rs.controllerEnabled = false;
        rs.maxCycles = 20000;
        const auto &name = names[i % names.size()];
        jobs.push_back({name, workloads::buildSpecProxy(name), rs,
                        false});
    }

    CampaignEngine::Options serial;
    serial.threads = 1;
    const double t1 =
        CampaignEngine(serial).run(jobs).wallSeconds;

    CampaignEngine::Options parallel;
    parallel.threads = 8;
    const double t8 =
        CampaignEngine(parallel).run(jobs).wallSeconds;

    EXPECT_GT(t1 / t8, 3.0)
        << "expected >= 3x speedup at 8 threads (t1=" << t1
        << "s, t8=" << t8 << "s)";
}

} // namespace
