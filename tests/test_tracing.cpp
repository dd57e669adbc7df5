/**
 * @file
 * Execution-tracing layer (obs/tracing) test suite.
 *
 * Four concerns, mirroring the contract DESIGN.md §6 states:
 *
 *  1. Chrome export schema — chromeJson() must satisfy the structural
 *     contract Perfetto's legacy JSON importer relies on. Validated
 *     here by round-tripping through util/json_parse and walking
 *     every event, the same walk `vguard-report validate-trace` does
 *     in CI.
 *  2. Canonical determinism — canonicalJsonl() of a traced campaign
 *     must be byte-identical at 1, 2 and 8 worker threads (this suite
 *     carries the `campaign` label, so TSan covers the recording
 *     paths at the same time).
 *  3. Golden mini-trace — the canonical bytes of a pinned 2-run
 *     campaign, traced in a fresh process, are committed;
 *     instrumentation points cannot move silently. Regenerate
 *     deliberately with
 *       VGUARD_UPDATE_GOLDEN=1 ./tests/test_tracing \
 *           --gtest_filter=TracingTest.GoldenMiniTraceCanonical
 *  4. Mechanics — bounded rings drop (and count) instead of growing,
 *     detached spans lift to roots, args export sorted by key,
 *     disable()/resume() pause without clearing.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "obs/tracing.hpp"
#include "util/json_parse.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;
using obs::TraceClass;
using obs::Tracer;
using obs::TraceSpan;

namespace {

/** Leave the process-global tracer off and empty after each test. */
class TracingTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        Tracer::instance().disable();
        Tracer::instance().reset();
    }
};

/**
 * Structural validation of a Chrome trace-event document: the same
 * contract cmdValidateTrace enforces in tools/vguard-report. Returns
 * an empty string when valid, else a description of the violation.
 */
std::string
validateChrome(const JsonValue &doc)
{
    if (!doc.isObject())
        return "top level is not an object";
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return "missing traceEvents array";
    for (size_t i = 0; i < events->items.size(); ++i) {
        const JsonValue &ev = events->items[i];
        const std::string at = "traceEvents[" + std::to_string(i) + "]: ";
        if (!ev.isObject())
            return at + "not an object";
        const JsonValue *ph = ev.find("ph");
        if (!ph || !ph->isString() || ph->str.size() != 1)
            return at + "missing one-char ph";
        const JsonValue *name = ev.find("name");
        if (!name || !name->isString() || name->str.empty())
            return at + "missing name";
        const JsonValue *pid = ev.find("pid");
        const JsonValue *tid = ev.find("tid");
        if (!pid || !pid->isNumber() || !tid || !tid->isNumber())
            return at + "missing numeric pid/tid";
        switch (ph->str[0]) {
        case 'X': {
            const JsonValue *ts = ev.find("ts");
            const JsonValue *dur = ev.find("dur");
            if (!ts || !ts->isNumber() || !dur || !dur->isNumber())
                return at + "complete event without ts/dur";
            if (dur->number < 0.0)
                return at + "negative dur";
            break;
        }
        case 'i': {
            const JsonValue *scope = ev.find("s");
            if (!ev.find("ts") || !scope || !scope->isString())
                return at + "instant without ts/scope";
            break;
        }
        case 'C': {
            const JsonValue *args = ev.find("args");
            const JsonValue *value =
                args && args->isObject() ? args->find("value")
                                         : nullptr;
            if (!value || !value->isNumber())
                return at + "counter without numeric args.value";
            break;
        }
        case 'M': {
            const JsonValue *args = ev.find("args");
            const JsonValue *tn =
                args && args->isObject() ? args->find("name")
                                         : nullptr;
            if (!tn || !tn->isString())
                return at + "metadata without args.name";
            break;
        }
        default:
            return at + "unknown ph '" + ph->str + "'";
        }
    }
    return {};
}

/**
 * The pinned traced mini-campaign: one open-loop stressmark leg and
 * one controlled leg. The threshold-solver cache is keyed on (scale,
 * delay, error) and solves once per process, so each test passes its
 * own @p sensorError — a value used nowhere else — to keep its solve
 * (and the solver.solve span) cold when the whole binary runs in one
 * process.
 */
CampaignResult
tracedMiniCampaign(int threads, double sensorError)
{
    const auto &cal = referenceStressmark();
    const auto stress = workloads::StressmarkBuilder::build(cal.params);

    RunSpec open;
    open.impedanceScale = 2.0;
    open.controllerEnabled = false;
    open.maxCycles = 2500;

    RunSpec controlled = open;
    controlled.controllerEnabled = true;
    controlled.delayCycles = 2;
    controlled.sensorError = sensorError;
    controlled.actuator = ActuatorKind::Ideal;

    std::vector<CampaignJob> jobs{
        {"mini-open", stress, open, false},
        {"mini-controlled-d2", stress, controlled, false},
    };
    CampaignEngine::Options o;
    o.threads = static_cast<size_t>(threads);
    o.campaignSeed = 0xbeef;
    return CampaignEngine(o).run(std::move(jobs));
}

/**
 * Canonical export of an open-loop-only campaign at @p threads
 * workers. Only process-state-independent spans fire: the trace
 * cache is cleared first (fresh capture every call) and no job needs
 * a threshold solve.
 */
std::string
canonicalAt(int threads)
{
    const auto &cal = referenceStressmark();
    const auto stress = workloads::StressmarkBuilder::build(cal.params);

    std::vector<CampaignJob> jobs;
    for (int i = 0; i < 6; ++i) {
        RunSpec spec;
        spec.impedanceScale = 1.0 + 0.25 * i;
        spec.controllerEnabled = false;
        spec.maxCycles = 2000;
        jobs.push_back({"sweep-" + std::to_string(i), stress, spec,
                        false});
    }

    TraceCache::instance().clear();
    Tracer::instance().enable();
    CampaignEngine::Options o;
    o.threads = static_cast<size_t>(threads);
    o.campaignSeed = 0x5eed;
    CampaignEngine(o).run(std::move(jobs));
    Tracer::instance().disable();
    const std::string canon = Tracer::instance().canonicalJsonl();
    EXPECT_EQ(Tracer::instance().stats().droppedDet, 0u)
        << "canonical form is only golden-stable with zero Det drops";
    Tracer::instance().reset();
    return canon;
}

} // namespace

// ----------------------------------------------------- chrome schema

TEST_F(TracingTest, ChromeExportSchemaRoundTrip)
{
    Tracer &t = Tracer::instance();
    t.enable();
    {
        TraceSpan outer("unit.outer");
        outer.arg("n", uint64_t{3}).arg("label", "abc");
        {
            TraceSpan inner("unit.inner", TraceClass::Wall);
            inner.arg("x", 1.5);
        }
        obs::TraceInstant("unit.instant").arg("k", uint64_t{7});
        obs::traceCounter("unit.track", 42.0);
    }
    t.disable();

    const std::string json = t.chromeJson();
    std::string err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(json, doc, err)) << err;
    EXPECT_EQ(validateChrome(doc), "");

    // displayTimeUnit + drop accounting ride along for tooling.
    const JsonValue *unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->str, "ms");
    const JsonValue *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_NE(other->find("dropped_det"), nullptr);
    EXPECT_NE(other->find("dropped_wall"), nullptr);

    // All four record kinds survive the round trip by name.
    const JsonValue &events = *doc.find("traceEvents");
    bool sawOuter = false, sawInner = false, sawInstant = false,
         sawCounter = false, sawThreadName = false;
    for (const JsonValue &ev : events.items) {
        const std::string &name = ev.find("name")->str;
        const char ph = ev.find("ph")->str[0];
        sawOuter |= ph == 'X' && name == "unit.outer";
        sawInner |= ph == 'X' && name == "unit.inner";
        sawInstant |= ph == 'i' && name == "unit.instant";
        sawCounter |= ph == 'C' && name == "unit.track";
        sawThreadName |= ph == 'M' && name == "thread_name";
    }
    EXPECT_TRUE(sawOuter && sawInner && sawInstant && sawCounter &&
                sawThreadName);
}

TEST_F(TracingTest, CampaignChromeExportValidates)
{
    // Warm the trace cache untraced first: the traced second pass
    // then exercises the replay fast path, whose spans (replay.run,
    // pdn.backend.step_*) this test asserts on.
    TraceCache::instance().setEnabled(true);
    TraceCache::instance().clear();
    tracedMiniCampaign(2, 0.004327);
    Tracer::instance().enable();
    tracedMiniCampaign(2, 0.004327);
    Tracer::instance().disable();

    std::string err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(Tracer::instance().chromeJson(), doc, err))
        << err;
    EXPECT_EQ(validateChrome(doc), "");

    // The campaign instrumentation points are present.
    const JsonValue &events = *doc.find("traceEvents");
    bool sawRun = false, sawBackend = false;
    for (const JsonValue &ev : events.items) {
        const std::string &name = ev.find("name")->str;
        sawRun |= name == "campaign.run";
        sawBackend |= name == "pdn.backend.step_shared" ||
                      name == "pdn.backend.step_per_lane" ||
                      name == "replay.run";
    }
    EXPECT_TRUE(sawRun) << "campaign.run spans missing";
    EXPECT_TRUE(sawBackend) << "replay/backend spans missing";
}

// ---------------------------------------------- canonical determinism

TEST_F(TracingTest, CanonicalByteIdenticalAcrossThreadCounts)
{
    const std::string one = canonicalAt(1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, canonicalAt(2)) << "1-thread vs 2-thread canonical";
    EXPECT_EQ(one, canonicalAt(8)) << "1-thread vs 8-thread canonical";
}

TEST_F(TracingTest, CanonicalDropsWallAndSortsArgs)
{
    Tracer &t = Tracer::instance();
    t.enable();
    {
        TraceSpan det("unit.det");
        det.arg("zeta", uint64_t{1}).arg("alpha", uint64_t{2});
        TraceSpan wall("unit.wall", TraceClass::Wall);
        obs::traceCounter("unit.track", 1.0);
    }
    {
        TraceSpan parent("unit.parent");
        TraceSpan lifted("unit.lifted", TraceClass::Det, true);
        TraceSpan child("unit.child");
    }
    t.disable();

    const std::string canon = t.canonicalJsonl();
    // Wall spans and counter samples never reach the canonical form.
    EXPECT_EQ(canon.find("unit.wall"), std::string::npos);
    EXPECT_EQ(canon.find("unit.track"), std::string::npos);
    // Args are key-sorted regardless of attach order.
    EXPECT_NE(canon.find("{\"alpha\":2,\"zeta\":1}"),
              std::string::npos)
        << canon;
    // The detached span is a root (its own line), not a child of
    // unit.parent — but spans opened under it still nest.
    EXPECT_NE(canon.find("{\"name\":\"unit.lifted\",\"children\":["
                         "{\"name\":\"unit.child\"}]}"),
              std::string::npos)
        << canon;
    EXPECT_NE(canon.find("{\"name\":\"unit.parent\"}"),
              std::string::npos)
        << canon;
}

// ------------------------------------------------------ golden trace

namespace {

/**
 * Child side of GoldenMiniTraceCanonical: trace the pinned mini
 * campaign and compare its canonical form with the golden (or, under
 * VGUARD_UPDATE_GOLDEN, rewrite the golden). Returns 0 on success;
 * otherwise describes the failure on stderr and returns 1.
 */
int
miniTraceGoldenStatus()
{
    const std::string goldenPath =
        std::string(VGUARD_GOLDEN_DIR) + "/mini_trace.jsonl";

    // Pin the cache cold so the capture span fires.
    TraceCache::instance().setEnabled(true);
    TraceCache::instance().clear();
    Tracer::instance().enable();
    tracedMiniCampaign(2, 0.004321);
    Tracer::instance().disable();
    if (Tracer::instance().stats().droppedDet != 0) {
        std::fprintf(stderr, "Det records dropped\n");
        return 1;
    }
    const std::string actual = Tracer::instance().canonicalJsonl();

    if (std::getenv("VGUARD_UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath, std::ios::binary);
        out << actual;
        if (out.good())
            return 0;
        std::fprintf(stderr, "cannot write %s\n", goldenPath.c_str());
        return 1;
    }

    std::ifstream in(goldenPath, std::ios::binary);
    if (!in.good()) {
        std::fprintf(stderr,
                     "missing golden %s — generate with "
                     "VGUARD_UPDATE_GOLDEN=1\n",
                     goldenPath.c_str());
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();
    if (expected == actual)
        return 0;

    std::istringstream e(expected), a(actual);
    std::string el, al;
    int line = 1;
    while (std::getline(e, el) && std::getline(a, al) && el == al)
        ++line;
    std::fprintf(stderr,
                 "canonical trace diverged from golden at line %d\n"
                 "  golden: %s\n  actual: %s\nIf intentional, "
                 "regenerate with VGUARD_UPDATE_GOLDEN=1 and commit "
                 "the diff.\n",
                 line, el.c_str(), al.c_str());
    return 1;
}

} // namespace

/**
 * The reference set-up (current range, target, stressmark, threshold
 * solve) runs once per process behind magic statics, and its detached
 * spans fire only then: after earlier tests in the same process have
 * warmed it, a traced campaign records none of them. So the trace is
 * recorded in a fresh process — a threadsafe-style death test
 * re-executes this binary for its statement — whatever ran here
 * before.
 */
TEST_F(TracingTest, GoldenMiniTraceCanonical)
{
    const std::string style = testing::GTEST_FLAG(death_test_style);
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(std::exit(miniTraceGoldenStatus()),
                testing::ExitedWithCode(0), "");
    testing::GTEST_FLAG(death_test_style) = style;
    if (std::getenv("VGUARD_UPDATE_GOLDEN"))
        GTEST_SKIP() << "golden updated: " << VGUARD_GOLDEN_DIR
                     << "/mini_trace.jsonl";
}

// --------------------------------------------------------- mechanics

TEST_F(TracingTest, BoundedRingDropsAndCounts)
{
    Tracer &t = Tracer::instance();
    t.enable(4);
    for (int i = 0; i < 16; ++i) {
        TraceSpan det("unit.det");
        TraceSpan wall("unit.wall", TraceClass::Wall);
    }
    t.disable();
    const Tracer::Stats st = t.stats();
    EXPECT_EQ(st.events, 4u) << "ring must stop at capacity";
    EXPECT_GT(st.droppedDet, 0u);
    EXPECT_GT(st.droppedWall, 0u);
    // Exports still work over a saturated ring.
    std::string err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(t.chromeJson(), doc, err)) << err;
    EXPECT_EQ(validateChrome(doc), "");
    const JsonValue *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_GT(other->find("dropped_det")->number, 0.0);
}

TEST_F(TracingTest, DisableResumeKeepsBuffers)
{
    Tracer &t = Tracer::instance();
    t.enable();
    { TraceSpan a("unit.first"); }
    t.disable();
    { TraceSpan b("unit.skipped"); }  // not recorded
    t.resume();
    { TraceSpan c("unit.second"); }
    t.disable();

    const std::string canon = t.canonicalJsonl();
    EXPECT_NE(canon.find("unit.first"), std::string::npos);
    EXPECT_NE(canon.find("unit.second"), std::string::npos);
    EXPECT_EQ(canon.find("unit.skipped"), std::string::npos);
}

TEST_F(TracingTest, InternIdsAreStable)
{
    Tracer &t = Tracer::instance();
    const uint32_t a = t.intern("unit.same");
    const uint32_t b = t.intern("unit.same");
    EXPECT_EQ(a, b);
    EXPECT_NE(t.intern("unit.other"), a);
}

TEST_F(TracingTest, RecordingFromManyThreadsKeepsBuffersApart)
{
    Tracer &t = Tracer::instance();
    t.enable();
    std::vector<std::thread> workers;
    for (int w = 0; w < 8; ++w)
        workers.emplace_back([&t] {
            for (int i = 0; i < 200; ++i) {
                TraceSpan s("unit.worker");
                obs::traceCounter("unit.load",
                                  static_cast<double>(i));
            }
            (void)t;
        });
    for (auto &w : workers)
        w.join();
    t.disable();
    const Tracer::Stats st = t.stats();
    EXPECT_EQ(st.threads, 8u);
    // Per iteration: span begin + span end + one counter sample.
    EXPECT_EQ(st.events, 8u * 200u * 3u);
    EXPECT_EQ(st.droppedDet + st.droppedWall, 0u);
    std::string err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(t.chromeJson(), doc, err)) << err;
    EXPECT_EQ(validateChrome(doc), "");
}
