/**
 * @file
 * Tests for src/obs — the hierarchical stats snapshots, the emergency
 * event log with activity fingerprints, and the tracer's phase
 * profile — plus their integration into VoltageSim (per-run stats
 * snapshots, event capture on an emergency-producing workload, and
 * sampled phases).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/voltage_sim.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/tracing.hpp"
#include "pdn/package_model.hpp"
#include "util/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/stressmark.hpp"

namespace {

using namespace vguard;
using namespace vguard::obs;

// ------------------------------------------------------------ snapshot

/** Add a zero counter (the naming tests' adder). */
void
addZero(Snapshot &s, const char *name)
{
    s.addCounter(name, "", 0);
}

TEST(Snapshot, RejectsDuplicateNames)
{
    Snapshot s;
    addZero(s, "a.b");
    EXPECT_EXIT(addZero(s, "a.b"), ::testing::ExitedWithCode(1),
                "duplicate");
}

TEST(Snapshot, RejectsLeafGroupCollision)
{
    Snapshot s;
    addZero(s, "a.b");
    // Siblings and names that merely share a prefix are fine, and sort
    // on both sides of "a.b.c".
    addZero(s, "a.bc");
    addZero(s, "a.b_c");
    addZero(s, "a.a.z");
    addZero(s, "x");
    EXPECT_EQ(s.size(), 5u);
    // "a.b" and "x" are leaves; "a.b.c" and "x.y.z" would make them
    // groups too, and a leaf "a" would be a group already.
    EXPECT_EXIT(addZero(s, "a.b.c"), ::testing::ExitedWithCode(1),
                "collides");
    EXPECT_EXIT(addZero(s, "x.y.z"), ::testing::ExitedWithCode(1),
                "collides");
    EXPECT_EXIT(addZero(s, "a"), ::testing::ExitedWithCode(1),
                "collides");
}

TEST(Snapshot, RejectsBadCharactersAndEmptySegments)
{
    Snapshot s;
    EXPECT_EXIT(addZero(s, "Has.Upper"), ::testing::ExitedWithCode(1),
                "");
    EXPECT_EXIT(addZero(s, "a..b"), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(addZero(s, ".a"), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(addZero(s, "a."), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(addZero(s, ""), ::testing::ExitedWithCode(1), "");
}

TEST(Snapshot, EntriesSortedAndFindable)
{
    Snapshot s;
    s.addCounter("z.last", "", 1);
    s.addCounter("a.first", "", 2);
    s.addCounter("m.mid", "", 3);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.entries()[0].name, "a.first");
    EXPECT_EQ(s.entries()[2].name, "z.last");
    EXPECT_EQ(s.counterValue("m.mid"), 3u);
    EXPECT_EQ(s.find("absent"), nullptr);
    EXPECT_EQ(s.counterValue("absent", 99), 99u);
}

TEST(Snapshot, MergeFollowsRules)
{
    Snapshot a;
    a.addCounter("n.sum", "", 10, MergeRule::Sum);
    a.addGauge("n.min", "", 3.0, MergeRule::Min);
    a.addGauge("n.max", "", 3.0, MergeRule::Max);
    a.addGauge("n.last", "", 1.0, MergeRule::Last);

    Snapshot b;
    b.addCounter("n.sum", "", 32, MergeRule::Sum);
    b.addGauge("n.min", "", 2.0, MergeRule::Min);
    b.addGauge("n.max", "", 2.0, MergeRule::Max);
    b.addGauge("n.last", "", 7.0, MergeRule::Last);
    b.addCounter("n.only_b", "", 5);

    a.merge(b);
    EXPECT_EQ(a.counterValue("n.sum"), 42u);
    EXPECT_DOUBLE_EQ(a.gaugeValue("n.min"), 2.0);
    EXPECT_DOUBLE_EQ(a.gaugeValue("n.max"), 3.0);
    EXPECT_DOUBLE_EQ(a.gaugeValue("n.last"), 7.0);
    EXPECT_EQ(a.counterValue("n.only_b"), 5u); // inserted
}

TEST(Snapshot, MergeNaNGaugeNeverBeatsRealSample)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Snapshot a;
    a.addGauge("g.min", "", 1.5, MergeRule::Min);
    a.addGauge("g.last", "", 2.5, MergeRule::Last);
    Snapshot b;
    b.addGauge("g.min", "", nan, MergeRule::Min);
    b.addGauge("g.last", "", nan, MergeRule::Last);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.gaugeValue("g.min"), 1.5);
    EXPECT_DOUBLE_EQ(a.gaugeValue("g.last"), 2.5);

    // ...and a real sample replaces NaN.
    Snapshot c;
    c.addGauge("g.v", "", nan, MergeRule::Min);
    Snapshot d;
    d.addGauge("g.v", "", 0.75, MergeRule::Min);
    c.merge(d);
    EXPECT_DOUBLE_EQ(c.gaugeValue("g.v"), 0.75);
}

TEST(Snapshot, MergeMatchesSubmissionOrderAssociativity)
{
    // (a + b) + c == a + (b + c): merging must be associative, or the
    // campaign aggregate would depend on scheduling.
    auto mk = [](uint64_t n, double v) {
        Snapshot s;
        s.addCounter("c", "", n, MergeRule::Sum);
        s.addGauge("min", "", v, MergeRule::Min);
        s.addGauge("max", "", v, MergeRule::Max);
        return s;
    };
    Snapshot left = mk(1, 3.0);
    left.merge(mk(2, 1.0));
    left.merge(mk(3, 2.0));

    Snapshot tail = mk(2, 1.0);
    tail.merge(mk(3, 2.0));
    Snapshot right = mk(1, 3.0);
    right.merge(tail);

    EXPECT_EQ(left.json(), right.json());
}

TEST(Snapshot, JsonNestsDottedGroups)
{
    Snapshot s;
    s.addCounter("cpu.commit.insts", "", 10);
    s.addCounter("cpu.fetch.insts", "", 20);
    s.addGauge("pdn.v.min", "", 0.97, MergeRule::Min);
    const std::string j = s.json();
    EXPECT_NE(j.find("\"cpu\":{"), std::string::npos) << j;
    EXPECT_NE(j.find("\"commit\":{\"insts\":10}"), std::string::npos)
        << j;
    EXPECT_NE(j.find("\"fetch\":{\"insts\":20}"), std::string::npos)
        << j;
    EXPECT_NE(j.find("\"pdn\":{\"v\":{\"min\":0.97}}"),
              std::string::npos)
        << j;
    // Deterministic: same content, same bytes.
    EXPECT_EQ(j, s.json());
}

// -------------------------------------------------------------- events

cpu::ActivityVector
activity(uint32_t alu, uint32_t commit)
{
    cpu::ActivityVector av{};
    av.issuedIntAlu = alu;
    av.committed = commit;
    return av;
}

TEST(ActivityWindow, SlidingSumsEvictOldCycles)
{
    ActivityWindow w(4);
    for (uint32_t i = 1; i <= 6; ++i)
        w.record(fpChannelCounts(activity(i, 1)));
    // Window holds cycles with alu counts 3,4,5,6.
    EXPECT_EQ(w.sums()[size_t(FpChannel::IntAlu)], 3u + 4 + 5 + 6);
    EXPECT_EQ(w.sums()[size_t(FpChannel::Commit)], 4u);
    EXPECT_EQ(w.cyclesSeen(), 6u);
}

/** Per-channel sums of rows [end - min(end, window), end). */
std::array<uint64_t, kNumFpChannels>
bruteSums(const std::vector<ActivityRow> &rows, size_t end, size_t window)
{
    std::array<uint64_t, kNumFpChannels> s{};
    for (size_t k = end - std::min(end, window); k < end; ++k)
        for (size_t i = 0; i < kNumFpChannels; ++i)
            s[i] += rows[k][i];
    return s;
}

/** @p n rows of uniform random counts over the whole uint16 range. */
std::vector<ActivityRow>
randomRows(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<ActivityRow> rows(n);
    for (ActivityRow &row : rows)
        for (uint16_t &c : row)
            c = static_cast<uint16_t>(rng.below(0x10000));
    return rows;
}

TEST(ActivityWindow, SumsMatchBruteForceAfterEveryRecord)
{
    for (const size_t window : {1u, 4u, 32u}) {
        const std::vector<ActivityRow> rows = randomRows(0x5eed + window,
                                                         1000);
        ActivityWindow w(window);
        for (size_t k = 0; k < rows.size(); ++k) {
            w.record(rows[k]);
            ASSERT_EQ(w.sums(), bruteSums(rows, k + 1, window))
                << "window " << window << ", after record " << k;
        }
    }
}

TEST(EmergencyTracker, KeptFingerprintsMatchBruteForceAfterRingWraps)
{
    // Four episodes, all opening long after the 4-cycle ring wrapped;
    // the 2-event log keeps the first two and counts the others.
    constexpr size_t kWindow = 4;
    const std::vector<ActivityRow> rows = randomRows(0xf1a9, 60);
    const auto voltage = [](size_t cycle) {
        if (cycle == 11 || cycle == 12 || cycle == 40)
            return 0.90; // low episodes at 11-12 and 40
        if (cycle == 23 || cycle == 51 || cycle == 52)
            return 1.10; // high episodes at 23 and 51-52
        return 1.00;
    };
    EmergencyTracker tr(0.95, 1.05, kWindow, 2);
    const EmergencyTracker::ControlState ctrl;
    for (size_t k = 0; k < rows.size(); ++k)
        tr.step(k, voltage(k), rows[k], ctrl);
    tr.finish();

    const EventLog &log = tr.log();
    ASSERT_EQ(log.events().size(), 2u);
    EXPECT_EQ(log.dropped(), 2u);
    EXPECT_EQ(log.total(), 4u);
    const size_t entries[] = {11, 23};
    for (size_t e = 0; e < 2; ++e) {
        const EmergencyEvent &ev = log.events()[e];
        EXPECT_EQ(ev.entryCycle, entries[e]);
        EXPECT_EQ(ev.fingerprintCycles, kWindow);
        // The window ends with the crossing cycle itself.
        EXPECT_EQ(ev.fingerprint,
                  bruteSums(rows, entries[e] + 1, kWindow));
    }
}

TEST(Events, ChannelNamesCoverAllChannels)
{
    for (size_t i = 0; i < kNumFpChannels; ++i)
        EXPECT_NE(std::string(fpChannelName(i)), "");
    cpu::ActivityVector av{};
    av.regReads = 2;
    av.regWrites = 3;
    const auto c = fpChannelCounts(av);
    EXPECT_EQ(c[size_t(FpChannel::RegFile)], 5u);
}

TEST(EventLog, CapacityBoundsAndCountsDropped)
{
    EventLog log(2);
    log.push(EmergencyEvent{});
    log.push(EmergencyEvent{});
    log.push(EmergencyEvent{});
    EXPECT_EQ(log.events().size(), 2u);
    EXPECT_EQ(log.dropped(), 1u);
    EXPECT_EQ(log.total(), 3u);
}

TEST(EmergencyTracker, OpensExtendsAndClosesEpisodes)
{
    EmergencyTracker tr(0.95, 1.05, 4, 16);
    EmergencyTracker::ControlState ctrl;
    ctrl.sensorLevel = 0; // "low"
    ctrl.gating = true;

    // In-band, then a 3-cycle dip, then back in band.
    tr.step(0, 1.00, fpChannelCounts(activity(1, 1)), ctrl);
    tr.step(1, 0.94, fpChannelCounts(activity(2, 1)), ctrl);
    tr.step(2, 0.93, fpChannelCounts(activity(3, 1)), ctrl);
    tr.step(3, 0.94, fpChannelCounts(activity(4, 1)), ctrl);
    tr.step(4, 1.00, fpChannelCounts(activity(5, 1)), ctrl);
    tr.finish();

    ASSERT_EQ(tr.log().events().size(), 1u);
    const EmergencyEvent &ev = tr.log().events()[0];
    EXPECT_EQ(ev.entryCycle, 1u);
    EXPECT_EQ(ev.durationCycles, 3u);
    EXPECT_TRUE(ev.low);
    EXPECT_DOUBLE_EQ(ev.vExtreme, 0.93);
    EXPECT_DOUBLE_EQ(ev.vBound, 0.95);
    EXPECT_EQ(ev.sensorLevel, 0);
    EXPECT_TRUE(ev.gating);
    // Fingerprint covers the 2 cycles up to and including entry
    // (only 2 cycles of history existed): alu 1 + 2.
    EXPECT_EQ(ev.fingerprintCycles, 2u);
    EXPECT_EQ(ev.fingerprint[size_t(FpChannel::IntAlu)], 3u);
}

TEST(EmergencyTracker, LowHighFlipClosesAndReopens)
{
    EmergencyTracker tr(0.95, 1.05, 4, 16);
    const EmergencyTracker::ControlState ctrl;
    const ActivityRow row = fpChannelCounts(activity(1, 1));
    tr.step(0, 0.90, row, ctrl);
    tr.step(1, 1.10, row, ctrl); // direct low -> high flip
    tr.step(2, 1.00, row, ctrl);
    tr.finish();
    ASSERT_EQ(tr.log().events().size(), 2u);
    EXPECT_TRUE(tr.log().events()[0].low);
    EXPECT_FALSE(tr.log().events()[1].low);
    EXPECT_EQ(tr.log().events()[1].entryCycle, 1u);
}

TEST(EmergencyTracker, FinishClosesOpenEpisode)
{
    EmergencyTracker tr(0.95, 1.05, 4, 16);
    const EmergencyTracker::ControlState ctrl;
    tr.step(0, 0.90, fpChannelCounts(activity(1, 1)), ctrl);
    EXPECT_EQ(tr.log().events().size(), 0u);
    tr.finish();
    ASSERT_EQ(tr.log().events().size(), 1u);
    EXPECT_EQ(tr.log().events()[0].durationCycles, 1u);
}

TEST(EmergencyEvent, JsonlHasSchemaFields)
{
    EmergencyEvent ev;
    ev.entryCycle = 100;
    ev.durationCycles = 5;
    ev.low = true;
    ev.vExtreme = 0.931;
    ev.vBound = 0.95;
    ev.sensorLevel = 1;
    ev.sensorReading = 0.96;
    ev.gating = false;
    ev.fingerprint[size_t(FpChannel::IntAlu)] = 17;
    ev.fingerprintCycles = 32;

    std::string line;
    ev.appendJsonl(line, "swim@300%", 3);
    EXPECT_EQ(line.back(), '\n');
    EXPECT_NE(line.find("\"run\":3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"name\":\"swim@300%\""), std::string::npos);
    EXPECT_NE(line.find("\"cycle\":100"), std::string::npos);
    EXPECT_NE(line.find("\"duration\":5"), std::string::npos);
    EXPECT_NE(line.find("\"kind\":\"low\""), std::string::npos);
    EXPECT_NE(line.find("\"level\":\"normal\""), std::string::npos);
    EXPECT_NE(line.find("\"int_alu\":17"), std::string::npos);

    // Without run attribution the record must not carry run fields.
    std::string bare;
    ev.appendJsonl(bare);
    EXPECT_EQ(bare.find("\"run\""), std::string::npos);
}

// ------------------------------------------------------------- profile

/** Each profile test starts and ends with an empty, disabled tracer. */
class Profiler : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        Tracer::instance().disable();
        Tracer::instance().reset();
    }
    void TearDown() override { SetUp(); }
};

TEST_F(Profiler, SamplesOneInMaskCycles)
{
    // Any 64 consecutive full blocks on a thread hold one timed block.
    unsigned sampled = 0;
    for (uint64_t b = 0; b < 4 * Tracer::kSampleEvery; ++b)
        sampled += Tracer::sampleBlock(256, 256);
    EXPECT_EQ(sampled, 4u);

    // Runs of 31.25 blocks are timed at varying blocks, not each time
    // at the partial last one (a block count of period 64 would).
    unsigned partial = 0;
    sampled = 0;
    for (int run = 0; run < 64; ++run) {
        for (int b = 0; b < 31; ++b)
            sampled += Tracer::sampleBlock(256, 256);
        const bool t = Tracer::sampleBlock(64, 256);
        sampled += t;
        partial += t;
    }
    EXPECT_GE(sampled, 31u);  // 64 x 8000 cycles / (64 x 256)
    EXPECT_LE(sampled, 32u);
    EXPECT_LE(partial, 2u);
}

TEST_F(Profiler, PhaseTimerRecordsOnlyWhenTimed)
{
    Tracer::instance().enable();
    {
        PhaseTimer t(true, Phase::Pdn);
    }
    {
        PhaseTimer t(false, Phase::CpuStep); // not sampled: no record
    }
    const PhaseProfile p = Tracer::instance().profile();
    EXPECT_EQ(p.samples[size_t(Phase::Pdn)], 1u);
    EXPECT_EQ(p.samples[size_t(Phase::CpuStep)], 0u);
}

TEST_F(Profiler, ThreadTotalsSumAndJsonHasPhases)
{
    Tracer &t = Tracer::instance();
    t.enable();
    const auto record = [&t] {
        t.addPhase(Phase::Pdn, 100);
        t.addCycles(10, 2);
    };
    record();
    std::thread(record).join();
    const PhaseProfile p = t.profile();
    EXPECT_EQ(p.ns[size_t(Phase::Pdn)], 200u);
    EXPECT_EQ(p.samples[size_t(Phase::Pdn)], 2u);
    EXPECT_EQ(p.cyclesTotal, 20u);
    EXPECT_EQ(p.cyclesSampled, 4u);
    const std::string j = p.json();
    EXPECT_NE(j.find("\"cycles_total\":20"), std::string::npos) << j;
    EXPECT_NE(j.find("\"pdn\":{\"ns\":200,\"samples\":2,\"share\":1"),
              std::string::npos)
        << j;
    t.reset();
    EXPECT_EQ(t.profile().json(), PhaseProfile{}.json());
}

// ------------------------------------------------- sim integration

TEST(VoltageSimStats, PerRunStatsMatchResultCounters)
{
    // The stressmark at 300% impedance breaches uncontrolled. One
    // fresh sim captures a run and another replays that capture: each
    // run's stats snapshot must agree exactly with that run's own
    // counters and extremes.
    using namespace vguard::core;
    const auto &cal = referenceStressmark();
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.controllerEnabled = false;
    rs.maxCycles = 60000;
    const VoltageSimConfig cfg = makeSimConfig(rs);
    const isa::Program prog =
        workloads::StressmarkBuilder::build(cal.params);

    CapturedTrace trace;
    const VoltageSimResult first =
        VoltageSim(cfg, prog).run(rs.maxCycles, ~0ull, &trace);
    const VoltageSimResult replay = VoltageSim(cfg, prog).runReplay(trace);

    EXPECT_EQ(first.stats.counterValue("cpu.commit.insts"),
              first.committed);
    for (const VoltageSimResult *res : {&first, &replay}) {
        ASSERT_GT(res->emergencyCycles(), 0u) << "stressmark must breach";
        EXPECT_EQ(res->stats.counterValue("pdn.emergencies.count"),
                  res->emergencyCycles());
        EXPECT_EQ(res->stats.counterValue("pdn.emergencies.low"),
                  res->lowEmergencyCycles);
        EXPECT_EQ(res->stats.counterValue("pdn.emergencies.high"),
                  res->highEmergencyCycles);
        EXPECT_EQ(res->stats.counterValue("cpu.cycles"), res->cycles);
        EXPECT_EQ(res->stats.gaugeValue("pdn.v.min"), res->minV);
        EXPECT_EQ(res->stats.gaugeValue("pdn.v.max"), res->maxV);
        EXPECT_EQ(res->stats.counterValue("pdn.emergencies.episodes"),
                  res->events.total());
    }

    // Every emergency event carries a fingerprint.
    ASSERT_GT(first.events.events().size(), 0u);
    for (const EmergencyEvent &ev : first.events.events()) {
        EXPECT_GT(ev.fingerprintCycles, 0u);
        uint64_t total = 0;
        for (uint64_t c : ev.fingerprint)
            total += c;
        EXPECT_GT(total, 0u) << "fingerprint must be non-empty";
    }
}

TEST(VoltageSimStats, ProfilingPopulatesPhases)
{
    // With the tracer on, the closed loop times 1 cycle in 64 and the
    // batched open loop 1 block in 64, so runs of equal length sample
    // alike; with it off, a sim records nothing.
    using namespace vguard::core;
    Tracer &tracer = Tracer::instance();
    const auto profileOf = [&tracer](bool closed) {
        RunSpec rs;
        rs.controllerEnabled = closed;
        rs.maxCycles = 64 * 1024;
        tracer.reset();
        {
            VoltageSim sim(makeSimConfig(rs), workloads::busyKernel());
            EXPECT_EQ(sim.run(rs.maxCycles).cycles, rs.maxCycles);
        }
        return tracer.profile();
    };

    tracer.disable();
    EXPECT_EQ(profileOf(false).json(), PhaseProfile{}.json());

    tracer.enable();
    for (bool closed : {false, true}) {
        const PhaseProfile p = profileOf(closed);
        EXPECT_EQ(p.cyclesTotal, 64u * 1024u);
        EXPECT_NEAR(static_cast<double>(p.cyclesSampled),
                    static_cast<double>(p.cyclesTotal) /
                        Tracer::kSampleEvery,
                    2.0 * VoltageSim::kBlockCycles)
            << closed;
        EXPECT_GT(p.samples[size_t(Phase::CpuStep)], 0u);
        EXPECT_GT(p.samples[size_t(Phase::Pdn)], 0u);
        EXPECT_EQ(p.samples[size_t(Phase::Control)] > 0, closed);
    }
    tracer.disable();
    tracer.reset();
}

} // namespace
