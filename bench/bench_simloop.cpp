/**
 * @file
 * Simulation-loop perf harness: pins the trace-replay fast path's
 * speedup (and its bit-exactness) in a machine-readable artifact so CI
 * can watch for regressions.
 *
 * Times three ways of producing the same open-loop voltage trace, and
 * two ways of producing the same closed-loop one:
 *
 *   full-core      — coupled core + Wattch + PDN run (capturing the
 *                    trace as it goes);
 *   replay/1       — trace replay stepped one cycle at a time;
 *   replay/block   — trace replay through the batched block pipeline;
 *   closed-loop    — full coupled run with the threshold controller;
 *   passive replay — the same closed loop through runWorkload with the
 *                    open-loop trace warm in the cache: the controller
 *                    never acts on this program, so the run replays
 *                    the trace through the real sensor.
 *
 * The replayed results are cross-checked against the full-core runs:
 * every scalar field, the stats snapshot JSON, and the emergency-event
 * JSONL must match exactly (replayIdentical, passiveReplayIdentical;
 * the latter also requires that the controller never gated or
 * phantom-fired, so the row measures the passive path). The three
 * open-loop rows are timed interleaved, best of 5 each: the full-core
 * leg captures a fresh trace every round, and the replay legs replay
 * the latest one. replaySpeedup is replay/block over full-core. The
 * two closed-loop rows are timed the same way, and their ratio is
 * reported as passiveReplaySpeedup.
 *
 * Two guards pin what the tracer costs when it is on: the block replay
 * (tracedReplayOverheadPct) and the closed loop
 * (tracedClosedLoopOverheadPct, the phase sampler's budget), each leg
 * untraced against traced, best of 15, as a percentage. CI enforces a
 * ceiling on both.
 *
 * It then times the multi-scenario sweep engines: the same trace
 * through K = 8 packages, once lane-by-lane with scalar PdnSim
 * stepping (scalarLaneCyclesPerSec) and once through the lane-batched
 * SoA backend (batchedLaneCyclesPerSec), both in lane-cycles/s —
 * lanes × cycles / seconds. The batched output is asserted
 * byte-identical to the scalar backend's (lanesIdentical) and the
 * ratio is reported as batchedSpeedup; CI enforces a floor on it.
 *
 * A chip-sweep section then times the many-core shared-rail path
 * (core/multicore_sim): 8 chips × 4 staggered replay cores each,
 * scalar vs batched stepPerLane, with exact per-lane agreement
 * reported as chipLanesIdentical (CI floor) and the throughput ratio
 * as chipBatchedSpeedup. The same chips with noise-free sensors and
 * the default governor time the closed-loop chip path
 * (chipGovernedCyclesPerSec, batched), with the governor's denials
 * (chipGovernedDenials, CI floor: the row must arbitrate) and every
 * ChipResult field of batched against scalar
 * (chipGovernedLanesIdentical, CI gate). The floors gate the best-of-N
 * ratios, and the *SpeedupMedian fields report the median ratios
 * beside them.
 *
 * A campaign section last runs a Table-2-shaped job list (8 SPEC
 * proxies x 4 package scales at cycles / 4, from an empty trace
 * cache each rep) at 1 and 2 threads, interleaved, best of 15 each:
 * campaignT1Seconds, campaignT2Seconds and their ratio
 * campaignThreadSpeedup (informational), plus campaignIdentical (the
 * 2-thread JSONL and events equal the 1-thread ones; CI gate).
 * Every row is timed by timeInterleaved on the tracer's clock. Writes
 * BENCH_simloop.json.
 *
 * Usage:
 *   bench_simloop [cycles] [--jsonl FILE]
 *
 * Defaults: 200000 cycles, output to BENCH_simloop.json in the
 * current directory.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "core/trace_cache.hpp"
#include "core/voltage_sim.hpp"
#include "obs/tracing.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/pdn_sim.hpp"
#include "power/wattch.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"

using namespace vguard;
using namespace vguard::core;

namespace {

/** Wall-clock seconds of one callable, on the tracer's clock. */
template <typename Fn>
double
timeIt(Fn &&fn)
{
    const uint64_t t0 = obs::Tracer::now();
    fn();
    return static_cast<double>(obs::Tracer::now() - t0) * 1e-9;
}

/** cycles / seconds with div-by-zero guard. */
double
rate(uint64_t cycles, double secs)
{
    return secs > 0.0 ? static_cast<double>(cycles) / secs : 0.0;
}

/** Best (min) and median wall-clock seconds of one bench leg. */
struct LegTimes
{
    double best = 0.0;
    double median = 0.0;
};

/**
 * Times @p legs interleaved, A B C ..., @p reps rounds, after one
 * discarded warm-up round (the first pass after a build pays page
 * faults and cold caches that a steady-state ratio must not see). Host
 * speed drifts over the bench's lifetime; the legs of one round see the
 * same conditions, so the drift lands on every leg alike instead of on
 * whichever block it hit. The legs are short enough that one scheduler
 * hiccup can swamp a round, so the gates read the best of each leg; the
 * medians show the spread.
 */
template <typename... Legs>
std::array<LegTimes, sizeof...(Legs)>
timeInterleaved(int reps, Legs &&...legs)
{
    (legs(), ...);
    std::array<std::vector<double>, sizeof...(Legs)> times;
    for (int r = 0; r < reps; ++r) {
        auto t = times.begin();
        ((t++)->push_back(timeIt(legs)), ...);
    }
    std::array<LegTimes, sizeof...(Legs)> out;
    for (size_t i = 0; i < out.size(); ++i) {
        std::sort(times[i].begin(), times[i].end());
        out[i] = {times[i].front(), times[i][times[i].size() / 2]};
    }
    return out;
}

/**
 * @p leg with the tracer recording. A sim reads enabled() once, at
 * construction, so resume() comes before the leg builds its sim.
 */
template <typename Fn>
auto
traced(Fn leg)
{
    return [leg] {
        obs::Tracer::instance().resume();
        leg();
        obs::Tracer::instance().disable();
    };
}

/** (traced / untraced - 1) x 100 over the best of each leg. */
double
overheadPct(const LegTimes &off, const LegTimes &on)
{
    return off.best > 0.0 ? (on.best / off.best - 1.0) * 100.0 : 0.0;
}

/** Exact equality of a replayed result against the full-core one. */
bool
identical(const VoltageSimResult &a, const VoltageSimResult &b)
{
    return a.cycles == b.cycles && a.committed == b.committed &&
           a.ipc == b.ipc && a.energyJ == b.energyJ &&
           a.avgPowerW == b.avgPowerW && a.minV == b.minV &&
           a.maxV == b.maxV &&
           a.lowEmergencyCycles == b.lowEmergencyCycles &&
           a.highEmergencyCycles == b.highEmergencyCycles &&
           a.stats.json() == b.stats.json() &&
           a.events.jsonl() == b.events.jsonl();
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignCli cli = parseCampaignCli(argc, argv, kJsonlOutput);
    uint64_t cycles = 200000;
    if (!cli.positional.empty() &&
        (!parseUnsignedDecimal(cli.positional[0], 19, cycles) ||
         cycles == 0))
        fatal("bench_simloop: expected a positive cycle count, got '%s'",
              cli.positional[0].c_str());
    const std::string outPath =
        cli.jsonlPath.empty() ? "BENCH_simloop.json" : cli.jsonlPath;

    const isa::Program program = workloads::phasedKernel(400);

    RunSpec open;
    open.controllerEnabled = false;
    open.maxCycles = cycles;
    const VoltageSimConfig openCfg = makeSimConfig(open);

    // Full-core open-loop run, capturing the trace as it goes (the
    // capture stores are part of the cost a campaign's first leg
    // actually pays), then the trace replayed cycle by cycle and
    // through the block pipeline.
    constexpr int kOpenReps = 5;
    CapturedTrace trace;
    VoltageSimResult fullRes, cycRes, blkRes;
    const auto capture = [&] {
        trace = CapturedTrace{};
        fullRes = VoltageSim(openCfg, program)
                      .run(open.maxCycles, open.maxInsts, &trace);
    };
    const auto replayCycles = [&] {
        cycRes = VoltageSim(openCfg, program).runReplay(trace, 1);
    };
    const auto replayBlocks = [&] {
        blkRes = VoltageSim(openCfg, program).runReplay(trace);
    };
    const auto [fullSecs, cycSecs, blkSecs] = timeInterleaved(
        kOpenReps, capture, replayCycles, replayBlocks);

    RunSpec closed;
    closed.controllerEnabled = true;
    closed.maxCycles = cycles;
    const VoltageSimConfig closedCfg = makeSimConfig(closed);
    VoltageSimResult ctlRes;
    const auto closedLoop = [&] {
        ctlRes = VoltageSim(closedCfg, program).run(closed.maxCycles);
    };

    // Tracer overhead guards: the block replay and the closed loop,
    // each untraced against traced. Instrumentation must stay
    // effectively free on the replay, and within the phase sampler's
    // 5 % budget on the closed loop (CI enforces a ceiling on each via
    // benchdiff). The per-thread ring is allocated once here, outside
    // the timed legs: it is a one-off cost, not the per-event overhead
    // these guards pin. The traced legs re-arm the tracer with
    // resume(), which keeps that ring.
    constexpr int kOverheadReps = 15;
    obs::Tracer::instance().enable();
    {
        obs::TraceSpan warm("bench.warm");
    }
    obs::Tracer::instance().disable();
    const auto [untracedReplaySecs, tracedReplaySecs] = timeInterleaved(
        kOverheadReps, replayBlocks, traced(replayBlocks));
    const auto [untracedClosedSecs, tracedClosedSecs] = timeInterleaved(
        kOverheadReps, closedLoop, traced(closedLoop));
    const double tracedReplayOverheadPct =
        overheadPct(untracedReplaySecs, tracedReplaySecs);
    const double tracedClosedLoopOverheadPct =
        overheadPct(untracedClosedSecs, tracedClosedSecs);

    // Closed loop: the full coupled run, interleaved with the same run
    // through runWorkload with the open-loop trace of its key warm in
    // the cache. The controller never acts on this program at this
    // config, so the second leg replays the trace through the sensor.
    constexpr int kClosedReps = 5;
    TraceCache::instance().setEnabled(true);
    runWorkload(program, open);
    VoltageSimResult passiveRes;
    const auto [ctlSecs, passiveSecs] = timeInterleaved(
        kClosedReps, closedLoop,
        [&] { passiveRes = runWorkload(program, closed); });
    const bool passiveSame =
        identical(passiveRes, ctlRes) &&
        ctlRes.gatedCycles + ctlRes.phantomCycles == 0;

    // ---- multi-scenario sweep: K packages over the captured trace --
    const size_t laneCount = 8;
    const double iTrim =
        power::WattchModel(openCfg.power, openCfg.cpu).minCurrent();
    const double laneScales[laneCount] = {1.0, 1.5, 2.0, 2.5,
                                          3.0, 3.5, 4.0, 0.75};
    std::vector<pdn::LaneConfig> lanes;
    for (const double s : laneScales)
        lanes.push_back({referencePackage(s), iTrim});

    const size_t nTrace = trace.cycles();
    // Scalar sweep baseline: lane-major PdnSim::stepMany passes, each
    // writing its own contiguous row (no scatter cost charged), against
    // the batched sweep: all lanes per pass, blocked like a replay.
    constexpr int kSweepReps = 15;
    std::vector<double> scalarRows(nTrace * laneCount);
    std::vector<double> batchedVolts(nTrace * laneCount);
    const auto [scalarLaneSecs, batchedLaneSecs] = timeInterleaved(
        kSweepReps,
        [&] {
            for (size_t lane = 0; lane < laneCount; ++lane) {
                pdn::PdnSim sim(pdn::PackageModel(lanes[lane].package));
                sim.trimToCurrent(lanes[lane].iTrim);
                sim.stepMany(trace.ampsData(), nTrace,
                             scalarRows.data() + lane * nTrace);
            }
        },
        [&] {
            const auto backend = pdn::makeBatchedBackend(lanes);
            size_t done = 0;
            while (done < nTrace) {
                const size_t chunk = std::min<size_t>(
                    VoltageSim::kBlockCycles, nTrace - done);
                backend->stepShared(trace.ampsData() + done, chunk,
                                    batchedVolts.data() +
                                        done * laneCount);
                done += chunk;
            }
        });

    // Bit-identity: batched output vs the scalar backend (cycle-major)
    // and vs the raw stepMany rows (lane-major).
    bool lanesIdentical;
    {
        std::vector<double> scalarVolts(nTrace * laneCount);
        const auto backend = pdn::makeScalarBackend(lanes);
        backend->stepShared(trace.ampsData(), nTrace,
                            scalarVolts.data());
        lanesIdentical =
            std::memcmp(scalarVolts.data(), batchedVolts.data(),
                        scalarVolts.size() * sizeof(double)) == 0;
        for (size_t lane = 0; lanesIdentical && lane < laneCount;
             ++lane)
            for (size_t cyc = 0; cyc < nTrace; ++cyc)
                if (scalarRows[lane * nTrace + cyc] !=
                    batchedVolts[cyc * laneCount + lane]) {
                    lanesIdentical = false;
                    break;
                }
    }

    // ---- chip sweep: 8 chips x 4 staggered cores per shared rail ---
    // The many-core path (core/multicore_sim) sums per-core replay
    // currents into per-chip rails and streams them through
    // stepPerLane; scalar stays the bit-exact golden reference.
    const size_t chipLanes = 8;
    const size_t chipCores = 4;
    std::vector<ChipSpec> chipSpecs;
    for (size_t c = 0; c < chipLanes; ++c) {
        ChipSpec chip;
        chip.package = referencePackage(laneScales[c]);
        chip.iTrim = iTrim * static_cast<double>(chipCores);
        for (size_t i = 0; i < chipCores; ++i)
            chip.cores.push_back(
                {&trace, i * (nTrace / chipCores) + 13 * c, iTrim,
                 0.0});
        chipSpecs.push_back(std::move(chip));
    }
    std::vector<ChipResult> chipScalar, chipBatched;
    const auto [chipScalarSecs, chipBatchedSecs] = timeInterleaved(
        kSweepReps,
        [&] {
            chipScalar =
                runChips(chipSpecs, nTrace, pdn::BackendKind::Scalar);
        },
        [&] {
            chipBatched =
                runChips(chipSpecs, nTrace, pdn::BackendKind::Batched);
        });
    const bool chipLanesIdentical = chipScalar == chipBatched;

    // ---- governed chips: the same 8 x 4 chips, sensed and governed --
    // Noise-free sensors 1 % either side of nominal trip on this
    // trace's droops, and the default governor's budget then denies
    // some of the requests. A sensed chip steps one cycle at a time,
    // so this row times the closed-loop chip path.
    std::vector<ChipSpec> governedSpecs = chipSpecs;
    for (ChipSpec &chip : governedSpecs) {
        const double vNom = chip.package.vNominal;
        SensorConfig sensor;
        sensor.vLow = 0.99 * vNom;
        sensor.vHigh = 1.01 * vNom;
        sensor.delayCycles = 1;
        sensor.vNominal = vNom;
        chip.sensor = sensor;
        chip.governor = ChipGovernorConfig{};
    }
    std::vector<ChipResult> governedScalar, governedBatched;
    const auto [governedScalarSecs, governedBatchedSecs] =
        timeInterleaved(
            kSweepReps,
            [&] {
                governedScalar = runChips(governedSpecs, nTrace,
                                          pdn::BackendKind::Scalar);
            },
            [&] {
                governedBatched = runChips(governedSpecs, nTrace,
                                           pdn::BackendKind::Batched);
            });
    const bool chipGovernedLanesIdentical =
        governedScalar == governedBatched;
    uint64_t chipGovernedDenials = 0;
    for (const ChipResult &r : governedBatched)
        chipGovernedDenials += r.gateDenials;

    // ---- campaign: a Table-2-shaped job list at 1 and 2 threads ----
    // Eight SPEC proxies x four package scales: one trace key per
    // proxy, so a rep captures eight traces and replays 24. Every rep
    // starts from an empty trace cache, as a fresh artifact process
    // does. The speed-up has no floor: how much of a second core a rep
    // gets is up to the host's other tenants.
    constexpr int kCampaignReps = 15;
    constexpr size_t kCampaignProxies = 8;
    std::vector<CampaignJob> campaignJobs;
    for (size_t b = 0; b < kCampaignProxies; ++b) {
        const std::string &name = workloads::specBenchmarkNames()[b];
        const isa::Program prog = workloads::buildSpecProxy(name);
        for (const int pct : {100, 200, 300, 400}) {
            RunSpec rs = open;
            rs.impedanceScale = pct / 100.0;
            rs.maxCycles = std::max<uint64_t>(cycles / 4, 1);
            campaignJobs.push_back(
                {name + "@" + std::to_string(pct) + "%", prog, rs, false});
        }
    }
    const auto runCampaign = [&](unsigned threads) {
        TraceCache::instance().clear();
        CampaignEngine::Options o;
        o.threads = threads;
        return CampaignEngine(o).run(campaignJobs);
    };
    CampaignResult campaignT1, campaignT2;
    const auto [campaignT1Secs, campaignT2Secs] = timeInterleaved(
        kCampaignReps, [&] { campaignT1 = runCampaign(1); },
        [&] { campaignT2 = runCampaign(2); });
    const bool campaignSame =
        campaignT2.jsonl() == campaignT1.jsonl() &&
        campaignT2.eventsJsonl() == campaignT1.eventsJsonl();
    const double campaignSpeedup =
        campaignT2Secs.best > 0.0
            ? campaignT1Secs.best / campaignT2Secs.best
            : 0.0;

    const uint64_t laneCycles =
        static_cast<uint64_t>(nTrace) * laneCount;
    const double scalarLaneRate = rate(laneCycles, scalarLaneSecs.best);
    const double batchedLaneRate = rate(laneCycles, batchedLaneSecs.best);
    const double batchedSpeedup =
        scalarLaneRate > 0.0 ? batchedLaneRate / scalarLaneRate : 0.0;
    const double batchedSpeedupMedian =
        batchedLaneSecs.median > 0.0
            ? scalarLaneSecs.median / batchedLaneSecs.median
            : 0.0;

    const double fullRate = rate(fullRes.cycles, fullSecs.best);
    const double fullRateMedian = rate(fullRes.cycles, fullSecs.median);
    const double blkRate = rate(blkRes.cycles, blkSecs.best);
    const double ctlRate = rate(ctlRes.cycles, ctlSecs.best);
    const double passiveRate = rate(passiveRes.cycles, passiveSecs.best);
    const double passiveSpeedup =
        ctlRate > 0.0 ? passiveRate / ctlRate : 0.0;
    const double speedup = fullRate > 0.0 ? blkRate / fullRate : 0.0;
    const double speedupMedian =
        fullRateMedian > 0.0
            ? rate(blkRes.cycles, blkSecs.median) / fullRateMedian
            : 0.0;
    const bool cycSame = identical(cycRes, fullRes);
    const bool blkSame = identical(blkRes, fullRes);

    std::printf("%-22s %14s %10s %10s\n", "pipeline", "cycles/s",
                "speedup", "median");
    const auto pipelineRow = [&](const char *name, uint64_t n,
                                 const LegTimes &t) {
        const double best = rate(n, t.best);
        std::printf("%-22s %14.6g %9.2fx %9.2fx\n", name, best,
                    fullRate > 0.0 ? best / fullRate : 0.0,
                    fullRateMedian > 0.0
                        ? rate(n, t.median) / fullRateMedian
                        : 0.0);
    };
    pipelineRow("full-core (capture)", fullRes.cycles, fullSecs);
    pipelineRow("replay/1", cycRes.cycles, cycSecs);
    pipelineRow("replay/block", blkRes.cycles, blkSecs);
    pipelineRow("closed-loop", ctlRes.cycles, ctlSecs);
    pipelineRow("passive replay", passiveRes.cycles, passiveSecs);
    std::printf("replay identical: per-cycle=%s block=%s passive=%s\n",
                cycSame ? "yes" : "NO", blkSame ? "yes" : "NO",
                passiveSame ? "yes" : "NO");
    std::printf("passive replay speedup over closed loop: %.2fx\n",
                passiveSpeedup);
    std::printf("traced overhead: replay %.3f%%, closed loop %.3f%% "
                "(budget 5%%)\n",
                tracedReplayOverheadPct, tracedClosedLoopOverheadPct);

    std::printf("%-22s %14s %10s %10s\n", "sweep engine",
                "lane-cycles/s", "speedup", "median");
    std::printf("%-22s %14.6g %9.2fx %9.2fx\n", "scalar x8",
                scalarLaneRate, 1.0, 1.0);
    std::printf("%-22s %14.6g %9.2fx %9.2fx\n", "batched x8",
                batchedLaneRate, batchedSpeedup, batchedSpeedupMedian);
    std::printf("lanes identical: %s\n", lanesIdentical ? "yes" : "NO");

    const uint64_t chipLaneCycles =
        static_cast<uint64_t>(nTrace) * chipLanes;
    const double chipScalarRate =
        rate(chipLaneCycles, chipScalarSecs.best);
    const double chipBatchedRate =
        rate(chipLaneCycles, chipBatchedSecs.best);
    const double chipBatchedSpeedup =
        chipScalarRate > 0.0 ? chipBatchedRate / chipScalarRate : 0.0;
    const double chipBatchedSpeedupMedian =
        chipBatchedSecs.median > 0.0
            ? chipScalarSecs.median / chipBatchedSecs.median
            : 0.0;
    std::printf("%-22s %14s %10s %10s\n", "chip sweep (8x4 cores)",
                "chip-cycles/s", "speedup", "median");
    std::printf("%-22s %14.6g %9.2fx %9.2fx\n", "scalar chips",
                chipScalarRate, 1.0, 1.0);
    std::printf("%-22s %14.6g %9.2fx %9.2fx\n", "batched chips",
                chipBatchedRate, chipBatchedSpeedup,
                chipBatchedSpeedupMedian);
    std::printf("chip lanes identical: %s\n",
                chipLanesIdentical ? "yes" : "NO");
    const double chipGovernedRate =
        rate(chipLaneCycles, governedBatchedSecs.best);
    std::printf("governed chips: batched %.6g, scalar %.6g "
                "chip-cycles/s; %llu denials; identical: %s\n",
                chipGovernedRate,
                rate(chipLaneCycles, governedScalarSecs.best),
                static_cast<unsigned long long>(chipGovernedDenials),
                chipGovernedLanesIdentical ? "yes" : "NO");
    std::printf("campaign (%zu proxies x 4 scales): 1 thread %.3f s, "
                "2 threads %.3f s, %.2fx; identical: %s\n",
                kCampaignProxies, campaignT1Secs.best,
                campaignT2Secs.best, campaignSpeedup,
                campaignSame ? "yes" : "NO");

    JsonWriter w;
    w.beginObject();
    w.field("bench", "simloop");
    w.field("cycles", fullRes.cycles);
    w.field("fullCoreCyclesPerSec", fullRate);
    w.field("replayCyclesPerSec", rate(cycRes.cycles, cycSecs.best));
    w.field("blockReplayCyclesPerSec", blkRate);
    w.field("closedLoopCyclesPerSec", ctlRate);
    w.field("passiveReplayCyclesPerSec", passiveRate);
    w.field("passiveReplaySpeedup", passiveSpeedup);
    w.field("passiveReplayIdentical", passiveSame);
    w.field("replaySpeedup", speedup);
    w.field("replaySpeedupMedian", speedupMedian);
    w.field("replayIdentical", cycSame && blkSame);
    w.field("tracedReplayOverheadPct", tracedReplayOverheadPct);
    w.field("tracedClosedLoopOverheadPct", tracedClosedLoopOverheadPct);
    w.field("batchedLanes", uint64_t{laneCount});
    w.field("scalarLaneCyclesPerSec", scalarLaneRate);
    w.field("batchedLaneCyclesPerSec", batchedLaneRate);
    w.field("batchedSpeedup", batchedSpeedup);
    w.field("batchedSpeedupMedian", batchedSpeedupMedian);
    w.field("lanesIdentical", lanesIdentical);
    w.field("chipLanes", uint64_t{chipLanes});
    w.field("chipCoresPerLane", uint64_t{chipCores});
    w.field("chipScalarCyclesPerSec", chipScalarRate);
    w.field("chipBatchedCyclesPerSec", chipBatchedRate);
    w.field("chipBatchedSpeedup", chipBatchedSpeedup);
    w.field("chipBatchedSpeedupMedian", chipBatchedSpeedupMedian);
    w.field("chipLanesIdentical", chipLanesIdentical);
    w.field("chipGovernedCyclesPerSec", chipGovernedRate);
    w.field("chipGovernedDenials", chipGovernedDenials);
    w.field("chipGovernedLanesIdentical", chipGovernedLanesIdentical);
    w.field("campaignT1Seconds", campaignT1Secs.best);
    w.field("campaignT2Seconds", campaignT2Secs.best);
    w.field("campaignThreadSpeedup", campaignSpeedup);
    w.field("campaignIdentical", campaignSame);
    w.endObject();

    std::FILE *f = std::fopen(outPath.c_str(), "wb");
    if (!f)
        fatal("bench_simloop: cannot open '%s'", outPath.c_str());
    const std::string text = w.take() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}
