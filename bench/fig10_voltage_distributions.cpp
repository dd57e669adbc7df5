/**
 * @file
 * Figure 10: voltage distributions for the SPEC2000 proxies and the
 * stressmark at 100 % of target impedance.
 *
 * Expected shape: every distribution stays within the ±5 % band (the
 * 100 % package is safe by definition); stall-bound benchmarks like
 * ammp are tightly concentrated, while galgel/swim-class benchmarks
 * and especially the stressmark spread across a wide voltage range.
 *
 * The 27 characterisation runs are independent, so they execute on
 * the campaign engine. A sidebar replays the stressmark trace through
 * the 100-400 % package family in one lane-batched pass to show the
 * distribution widening with impedance. Usage:
 *   fig10_voltage_distributions [--threads N] [--seed S] [--jsonl FILE]
 *                               [--stats-json FILE] [--events FILE]
 *                               [--progress]
 */

#include <cstdio>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/replay_sweep.hpp"
#include "power/wattch.hpp"
#include "util/table.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

int
main(int argc, char **argv)
{
    const CampaignCli cli = parseCampaignCli(argc, argv);
    std::printf("== Figure 10: voltage distributions @ 100%% "
                "impedance ==\n\n");
    const uint64_t cycles = cycleBudget(60000);

    RunSpec base;
    base.impedanceScale = 1.0;
    base.controllerEnabled = false;
    base.maxCycles = cycles;

    std::vector<CampaignJob> jobs;
    for (const auto &name : workloads::specBenchmarkNames())
        jobs.push_back(
            {name, workloads::buildSpecProxy(name), base, false});

    const auto &cal = referenceStressmark();
    jobs.push_back({"stressmark",
                    workloads::StressmarkBuilder::build(cal.params),
                    base, false});

    const CampaignEngine engine(cli.options);
    const CampaignResult campaign = engine.run(std::move(jobs));

    Table summary({"workload", "min V", "max V", "range (mV)",
                   "% below 0.995", "emergencies"});
    for (const RunResult &rr : campaign.runs) {
        const auto &res = rr.sim;
        const auto &h = res.voltageHist;
        summary.addRow({rr.name, Table::fmt(res.minV, 5),
                        Table::fmt(res.maxV, 5),
                        Table::fmt((res.maxV - res.minV) * 1e3, 4),
                        Table::fmt(100.0 * h.fractionBelow(0.9951), 4),
                        std::to_string(res.emergencyCycles())});

        const bool detailed = rr.name == "ammp" ||
                              rr.name == "galgel" ||
                              rr.name == "swim" ||
                              rr.name == "stressmark";
        if (!detailed)
            continue;
        std::printf("histogram for %s (V, share):\n", rr.name.c_str());
        // Compress to populated region only.
        for (size_t i = 0; i < h.bins(); ++i) {
            if (h.count(i) == 0)
                continue;
            const auto bar = static_cast<size_t>(
                60.0 * h.fraction(i) / 0.5);
            std::printf("  %.4f %-60s %6.2f%%\n", h.binCenter(i),
                        std::string(std::min<size_t>(bar, 60), '#')
                            .c_str(),
                        100.0 * h.fraction(i));
        }
        std::printf("\n");
    }

    std::printf("%s\n", summary.ascii().c_str());
    std::printf("expected shape: zero emergencies everywhere; ammp "
                "tight, galgel/swim wide, stressmark widest.\n");

    // Sidebar: the same stressmark trace through the 100-400 % package
    // family in one pass of the lane-batched sweep engine, showing the
    // distribution widening until it breaches the ±5 % band.
    {
        const auto stress =
            workloads::StressmarkBuilder::build(cal.params);
        CapturedTrace fallback;
        const CapturedTrace &trace = fetchTrace(stress, base, fallback);
        const VoltageSimConfig cfg = makeSimConfig(base);
        const double iTrim =
            power::WattchModel(cfg.power, cfg.cpu).minCurrent();

        const std::vector<double> scales{1.0, 2.0, 3.0, 4.0};
        std::vector<SweepLane> lanes;
        for (const double s : scales)
            lanes.push_back({referencePackage(s), iTrim, cfg.band,
                             cfg.histLo, cfg.histHi, cfg.histBins});
        const auto swept = replaySweep(trace.ampsData(),
                                       trace.cycles(), lanes);

        std::printf("\nstressmark distribution vs impedance (batched "
                    "replay, %zu lanes):\n",
                    lanes.size());
        Table spread({"impedance", "min V", "max V", "range (mV)",
                      "% below 0.995", "emergencies"});
        for (size_t i = 0; i < scales.size(); ++i) {
            const auto &r = swept[i];
            spread.addRow(
                {std::to_string(static_cast<int>(100.0 * scales[i])) +
                     "%",
                 Table::fmt(r.minV, 5), Table::fmt(r.maxV, 5),
                 Table::fmt((r.maxV - r.minV) * 1e3, 4),
                 Table::fmt(100.0 * r.voltageHist.fractionBelow(0.9951),
                            4),
                 std::to_string(r.emergencyCycles())});
        }
        std::printf("%s\n", spread.ascii().c_str());
    }
    writeCampaignArtifacts(cli, campaign);
    return 0;
}
