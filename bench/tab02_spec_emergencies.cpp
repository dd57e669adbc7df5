/**
 * @file
 * Table 2: voltage emergencies on the SPEC2000 proxies at 100-400 % of
 * target impedance (uncontrolled).
 *
 * Expected shape (paper): no emergencies at 100 % (definitional) or
 * 200 %; ~1 benchmark breaching at 300 %; several more at 400 % with
 * tiny emergency frequencies. The stressmark, run alongside, breaches
 * from 200 % up.
 *
 * The 26 benchmarks x 4 impedances (+ 4 stressmark contrast runs) are
 * independent, so they execute on the campaign engine. A closing
 * section replays the stressmark's captured trace through thirteen
 * packages (100-400 % in 25 % steps) in one pass of the lane-batched
 * sweep engine to localise its first breach. Usage:
 *   tab02_spec_emergencies [--threads N] [--seed S] [--jsonl FILE]
 *                          [--stats-json FILE] [--events FILE]
 *                          [--progress]
 */

#include <cstdio>
#include <vector>

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
    std::printf("== Table 2: SPEC2000 voltage emergencies vs "
                "impedance ==\n\n");

    const std::vector<double> scales{1.0, 2.0, 3.0, 4.0};
    const uint64_t cycles = cycleBudget(60000);
    const auto &names = workloads::specBenchmarkNames();

    // Benchmark-major order: run index b * |scales| + s; the 4
    // stressmark contrast runs follow at the end.
    std::vector<CampaignJob> jobs;
    for (const auto &name : names) {
        const auto prog = workloads::buildSpecProxy(name);
        for (double s : scales) {
            RunSpec rs;
            rs.impedanceScale = s;
            rs.controllerEnabled = false;
            rs.maxCycles = cycles;
            jobs.push_back({name + "@" +
                                std::to_string(
                                    static_cast<int>(100.0 * s)) +
                                "%",
                            prog, rs, false});
        }
    }
    const auto &cal = referenceStressmark();
    const auto stress = workloads::StressmarkBuilder::build(cal.params);
    for (double s : scales) {
        RunSpec rs;
        rs.impedanceScale = s;
        rs.controllerEnabled = false;
        rs.maxCycles = cycles;
        jobs.push_back({"stressmark@" +
                            std::to_string(static_cast<int>(100.0 * s)) +
                            "%",
                        stress, rs, false});
    }

    const CampaignEngine engine(cli.options);
    const CampaignResult campaign = engine.run(std::move(jobs));

    struct Row
    {
        unsigned benchmarksWithEmergencies = 0;
        double sumFreq = 0.0;
        double maxFreq = 0.0;
    };
    std::vector<Row> rows(scales.size());

    Table detail({"benchmark", "100%", "200%", "300%", "400%"});
    for (size_t b = 0; b < names.size(); ++b) {
        std::vector<std::string> cells{names[b]};
        for (size_t i = 0; i < scales.size(); ++i) {
            const auto &res = campaign.runs[b * scales.size() + i].sim;
            const double freq = res.emergencyFrequency();
            rows[i].benchmarksWithEmergencies += freq > 0.0;
            rows[i].sumFreq += freq;
            rows[i].maxFreq = std::max(rows[i].maxFreq, freq);
            char cell[48];
            std::snprintf(cell, sizeof(cell), "%llu (%.4f%%)",
                          static_cast<unsigned long long>(
                              res.emergencyCycles()),
                          100.0 * freq);
            cells.push_back(cell);
        }
        detail.addRow(cells);
    }
    std::printf("per-benchmark emergency cycles (of %llu):\n%s\n",
                static_cast<unsigned long long>(cycles),
                detail.ascii().c_str());

    // The paper's Table 2 summary rows.
    Table summary({"", "100%", "200%", "300%", "400%"});
    {
        std::vector<std::string> r{"Benchmarks w/ Voltage Emergencies"};
        for (const auto &row : rows)
            r.push_back(std::to_string(row.benchmarksWithEmergencies));
        summary.addRow(r);
    }
    {
        std::vector<std::string> r{"Emergency Frequency (Average)"};
        for (const auto &row : rows)
            r.push_back(
                Table::fmt(100.0 * row.sumFreq /
                               static_cast<double>(names.size()),
                           3) +
                "%");
        summary.addRow(r);
    }
    {
        std::vector<std::string> r{"Emergency Frequency (Maximum)"};
        for (const auto &row : rows)
            r.push_back(Table::fmt(100.0 * row.maxFreq, 3) + "%");
        summary.addRow(r);
    }
    std::printf("%s\n", summary.ascii().c_str());

    // Contrast: the stressmark breaches already at 200 %.
    std::printf("stressmark for contrast:\n");
    for (size_t i = 0; i < scales.size(); ++i) {
        const auto &res =
            campaign.runs[names.size() * scales.size() + i].sim;
        std::printf("  %3.0f%%: %llu emergency cycles (%.3f%%), min V "
                    "%.4f\n",
                    100.0 * scales[i],
                    static_cast<unsigned long long>(
                        res.emergencyCycles()),
                    100.0 * res.emergencyFrequency(), res.minV);
    }
    // Fine-grained sweep: the coarse table steps impedance in 100 %
    // jumps; the lane-batched replay engine is cheap enough to resolve
    // where the stressmark's first breach actually sits. One captured
    // trace, thirteen packages in a single batched pass (additive —
    // the campaign artifacts above are unchanged).
    {
        RunSpec rs;
        rs.impedanceScale = 1.0;
        rs.controllerEnabled = false;
        rs.maxCycles = cycles;
        CapturedTrace fallback;
        const CapturedTrace &trace = fetchTrace(stress, rs, fallback);
        const VoltageSimConfig cfg = makeSimConfig(rs);
        const double iTrim =
            power::WattchModel(cfg.power, cfg.cpu).minCurrent();

        std::vector<double> fine;
        for (double s = 1.0; s <= 4.0 + 1e-9; s += 0.25)
            fine.push_back(s);
        std::vector<SweepLane> lanes;
        for (const double s : fine)
            lanes.push_back({referencePackage(s), iTrim, cfg.band,
                             cfg.histLo, cfg.histHi, cfg.histBins});
        const auto swept = replaySweep(trace.ampsData(),
                                       trace.cycles(), lanes);

        std::printf("\nstressmark fine impedance sweep (batched "
                    "replay, %zu lanes x %zu cycles):\n",
                    lanes.size(), trace.cycles());
        Table fineT({"impedance", "min V", "max V", "emergencies",
                     "frequency"});
        for (size_t i = 0; i < fine.size(); ++i) {
            const auto &r = swept[i];
            const double freq =
                r.cycles > 0
                    ? static_cast<double>(r.emergencyCycles()) /
                          static_cast<double>(r.cycles)
                    : 0.0;
            fineT.addRow({std::to_string(
                              static_cast<int>(100.0 * fine[i])) +
                              "%",
                          Table::fmt(r.minV, 5), Table::fmt(r.maxV, 5),
                          std::to_string(r.emergencyCycles()),
                          Table::fmt(100.0 * freq, 3) + "%"});
        }
        std::printf("%s\n", fineT.ascii().c_str());
    }

    writeCampaignArtifacts(cli, campaign);
    return 0;
}
