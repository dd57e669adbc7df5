/**
 * @file
 * SPEC campaign: characterise all 26 SPEC2000 proxies under a chosen
 * package and controller configuration — the workload-facing workflow
 * behind the paper's Sections 3.3-5.
 *
 * For each benchmark it reports IPC, voltage range, emergencies when
 * uncontrolled, and the performance/energy cost of turning the
 * controller on. The 26 comparisons run on the campaign engine and can
 * be exported as a JSONL artifact for diffing across code versions.
 *
 * Usage: spec_campaign [impedance_scale] [delay_cycles]
 *                      [--threads N] [--seed S] [--jsonl FILE]
 *                      [--stats-json FILE] [--events FILE] [--progress]
 */

#include <cstdio>
#include <cstdlib>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "util/table.hpp"
#include "workloads/spec_proxy.hpp"

using namespace vguard;
using namespace vguard::core;

int
main(int argc, char **argv)
{
    const CampaignCli cli = parseCampaignCli(argc, argv);
    const double scale =
        cli.positional.size() > 0
            ? std::strtod(cli.positional[0].c_str(), nullptr)
            : 2.0;
    const unsigned delay =
        cli.positional.size() > 1
            ? static_cast<unsigned>(
                  std::strtoul(cli.positional[1].c_str(), nullptr, 10))
            : 2;

    std::printf("package: %.0f%% of target impedance; sensor delay %u "
                "cycles; FU/DL1/IL1 actuator\n\n",
                scale * 100.0, delay);

    RunSpec rs;
    rs.impedanceScale = scale;
    rs.delayCycles = delay;
    rs.actuator = ActuatorKind::FuDl1Il1;
    rs.maxCycles = cycleBudget(40000);

    std::vector<CampaignJob> jobs;
    for (const auto &name : workloads::specBenchmarkNames())
        jobs.push_back(
            {name, workloads::buildSpecProxy(name), rs, true});

    const CampaignEngine engine(cli.options);
    const CampaignResult campaign = engine.run(std::move(jobs));

    Table table({"benchmark", "IPC", "min V", "max V", "emergencies",
                 "perf loss %", "energy +%"});

    double worstPerf = 0.0, worstEnergy = 0.0;
    for (const RunResult &rr : campaign.runs) {
        const auto &cmp = *rr.comparison;
        table.addRow({rr.name, Table::fmt(cmp.baseline.ipc, 3),
                      Table::fmt(cmp.baseline.minV, 5),
                      Table::fmt(cmp.baseline.maxV, 5),
                      std::to_string(cmp.baseline.emergencyCycles()),
                      Table::fmt(cmp.perfLossPct, 3),
                      Table::fmt(cmp.energyIncreasePct, 3)});
        worstPerf = std::max(worstPerf, cmp.perfLossPct);
        worstEnergy = std::max(worstEnergy, cmp.energyIncreasePct);
    }

    std::printf("%s\n", table.ascii().c_str());
    std::printf("worst-case perf loss %.2f%%, worst-case energy "
                "increase %.2f%% — the paper's 'nearly negligible' "
                "impact on mainstream applications.\n",
                worstPerf, worstEnergy);
    writeCampaignArtifacts(cli, campaign);
    return 0;
}
