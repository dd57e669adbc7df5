/**
 * @file
 * Figures 14-15: impact of sensor delay on performance and energy with
 * the ideal actuator, for the eight most voltage-active SPEC2000
 * proxies (averaged) and the dI/dt stressmark, on the 200 % package.
 *
 * Expected shape: SPEC essentially unaffected at every delay; the
 * stressmark's performance loss and energy increase grow with delay
 * (paper: up to ~25 % perf / ~22 % energy at 5-6 cycles).
 *
 * The 7 delays x 9 workloads = 63 comparison runs are independent, so
 * they execute on the campaign engine. Usage:
 *   fig14_15_sensor_delay [--threads N] [--seed S] [--jsonl FILE]
 *                         [--stats-json FILE] [--events FILE]
 *                         [--progress]
 */

#include <cstdio>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "util/table.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

int
main(int argc, char **argv)
{
    const CampaignCli cli = parseCampaignCli(argc, argv);
    std::printf("== Figures 14-15: sensor delay vs performance and "
                "energy (ideal actuator, 200%%) ==\n\n");

    const uint64_t cycles = cycleBudget(40000);
    const auto &cal = referenceStressmark();
    const auto stress =
        workloads::StressmarkBuilder::build(cal.params);

    const auto &specNames = workloads::emergencySetNames();
    const unsigned maxDelay = 6;

    // Jobs in delay-major order: per delay, the SPEC-8 set then the
    // stressmark, so run index d * (|SPEC| + 1) + k is recoverable.
    std::vector<CampaignJob> jobs;
    for (unsigned d = 0; d <= maxDelay; ++d) {
        RunSpec rs;
        rs.impedanceScale = 2.0;
        rs.delayCycles = d;
        rs.actuator = ActuatorKind::Ideal;
        rs.maxCycles = cycles;
        for (const auto &name : specNames)
            jobs.push_back({name + "@d" + std::to_string(d),
                            workloads::buildSpecProxy(name), rs, true});
        jobs.push_back({"stressmark@d" + std::to_string(d), stress, rs,
                        true});
    }

    const CampaignEngine engine(cli.options);
    const CampaignResult campaign = engine.run(std::move(jobs));

    Table t({"delay (cycles)", "SPEC-8 perf loss %", "SPEC-8 energy +%",
             "stressmark perf loss %", "stressmark energy +%",
             "emergencies"});

    const size_t group = specNames.size() + 1;
    for (unsigned d = 0; d <= maxDelay; ++d) {
        double specPerf = 0.0, specEnergy = 0.0;
        uint64_t emergencies = 0;
        for (size_t k = 0; k < specNames.size(); ++k) {
            const auto &cmp = *campaign.runs[d * group + k].comparison;
            specPerf += cmp.perfLossPct;
            specEnergy += cmp.energyIncreasePct;
            emergencies += cmp.controlled.emergencyCycles();
        }
        specPerf /= static_cast<double>(specNames.size());
        specEnergy /= static_cast<double>(specNames.size());

        const auto &sm =
            *campaign.runs[d * group + specNames.size()].comparison;
        emergencies += sm.controlled.emergencyCycles();

        t.addRow({std::to_string(d), Table::fmt(specPerf, 3),
                  Table::fmt(specEnergy, 3),
                  Table::fmt(sm.perfLossPct, 3),
                  Table::fmt(sm.energyIncreasePct, 3),
                  std::to_string(emergencies)});
    }
    std::printf("%s\n", t.ascii().c_str());
    std::printf("expected shape: SPEC column ~0 at all delays; "
                "stressmark columns grow with delay; emergencies all "
                "zero.\n");
    writeCampaignArtifacts(cli, campaign);
    return 0;
}
