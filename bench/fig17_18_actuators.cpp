/**
 * @file
 * Figures 17-18: actuator granularity (FU, FU/DL1, FU/DL1/IL1) versus
 * controller delay — performance and energy impact on the
 * voltage-active SPEC set and the stressmark, on the 200 % package.
 *
 * Expected shape (paper Section 5):
 *  - FU-only actuation has too little leverage: residual emergencies
 *    and/or instability as delay grows (the paper calls it unstable
 *    for delays >= 3);
 *  - FU/DL1 and FU/DL1/IL1 hold SPEC performance loss under ~2 % at
 *    all delays while eliminating every emergency;
 *  - the stressmark pays more (paper: ~6 % at delay 0 up to ~25 % at
 *    5), and energy overhead stays small for SPEC.
 */

#include <cstdio>
#include <vector>

#include "core/actuator.hpp"
#include "core/experiments.hpp"
#include "workloads/kernels.hpp"
#include "util/table.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

int
main()
{
    std::printf("== Figures 17-18: actuator granularity vs controller "
                "delay (200%%) ==\n\n");

    const uint64_t cycles = cycleBudget(40000);
    const auto &cal = referenceStressmark();
    const auto stress =
        workloads::StressmarkBuilder::build(cal.params);

    const std::vector<ActuatorKind> kinds{
        ActuatorKind::Fu, ActuatorKind::FuDl1, ActuatorKind::FuDl1Il1};

    for (const auto kind : kinds) {
        std::printf("-- actuator: %s\n", actuatorName(kind));
        Table t({"delay", "SPEC-8 perf loss %", "SPEC-8 energy +%",
                 "SPEC-8 emerg", "stress perf loss %",
                 "stress energy +%", "stress emerg"});
        for (unsigned d = 0; d <= 5; ++d) {
            double specPerf = 0.0, specEnergy = 0.0;
            uint64_t specEmerg = 0;
            for (const auto &name : workloads::emergencySetNames()) {
                RunSpec rs;
                rs.impedanceScale = 2.0;
                rs.delayCycles = d;
                rs.actuator = kind;
                rs.maxCycles = cycles;
                const auto cmp = compareControlled(
                    workloads::buildSpecProxy(name), rs);
                specPerf += cmp.perfLossPct;
                specEnergy += cmp.energyIncreasePct;
                specEmerg += cmp.controlled.emergencyCycles();
            }
            specPerf /= workloads::emergencySetNames().size();
            specEnergy /= workloads::emergencySetNames().size();

            RunSpec rs;
            rs.impedanceScale = 2.0;
            rs.delayCycles = d;
            rs.actuator = kind;
            rs.maxCycles = cycles;
            const auto sm = compareControlled(stress, rs);

            t.addRow({std::to_string(d), Table::fmt(specPerf, 3),
                      Table::fmt(specEnergy, 3),
                      std::to_string(specEmerg),
                      Table::fmt(sm.perfLossPct, 3),
                      Table::fmt(sm.energyIncreasePct, 3),
                      std::to_string(
                          sm.controlled.emergencyCycles())});
        }
        std::printf("%s\n", t.ascii().c_str());
    }

    // ---- actuator leverage: how fast can each brake shed current? --
    // (The paper's Fig. 17 argument: FU-only "does not have the
    // necessary leverage to reshape voltage quickly".)
    std::printf("-- actuator leverage: current shed when gating "
                "engages while the power virus runs\n");
    for (const auto kind : kinds) {
        cpu::OoOCore core(referenceMachine().cpu,
                          workloads::powerVirus());
        power::WattchModel pm(referenceMachine().power,
                              referenceMachine().cpu);
        for (int i = 0; i < 30000; ++i)
            core.cycle(); // warm to peak activity
        const double before = pm.current(core.cycle());
        Actuator act(kind);
        double after1 = 0.0, after4 = 0.0;
        for (int i = 0; i < 4; ++i) {
            act.apply(VoltageLevel::Low, core);
            const double amps = pm.current(core.cycle());
            if (i == 0)
                after1 = amps;
            after4 = amps;
        }
        std::printf("  %-11s %.1f A -> %.1f A after 1 cycle, %.1f A "
                    "after 4 cycles\n",
                    actuatorName(kind), before, after1, after4);
    }

    std::printf("\nobserved shape: coarser actuators shed more current "
                "faster and cost less on the stressmark; all three "
                "eliminate emergencies here (unlike the paper, whose "
                "FU-only controller went unstable at delay >= 3 — our "
                "pipeline's backpressure gives FU gating extra "
                "indirect leverage; see EXPERIMENTS.md).\n");
    return 0;
}
