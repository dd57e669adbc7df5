/**
 * @file
 * Ablation (paper Section 6): asymmetric actuation — use an
 * easy-to-gate coarse unit set for the (common) voltage-low
 * emergencies but a smaller, easier-to-phantom-fire set for the (rare)
 * voltage-high ones.
 *
 * Runs the stressmark on 300 % and 400 % packages — where the high
 * side actually binds — comparing the symmetric FU/DL1/IL1 actuator
 * against gate=FU/DL1/IL1 + phantom=FU.
 *
 * Expected shape: both configurations eliminate emergencies; the
 * asymmetric one spends less energy on phantom firing (it wakes 18 W
 * of functional units instead of the whole 30 W controllable set)
 * with no loss of protection, supporting the paper's suggestion.
 */

#include <cstdio>

#include "core/experiments.hpp"
#include "util/table.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

int
main()
{
    std::printf("== Ablation: asymmetric gate/phantom actuation ==\n\n");

    const uint64_t cycles = cycleBudget(60000);
    const auto &cal = referenceStressmark();
    const auto prog = workloads::StressmarkBuilder::build(cal.params);

    Table t({"impedance", "phantom set", "emerg", "min V", "max V",
             "phantom cyc", "avg power (W)", "IPC"});

    for (double scale : {3.0, 4.0}) {
        for (const bool asymmetric : {false, true}) {
            auto cfg = makeSimConfig([&] {
                RunSpec rs;
                rs.impedanceScale = scale;
                rs.delayCycles = 2;
                rs.actuator = ActuatorKind::FuDl1Il1;
                rs.maxCycles = cycles;
                return rs;
            }());
            if (asymmetric)
                cfg.phantomActuator = ActuatorKind::Fu;
            // Pin a conservative high threshold (the paper's Table-3
            // high thresholds sit near 1.017) so the voltage-high
            // response path actually exercises.
            cfg.sensor->vHigh = 1.017;
            VoltageSim sim(cfg, prog);
            const auto res = sim.run(cycles);

            char label[16];
            std::snprintf(label, sizeof(label), "%3.0f%%",
                          scale * 100.0);
            t.addRow({label, asymmetric ? "FU" : "FU/DL1/IL1",
                      std::to_string(res.emergencyCycles()),
                      Table::fmt(res.minV, 5), Table::fmt(res.maxV, 5),
                      std::to_string(res.phantomCycles),
                      Table::fmt(res.avgPowerW, 4),
                      Table::fmt(res.ipc, 3)});
        }
    }
    std::printf("%s\n", t.ascii().c_str());
    std::printf("expected shape: equal protection; the asymmetric "
                "configuration burns less phantom power when "
                "voltage-high triggers occur.\n");
    return 0;
}
