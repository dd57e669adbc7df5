/**
 * @file
 * Figures 8-9: the dI/dt stressmark.
 *
 * Builds the stressmark (auto-calibrated onto the package resonant
 * period, like the paper's hand tuning), prints its loop, and compares
 * the voltage swing it induces against (a) the maximum-height pulse
 * train at the resonant frequency and (b) the exact bang-bang worst
 * case. Expected shape: stressmark swing is severe but below the
 * theoretical worst case (paper Fig. 9).
 */

#include <algorithm>
#include <cstdio>

#include "core/experiments.hpp"
#include "linsys/worst_case.hpp"
#include "pdn/impulse.hpp"
#include "pdn/pdn_sim.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;
using workloads::StressmarkBuilder;

int
main()
{
    std::printf("== Figures 8-9: dI/dt stressmark vs worst case ==\n\n");
    const auto pkg = pdn::PackageModel(referencePackage(2.0));
    const auto &range = referenceCurrentRange();

    // ---- Fig. 8: the loop itself ------------------------------------
    const auto &cal = referenceStressmark();
    std::printf("calibrated loop: %u dependent divt + %u stores + %u "
                "ALU ops; measured period %.1f cycles (resonant: %u)\n",
                cal.params.divChain, cal.params.burstStores,
                cal.params.burstAlu, cal.measuredPeriodCycles,
                pkg.resonantPeriodCycles());
    std::printf("phase currents: low %.1f A / high %.1f A\n\n",
                cal.lowPhaseCurrentA, cal.highPhaseCurrentA);

    // ---- stressmark voltage swing -----------------------------------
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.controllerEnabled = false;
    rs.maxCycles = cycleBudget(80000);
    const auto res =
        runWorkload(StressmarkBuilder::build(cal.params), rs);
    std::printf("stressmark on the 200%% package: V in [%.4f, %.4f], "
                "%llu emergency cycles\n",
                res.minV, res.maxV,
                static_cast<unsigned long long>(res.emergencyCycles()));

    // ---- maximum-height pulse train at resonance --------------------
    {
        pdn::PdnSim sim(pkg);
        sim.trimToCurrent(range.gatedMin);
        const unsigned period = pkg.resonantPeriodCycles();
        const auto amps = linsys::resonantSquareWave(
            40 * period, period / 2, range.progMin, range.progMax);
        const auto vs = sim.run(amps);
        std::printf("max-height square wave at resonance:  V in "
                    "[%.4f, %.4f]\n",
                    *std::min_element(vs.begin(), vs.end()),
                    *std::max_element(vs.begin(), vs.end()));
    }

    // ---- exact bang-bang worst case ---------------------------------
    {
        const auto h = pdn::impulseResponse(pkg);
        const auto wc = linsys::bangBangWorstCase(h, range.progMin,
                                                  range.progMax);
        const double vdd = 1.0 + pkg.params().rDc() * range.gatedMin;
        const double worstMin = vdd + wc.minOutput;
        const double worstMax = vdd + wc.maxOutput;
        std::printf("theoretical worst case (bang-bang):   V in "
                    "[%.4f, %.4f]\n\n",
                    worstMin, worstMax);
        std::printf("stressmark reaches %.0f%% of the worst-case dip "
                    "(paper Fig. 9: severe but below the true worst "
                    "case)\n",
                    100.0 * (1.0 - res.minV) / (1.0 - worstMin));
    }
    return 0;
}
