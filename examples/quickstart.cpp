/**
 * @file
 * Quickstart: the whole vguard pipeline in ~60 lines.
 *
 *  1. Build the reference machine (paper Table 1) and calibrate the
 *     package target impedance for its current envelope.
 *  2. Generate the dI/dt stressmark tuned to the package resonance.
 *  3. Run it uncontrolled on a cheap package (200 % of target
 *     impedance) and watch voltage emergencies appear.
 *  4. Turn on the threshold controller (sensor delay 2 cycles,
 *     FU/DL1/IL1 actuator) and watch them disappear.
 *
 * Usage: quickstart [cycles]
 */

#include <cstdio>

#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "util/logging.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

int
main(int argc, char **argv)
{
    uint64_t cycles = 100000;
    if (argc > 1 &&
        (!parseUnsignedDecimal(argv[1], 19, cycles) || cycles == 0))
        fatal("quickstart: expected a positive cycle count, got '%s'",
              argv[1]);

    // 1. Machine + package calibration (cached helpers).
    const auto &target = referenceTarget();
    const auto &range = referenceCurrentRange();
    std::printf("machine: program current %.1f-%.1f A, actuator range "
                "%.1f-%.1f A\n",
                range.progMin, range.progMax, range.gatedMin,
                range.phantomMax);
    std::printf("target impedance: %.3f mOhm (50 MHz resonance, "
                "0.5 mOhm DC)\n\n",
                target.zTargetOhms * 1e3);

    // 2. Stressmark tuned onto the package resonant period.
    const auto pkg = pdn::PackageModel(referencePackage(2.0));
    const auto &cal = referenceStressmark();
    std::printf("stressmark: %u-divide chain + %u stores + %u ALU ops "
                "-> %.1f-cycle loop (resonant period %u)\n\n",
                cal.params.divChain, cal.params.burstStores,
                cal.params.burstAlu, cal.measuredPeriodCycles,
                pkg.resonantPeriodCycles());
    const auto program =
        workloads::StressmarkBuilder::build(cal.params);

    // 3. Uncontrolled at 200 % of target impedance.
    RunSpec off;
    off.impedanceScale = 2.0;
    off.controllerEnabled = false;
    off.maxCycles = cycles;
    const auto base = runWorkload(program, off);
    std::printf("uncontrolled: V in [%.4f, %.4f], %llu emergency "
                "cycles (%.3f%%), IPC %.2f\n",
                base.minV, base.maxV,
                static_cast<unsigned long long>(base.emergencyCycles()),
                100.0 * base.emergencyFrequency(), base.ipc);

    // 4. Controlled: thresholds solved for delay 2 by control theory.
    RunSpec on = off;
    on.controllerEnabled = true;
    on.delayCycles = 2;
    on.actuator = ActuatorKind::FuDl1Il1;
    const auto ctl = runWorkload(program, on);
    const auto &th = referenceThresholds(2.0, 2);
    std::printf("controlled:   V in [%.4f, %.4f], %llu emergency "
                "cycles, IPC %.2f\n",
                ctl.minV, ctl.maxV,
                static_cast<unsigned long long>(ctl.emergencyCycles()),
                ctl.ipc);
    std::printf("  thresholds vLow=%.4f vHigh=%.4f (solved for 2-cycle "
                "sensor delay)\n",
                th.vLow, th.vHigh);
    std::printf("  gated %llu cycles, phantom-fired %llu cycles, "
                "%llu low triggers\n",
                static_cast<unsigned long long>(ctl.gatedCycles),
                static_cast<unsigned long long>(ctl.phantomCycles),
                static_cast<unsigned long long>(ctl.lowTriggers));

    return ctl.emergencyCycles() == 0 ? 0 : 1;
}
